"""Rate-aware mixture-of-experts target counting on simulated CSI streams."""

__version__ = "0.1.0"
