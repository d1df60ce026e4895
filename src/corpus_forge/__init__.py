"""corpus-forge: synthetic parallel-corpus generation and evaluation toolkit."""

__version__ = "0.1.0"
