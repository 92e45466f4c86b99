"""Exact Z-domain and Tustin-mapped Laplace-domain closed forms for the
Levi-Civita symbol, cross-verified against brute-force oracles.

Each name is imported from its module (``from zeps.sdomain import
factored_laplace``); the package root provides only ``__version__``.
"""

__version__ = "0.1.0"
