"""Exact-arithmetic index iteration, common-index-jump tuples, and
Morse-theoretic counting for closed geodesics.

Import what you need from its module: ``from cijt.engine import find_tuple``.
"""

__version__ = "0.1.0"
