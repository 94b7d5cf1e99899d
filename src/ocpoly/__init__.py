"""Polynomials over octonion (and quaternion) division algebras: arithmetic,
roots, right/left scalar-multiple root sets, and fixed-point dynamics."""

__version__ = "0.1.0"
