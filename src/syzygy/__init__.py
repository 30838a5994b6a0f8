"""Exact homological computations for finite-dimensional algebras over F_p.

Builds split basic algebras from quivers with relations, forms trivial
extensions, cover algebras and triangular matrix algebras, computes
projective covers, syzygies and Krull-Schmidt decompositions, and derives
certified bounds for delooping levels.
"""

__version__ = "0.1.0"
