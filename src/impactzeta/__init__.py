"""Exact zeta numerators of quadratic orders and tree generating functions.

The package computes walk-count generating functions of homogeneous trees
carrying one of three basin shapes (vertex, edge, apartment), the ideal
zeta functions of the matching main sequence of quadratic orders, and
checks the two against each other symbolically and against brute-force
oracles (height-pruned BFS on the tree and exact-integer p-adic
ideal enumeration).
"""

__version__ = "0.1.0"
