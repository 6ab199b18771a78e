"""Generalized Dirichlet series: explicit constants, norm inequalities,
short-interval lower bounds, and a numerical verification harness."""

__version__ = "0.1.0"
