"""The Dirichlet integral: the reference of the tests of simplex rules."""

import math
from fractions import Fraction


def dirichlet_moment(g) -> Fraction:
    """Integral of ``prod t_i^{g_i}`` over the standard d-simplex, d = len(g):
    ``(prod g_i!) / (d + sum g_i)!``."""
    return Fraction(math.prod(map(math.factorial, g)), math.factorial(len(g) + sum(g)))
