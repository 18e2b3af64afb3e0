"""The package's one rule for exact scalars: an int when integral, else a Fraction."""

from fractions import Fraction


def norm_coeff(c):
    """c as an int when it is integral, otherwise as a reduced Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return int(c) if c.denominator == 1 else c
