"""The package's one rule for exact scalars: an int when integral, else a Fraction.

Coefficients of `WittVector`, `BurnsideElement`, `bring.BElement` and
`symfunc.SymFunc` pass through `norm_coeff`.  `quotient` divides integers
by the same rule (Witt coordinates from ghosts, the 1/z_pi of h -> p,
cycle indices and `lin`, `plethysm`, `eval_z`), so a Fraction is built
only where a division is inexact.
"""

from fractions import Fraction


def norm_coeff(c):
    """c as an int when it is integral, otherwise as a reduced Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def quotient(num, den: int):
    """num / den for an int den: an int when num is an int that den
    divides, otherwise a Fraction; a Fraction num stays a Fraction, which
    callers pass through `norm_coeff`."""
    if type(num) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return num / den
