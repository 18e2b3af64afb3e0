"""Big Witt vectors: the ring structure on truncated series 1 + a1 t + ...

Addition is multiplication of power series.  The ghost map sends the
vector with coefficients h_n(x) to the power sums p_n(x); it is additive
for series products and the ring multiplication is *defined* by ghost =
pointwise product, inverted over the rationals.  Products of integer
vectors are asserted integral, which is exactly the classical claim that
the universal product polynomials have integer coefficients.

log(1 + a1 t + ...) is one series whether the a_i are read as h's or e's,
so one Newton recursion (`eps_ghost`, `eps_from_ghost`) serves both, up to
the sign (-1)^(n-1).  Entries are ints, Fractions only after an inexact division.

`delta_m_dual_route_agrees` proves the second diagonal equal to the
universal product polynomials by evaluation.  P_k is bihomogeneous of
weight k, so its points are the lower set S_n of multiplicity vectors of
partitions of size <= n (Dyn and Floater, J. Approx. Theory 2014, on
interpolation at lower sets), not a tensor grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import IntegralityViolation, PrecisionMismatch
from .exact import norm_coeff, quotient
from .perms import partitions
from .symfunc import SymFunc, _det

DEFAULT_PRECISION = 8


def _twist(ghost) -> list:
    """g_n -> (-1)^(n-1) g_n: between e-reading and h-reading power sums."""
    return [-g if n % 2 == 0 else g for n, g in enumerate(ghost, start=1)]


class WittVector:
    """A truncated series 1 + a1 t + ... + aN t^N with exact entries."""

    __slots__ = ("precision", "coeffs")

    def __init__(self, coeffs, precision: int | None = None):
        coeffs = [norm_coeff(c) for c in coeffs]
        if precision is None:
            precision = len(coeffs)
        if not 0 <= len(coeffs) <= precision:
            raise ValueError(f"precision {precision} cannot hold {len(coeffs)} coefficients")
        coeffs += [0] * (precision - len(coeffs))
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("WittVector is immutable")

    @classmethod
    def zero(cls, precision: int = DEFAULT_PRECISION) -> WittVector:
        """The series 1: additive identity."""
        return cls([0] * precision)

    @classmethod
    def one(cls, precision: int = DEFAULT_PRECISION) -> WittVector:
        """1/(1-t) truncated: the vector with ghost identically 1."""
        return cls([1] * precision)

    @classmethod
    def from_ghost(cls, ghost, precision: int | None = None) -> WittVector:
        """The vector whose first `precision` ghost components are `ghost`'s."""
        ghost = [norm_coeff(g) for g in ghost]
        if precision is None:
            precision = len(ghost)
        n = len(ghost)
        if not 0 <= precision <= n:
            raise ValueError(f"precision {precision} is outside 0..{n} for {n} ghost components")
        return cls(eps_from_ghost(_twist(ghost[:precision])), precision)

    def ghost(self) -> tuple:
        """g_n = p_n of the alphabet with a_i = h_i."""
        return tuple(_twist(eps_ghost(self.coeffs)))

    def _match(self, other: WittVector):
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"precision {self.precision} != {other.precision}"
            )

    def __add__(self, other: WittVector) -> WittVector:
        self._match(other)
        a = (1,) + self.coeffs
        b = (1,) + other.coeffs
        out = []
        for n in range(1, self.precision + 1):
            out.append(sum(a[i] * b[n - i] for i in range(n + 1)))
        return WittVector(out, self.precision)

    def __neg__(self) -> WittVector:
        """The series inverse: the ghost map is additive."""
        return WittVector.from_ghost([-g for g in self.ghost()])

    def __sub__(self, other: WittVector) -> WittVector:
        return self + (-other)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __mul__(self, other: WittVector) -> WittVector:
        self._match(other)
        product = WittVector.from_ghost(_ghost_product(self.coeffs, other.coeffs))
        if self.is_integral() and other.is_integral() and not product.is_integral():
            raise IntegralityViolation("integer Witt vectors multiplied to a non-integer")
        return product

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.precision, self.coeffs))

    def __repr__(self):
        terms = ["1"] + [f"({c})t^{n}" for n, c in enumerate(self.coeffs, start=1) if c]
        return " + ".join(terms)

    def to_json(self):
        return {
            "precision": self.precision,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data) -> WittVector:
        return cls([Fraction(n, d) for n, d in data["coeffs"]], data["precision"])


def eps_ghost(coeffs) -> list:
    """Power sums of the alphabet with a_i = e_i (the prod(1 + x_i t) reading).

    Newton's recursion runs on the h-reading sums, then twists them.
    Integer inputs stay integers: the Newton expressions are integral.
    """
    a = list(coeffs)
    h: list = []
    for n in range(1, len(a) + 1):
        h.append(n * a[n - 1] - sum(map(mul, h, reversed(a[: n - 1]))))
    return _twist(h)


def eps_from_ghost(ghost) -> list:
    """The inverse of eps_ghost.  Entries stay ints while the ghost is
    integral and each division by n is exact; otherwise they are Fractions."""
    h = _twist(ghost)
    coeffs: list = []
    for n in range(1, len(h) + 1):
        coeffs.append(quotient(sum(map(mul, h, reversed(coeffs)), h[n - 1]), n))
    return coeffs


def _ghost_product(a, b) -> list:
    """Pointwise product of power sums; the e/h reading sign squares away."""
    return [x * y for x, y in zip(eps_ghost(a), eps_ghost(b))]


def eps_product(a, b) -> list:
    """Coefficient vector of prod_{i,j}(1 + X_i Y_j u) given e(X) = a, e(Y) = b.

    Evaluates the universal product polynomials P_n numerically: power
    sums multiply pointwise over the product alphabet {X_i Y_j}.
    """
    return eps_from_ghost(_ghost_product(a, b))


@lru_cache(maxsize=None)
def delta_m(n: int) -> SymFunc:
    """The multiplicative diagonal on the degree-n elementary generator.

    Computed by the primitive route p_k -> p_k (x) p_k and converted to
    e (x) e coordinates; integrality of the result is asserted (it is the
    integrality of the universal product polynomial P_n).
    """
    expansion = SymFunc.generator("e", n).convert("p")
    tensor = SymFunc("p", {(pi, pi): c for pi, c in expansion.coeffs.items()}, arity=2)
    out = tensor.convert("e")
    if not out.is_integral():
        raise IntegralityViolation(f"delta_m({n}) has non-integer coefficients")
    return out


def _lower_set(n: int) -> list[tuple]:
    """S_n = {alpha in N^n : sum_i i*alpha_i <= n}, the multiplicity vectors
    of the partitions of size <= n, smallest size first."""
    return [tuple(pi.count(i) for i in range(1, n + 1)) for k in range(n + 1) for pi in partitions(k)]


def delta_m_dual_route_agrees(n: int) -> bool:
    """Check delta_m(k), k <= n, against the product-polynomial route.

    P_k(a, b) is bihomogeneous of weight k in the a's and in the b's, and
    the keys of delta_m(k) are partitions of k, so each difference lies in
    span{a^alpha b^beta : alpha, beta in S_n} (`_lower_set`); a key of
    weight past n is refused.  A lower set is unisolvent for its own
    monomials at its own integer points (Dyn and Floater, J. Approx.
    Theory 2014: the falling-factorial Newton basis is triangular there),
    and so is the product S_n x S_n.  Evaluating both routes at those
    |S_n|^2 points (361 at n = 5) therefore proves the identities exactly.
    The unisolvence is checked, not assumed: a zero determinant of the
    monomial matrix returns False.
    """
    points = _lower_set(n)
    if _det([[math.prod(map(pow, p, alpha)) for alpha in points] for p in points]) == 0:
        return False
    # per degree k: b-side monomial nu -> [(a-side monomial mu, coefficient)]
    tables = []
    for k in range(1, n + 1):
        by_nu: dict[tuple, list] = {}
        for (mu, nu), c in delta_m(k).coeffs.items():
            if sum(mu) > n or sum(nu) > n:
                return False
            by_nu.setdefault(nu, []).append((mu, c))
        tables.append(by_nu)
    ghosts = [eps_ghost(a) for a in points]

    def monomial(avals, key):
        return math.prod(avals[part - 1] for part in key)

    b_sides = [[[monomial(b, nu) for nu in table] for table in tables] for b in points]
    for a, ga in zip(points, ghosts):
        a_sides = [
            [sum(c * monomial(a, mu) for mu, c in terms) for terms in table.values()]
            for table in tables
        ]
        for gb, b_side in zip(ghosts, b_sides):
            direct = eps_from_ghost(list(map(mul, ga, gb)))
            for value, sa, sb in zip(direct, a_sides, b_side):
                if value != sum(map(mul, sa, sb)):
                    return False
    return True
