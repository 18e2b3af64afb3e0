"""Adams operations: the log-derivative elements Psi^k and Psi_pi, the
per-class operations Psi_K solved from the marks system, and the
verification batteries for their interrelations.

The class operations are normalized by the marks system
beta_H = sum_K phi(K)/||K|| Psi_K itself, so each Psi_K is ||K|| times
the corresponding Moebius-style operation in the older normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bring import BElement, beta_upper, eval_burnside, product, sym_catalog
from .burnside import BurnsideElement, group_catalog
from .catalog import Catalog
from .errors import IntegralityViolation
from .perms import Partition, PermGroup, partitions
from .symfunc import SymFunc, lin


@lru_cache(maxsize=None)
def psi_upper(k: int) -> BElement:
    """Coefficient of t^k in t * d/dt log(1 + b^1 t + b^2 t^2 + ...).

    Newton's recursion in the graded ring: Psi^k = k b^k - sum Psi^i b^{k-i}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return BElement.zero()
    acc = beta_upper(k).scale(k)
    for i in range(1, k):
        acc = acc - product(psi_upper(i), beta_upper(k - i))
    return acc


def psi_partition(pi) -> BElement:
    """Psi_pi = prod_i Psi^{n_i}; a pure degree-|pi| element."""
    pi = pi if isinstance(pi, Partition) else Partition(pi)
    acc = BElement.one()
    for part in pi.parts:
        acc = product(acc, psi_upper(part))
    return acc


@dataclass(frozen=True)
class AdamsTable:
    """Solutions Psi_K of the marks system over one symmetric group."""

    n: int
    catalog: Catalog
    psi: tuple[tuple[int, ...], ...]  # psi[K][H]: coefficient of beta_H in Psi_K

    def element(self, spec) -> BElement:
        k = self.catalog.class_index(spec)
        return BElement({((self.n,), h): c for h, c in enumerate(self.psi[k]) if c})

    def to_json(self):
        return {
            "n": self.n,
            "entries": [
                {"K_label": cls.label, "beta_coeffs": list(self.psi[i])}
                for i, cls in enumerate(self.catalog.classes)
            ],
        }


def solve_psi_K(n: int) -> AdamsTable:
    """Invert beta_H = sum_K (1/||K||) phi_{S_n/H}(K) Psi_K over the classes.

    The coefficient matrix A[H][K] = mark(H, K)/||K|| is triangular with
    nonzero diagonal, so the solution exists and is unique over the
    rationals; integrality of every Psi_K is asserted, not rounded.  The
    solve runs in integers: with L the lcm of the ||K||, the row of A for
    H is (1/L) times the integers mark(H, K) * (L/||K||), and every
    division must leave no remainder.
    """
    cat = sym_catalog(n)
    size = len(cat.classes)
    lcm, rows = _scaled_marks(cat)
    lower = [[(j, w) for j, w in row_w if j < row] for row, row_w in enumerate(rows)]
    diag = [cat.matrix[k][k] * (lcm // cls.norm_order) for k, cls in enumerate(cat.classes)]
    inv = [[0] * size for _ in range(size)]
    for col in range(size):
        # forward substitution on the lower-triangular system L A x = L e_col;
        # rows above col have x = 0
        x = [0] * size
        for row in range(col, size):
            acc = lcm if row == col else 0
            for j, w in lower[row]:
                acc -= w * x[j]
            quotient, remainder = divmod(acc, diag[row])
            if remainder:
                raise IntegralityViolation(f"Psi_{cat.classes[row].label} is not integral")
            x[row] = quotient
        for row in range(size):
            inv[row][col] = x[row]
    # Psi_K = sum_H inv[K][H] beta_H comes from transposing the solve
    table = AdamsTable(n, cat, tuple(tuple(row) for row in inv))
    _verify_substitution(table)
    return table


def _scaled_marks(cat: Catalog):
    """L = lcm of the normalizer orders, and for each row H the nonzero
    integers mark(H, K) * (L/||K||) as (K, value) pairs: L times A."""
    lcm = math.lcm(*(cls.norm_order for cls in cat.classes))
    rows = [
        [(k, m * (lcm // cat.classes[k].norm_order)) for k, m in enumerate(row) if m]
        for row in cat.matrix
    ]
    return lcm, rows


def _verify_substitution(table: AdamsTable):
    """Substituting the solutions back must reproduce every beta_H exactly:
    sum_K mark(H, K) (L/||K||) Psi_K = L beta_H, in integers."""
    cat = table.catalog
    size = len(cat.classes)
    lcm, rows = _scaled_marks(cat)
    for h in range(size):
        recovered = [0] * size
        for k, w in rows[h]:
            for j, c in enumerate(table.psi[k]):
                if c:
                    recovered[j] += w * c
        expect = [lcm if j == h else 0 for j in range(size)]
        if recovered != expect:
            raise IntegralityViolation("back substitution failed; catalog inconsistent")


def check_prop_adams(n: int) -> list[dict]:
    """Both parts of the averaging/cyclic relations between the Adams elements.

    Part 1: Psi_pi = sum over classes of partition-type pi of
    (||pi|| / ||H||) Psi_H, an exact identity with rational weights.
    Part 2: under the linearization, non-cyclic classes give zero and a
    cyclic class C gives (||C|| / ||pi_C||) p_{pi_C}.
    """
    table = solve_psi_K(n)
    cat = table.catalog
    reports = []
    for pi in partitions(n):
        expected = psi_partition(pi)
        acc = BElement.zero()
        znorm = pi.centralizer_order()
        for cls in cat.classes:
            if cls.ptype == pi:
                acc = acc + table.element(cls.index).scale(Fraction(znorm, cls.norm_order))
        status = acc == expected
        reports.append(
            {
                "identity": f"part1 n={n} pi={pi.parts}",
                "status": "pass" if status else "fail",
                "witness": repr(acc) if not status else "",
            }
        )
    for cls in cat.classes:
        image = lin(table.element(cls.index))
        if cls.rep.is_cyclic():
            znorm = cls.ptype.centralizer_order()
            target = SymFunc.monomial("p", cls.ptype, Fraction(cls.norm_order, znorm))
            status = image == target
        else:
            status = image.is_zero()
        reports.append(
            {
                "identity": f"part2 n={n} K={cls.label}" + (" (cyclic)" if cls.rep.is_cyclic() else ""),
                "status": "pass" if status else "fail",
                "witness": repr(image) if not status else "",
            }
        )
    return reports


def check_gcd(group: PermGroup, k: int) -> list[dict]:
    """Psi^k = Psi^gcd(k, |G|) as operations on A(G), on every [G/H]."""
    d = math.gcd(k, group.order)
    reports = []
    cat = group_catalog(group)
    if d == k:
        reports.append(
            {
                "identity": f"gcd |G|={group.order} k={k}",
                "status": "pass",
                "witness": "d = k, trivial",
            }
        )
        return reports
    pk = psi_upper(k)
    pd = psi_upper(d)
    for cls in cat.classes:
        x = BurnsideElement.basis(group, cls.index)
        lhs = eval_burnside(pk, x)
        rhs = eval_burnside(pd, x)
        status = lhs == rhs
        reports.append(
            {
                "identity": f"gcd |G|={group.order} k={k} d={d} on [G/{cls.label}]",
                "status": "pass" if status else "fail",
                "witness": f"{lhs!r} vs {rhs!r}" if not status else "",
            }
        )
    return reports
