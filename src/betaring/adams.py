"""Adams operations: the log-derivative elements Psi^k and Psi_pi, the
per-class operations Psi_K, and the verification batteries for their
interrelations.  Psi^k and Psi_K are read off their marks by the one
integer triangular solve, `BurnsideElement.from_marks`:

- phi_K(Psi^k) = k when K <= S_k is transitive, else 0: a mark of a graded
  product sums over the K-stable splittings of the points, so Newton's
  identity k b^k = sum_i Psi^i b^{k-i} at K reads k = sum over the K-orbits
  O of phi_{K|O}(Psi^{|O|}), and induction on k leaves one orbit.
- Psi_K solves beta_H = sum_K phi_{S_n/H}(K)/||K|| Psi_K, so its marks are
  ||K|| = |N(K)| at K and 0 elsewhere: Psi_K = ||K|| e_K for the primitive
  idempotent e_K, integral by Gluck's idempotent formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bring import BElement, eval_burnside, product, sym_catalog
from .burnside import BurnsideElement, group_catalog
from .catalog import Catalog
from .errors import IntegralityViolation
from .perms import Partition, PermGroup, partitions
from .symfunc import SymFunc, lin


def psi_upper(k: int) -> BElement:
    """Coefficient of t^k in t * d/dt log(1 + b^1 t + b^2 t^2 + ...): the
    degree-k element with mark k at the transitive classes and 0 elsewhere."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cat = sym_catalog(k)
    marks = [k if cls.ptype == (k,) else 0 for cls in cat.classes]
    coords = BurnsideElement.from_marks(cat, marks).coords
    return BElement({((k,), h): c for h, c in enumerate(coords) if c})


def psi_partition(pi) -> BElement:
    """Psi_pi = prod_i Psi^{n_i}; a pure degree-|pi| element."""
    acc = BElement.one()
    for part in Partition(pi):
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
    """Solve beta_H = sum_K (1/||K||) phi_{S_n/H}(K) Psi_K: Psi_K has marks
    ||K|| at K and 0 elsewhere, and the exact solve asserts its integrality."""
    cat = sym_catalog(n)
    rows = []
    for cls in cat.classes:
        marks = [0] * len(cat.classes)
        marks[cls.index] = cls.norm_order
        try:
            rows.append(BurnsideElement.from_marks(cat, marks).coords)
        except IntegralityViolation:
            raise IntegralityViolation(f"Psi_{cls.label} is not integral") from None
    return AdamsTable(n, cat, tuple(rows))


def _report(identity: str, ok: bool, witness: str = "") -> dict:
    """One check record, as every verification suite returns them."""
    return {"identity": identity, "status": "pass" if ok else "fail", "witness": witness}


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
        ok = acc == expected
        reports.append(_report(f"part1 n={n} pi={pi.parts}", ok, "" if ok else repr(acc)))
    for cls in cat.classes:
        image = lin(table.element(cls.index))
        cyclic = cls.rep.is_cyclic()
        if cyclic:
            znorm = cls.ptype.centralizer_order()
            ok = image == SymFunc.monomial("p", cls.ptype, Fraction(cls.norm_order, znorm))
        else:
            ok = image.is_zero()
        identity = f"part2 n={n} K={cls.label}" + (" (cyclic)" if cyclic else "")
        reports.append(_report(identity, ok, "" if ok else repr(image)))
    return reports


def check_gcd(group: PermGroup, k: int) -> list[dict]:
    """Psi^k = Psi^gcd(k, |G|) as operations on A(G), on every [G/H]."""
    d = math.gcd(k, group.order)
    if d == k:
        return [_report(f"gcd |G|={group.order} k={k}", True, "d = k, trivial")]
    pk = psi_upper(k)
    pd = psi_upper(d)
    reports = []
    for cls in group_catalog(group).classes:
        x = BurnsideElement.basis(group, cls.index)
        lhs = eval_burnside(pk, x)
        rhs = eval_burnside(pd, x)
        ok = lhs == rhs
        identity = f"gcd |G|={group.order} k={k} d={d} on [G/{cls.label}]"
        reports.append(_report(identity, ok, "" if ok else f"{lhs!r} vs {rhs!r}"))
    return reports
