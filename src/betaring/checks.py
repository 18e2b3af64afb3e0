"""Verification suites: every acceptance-grade identity in one place,
shared between the command line and the test suite.

Each check returns a list of {identity, status, witness} records with
status "pass" / "fail".  All comparisons are exact.  `run_suites` reports
a suite that raises as one "fail" record and runs the next.
"""

from __future__ import annotations

import itertools
import math
import random
import tempfile
import time
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

from . import catalog, config
from .adams import _report, check_gcd, check_prop_adams, psi_upper, solve_psi_K
from .bring import (
    BElement,
    _component_marks,
    _refine_terms,
    _young_partition,
    beta_regular,
    beta_upper,
    diagonal,
    eval_burnside,
    eval_z,
    product,
    star,
    star_basis,
    sym_catalog,
)
from .burnside import (
    BurnsideElement,
    GSet,
    _quotient_classes,
    beta2_on_gsets,
    beta_on_gset,
    beta_virtual,
    group_catalog,
    induce,
    orbit_decompose,
)
from .catalog import (
    Ambient,
    _assemble,
    _cache_path,
    _load,
    _write_cache,
    build_catalog,
    get_catalog,
    subgroup_count_from_classes,
)
from .errors import IntegralityViolation
from .perms import PermGroup, all_subgroups, are_conjugate, direct_embed, partitions
from .symfunc import (
    SymFunc,
    coproduct,
    cycle_index,
    e_,
    generator_check,
    h_,
    lin,
    lin2,
    plethysm,
    power_sum_mod2_congruence,
)
from .witt import WittVector, delta_m, delta_m_dual_route_agrees, eps_product

EXPECTED_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 19, 6: 56}

# The gset_cap the explicit G-set checks run under; the composition axiom
# skips a case whose tuple space exceeds it.
CHECK_GSET_CAP = 50_000


def standard_groups() -> list[tuple[str, PermGroup]]:
    return [
        ("C2", PermGroup.cyclic(2)),
        ("C3", PermGroup.cyclic(3)),
        ("C4", PermGroup.cyclic(4)),
        ("S3", PermGroup.symmetric(3)),
    ]


def klein_group() -> PermGroup:
    return PermGroup.generate(4, [[1, 0, 2, 3], [0, 1, 3, 2]])


# ---------------------------------------------------------------- catalog


def _brute_force_classes(group: PermGroup) -> tuple[int, int]:
    """Class and subgroup counts by exhaustive scan, no catalog machinery."""
    subs = [PermGroup.from_elements(group.degree, s) for s in all_subgroups(group)]
    reps: list[PermGroup] = []
    for sub in subs:
        if not any(are_conjugate(group, sub, rep) for rep in reps):
            reps.append(sub)
    return len(reps), len(subs)


def check_catalog() -> list[dict]:
    reports = []
    for n, expected in EXPECTED_CLASS_COUNTS.items():
        started = time.monotonic()
        cat = build_catalog(Ambient.sym(n)) if n == 6 else get_catalog(Ambient.sym(n))
        elapsed = time.monotonic() - started
        reports.append(
            _report(
                f"Sym({n}) class count = {expected}",
                len(cat.classes) == expected,
                f"got {len(cat.classes)} in {elapsed:.1f}s",
            )
        )
        consistent = subgroup_count_from_classes(cat) == cat.subgroup_count
        reports.append(
            _report(
                f"Sym({n}) sum [G:N(H)] = direct subgroup count",
                consistent,
                f"{subgroup_count_from_classes(cat)} vs {cat.subgroup_count}",
            )
        )
        if n <= 4:
            classes, subs = _brute_force_classes(cat.group)
            reports.append(
                _report(
                    f"Sym({n}) brute-force scan agrees",
                    classes == len(cat.classes) and subs == cat.subgroup_count,
                    f"scan found {classes} classes / {subs} subgroups",
                )
            )
    reports.append(_check_cache_round_trip())
    reports.append(_check_swapped_factor_classes())
    return reports


def _check_cache_round_trip() -> dict:
    """Each of S1..S5 built, written to a cache file in a temporary
    directory and read back by the loader, which derives every class field."""
    differ = []
    with tempfile.TemporaryDirectory() as directory:
        for n in range(1, 6):
            built = build_catalog(Ambient.sym(n))
            path = Path(directory) / f"S{n}.json"
            _write_cache(path, built)
            loaded = _load(path)
            if loaded is None or loaded.to_json() != built.to_json():
                differ.append(f"S{n}")
    return _report(
        "S1..S5 catalogs read back from a freshly written cache file equal their builds",
        not differ,
        f"differ: {', '.join(differ)}" if differ else "all 5 equal",
    )


def _check_swapped_factor_classes() -> dict:
    """S2xS2's o2-2.1.1-a = <(2 3)> and o2-2.1.1-b = <(0 1)>, exchanged in a
    cache file in a temporary directory, pass every table-of-marks
    invariant.  Their orbit sizes per factor must get the file refused, and
    `get_catalog` must rewrite it as built; the memoized S2xS2 catalog is
    set aside for that call."""
    ambient = Ambient.pair(2, 2)
    built = build_catalog(ambient)
    i, j = built.class_index("o2-2.1.1-a"), built.class_index("o2-2.1.1-b")
    order = list(range(len(built.classes)))
    order[i], order[j] = j, i
    reps = [built.classes[k].rep for k in order]
    matrix = [[built.matrix[r][c] for c in order] for r in order]
    swapped = _assemble(ambient, built.group, reps, matrix, built.subgroup_count)
    with tempfile.TemporaryDirectory() as directory, config.override(catalog_dir=directory):
        path = _cache_path(ambient)
        _write_cache(path, built)
        clean = path.read_text()
        _write_cache(path, swapped)
        refused = _load(path) is None
        memoized = catalog._CATALOGS.pop(ambient, None)
        get_catalog(ambient)
        if memoized is not None:
            catalog._CATALOGS[ambient] = memoized
        rewritten = path.read_text() == clean
    return _report(
        "an S2xS2 cache file with its factor-swapped classes exchanged is refused and rewritten",
        refused and rewritten,
        f"refused: {refused}, rewritten as built: {rewritten}",
    )


# ---------------------------------------------------------------- A(G) axioms


def _transitive_gsets(group: PermGroup) -> list[GSet]:
    return [GSet.coset_space(group, cls.rep) for cls in group_catalog(group).classes]


def _explicit(memo: dict, gname: str, xs, key, points: tuple, decompose: bool = True):
    """X^n/H for one point index, (X^p x Y^q)/L for two: the class key =
    (degrees, index) acting on the G-sets xs[i], i in points, as classes
    read off its orbit labels, or, for one point and `decompose` false, as
    a G-set.  Kept in memo by group name, key and points."""
    memo_key = (gname, key, points, decompose)
    if memo_key not in memo:
        cls = get_catalog(Ambient.prod(key[0])).classes[key[1]]
        factors = [xs[i] for i, d in zip(points, key[0]) for _ in range(d)]
        if not decompose:
            value = beta_on_gset(cls, xs[points[0]])
        else:
            value = _quotient_classes(factors, cls.rep) if factors else BurnsideElement.unit(xs[0].group)
        memo[memo_key] = value
    return memo[memo_key]


def _addition_axiom(explicit, cls, diagonal_terms, points: tuple, union: GSet) -> bool:
    lhs = _quotient_classes([union] * cls.rep.degree, cls.rep)
    rhs = BurnsideElement.zero(union.group)
    for key, c in diagonal_terms:
        rhs = rhs + explicit(key, points).scale(c)
    return lhs == rhs


def _composition_axiom(explicit, hkey, kkey, xi: int) -> bool:
    (key, coeff), = star_basis(hkey, kkey).terms.items()
    assert coeff == 1
    h_cls = sym_catalog(hkey[0]).class_of(hkey[1])
    inner = explicit(((kkey[0],), kkey[1]), (xi,), decompose=False)  # X^n/K, at most 6^3 points
    return explicit(key, (xi,)) == _quotient_classes([inner] * hkey[0], h_cls.rep)


def check_ag_axioms(max_h_degree: int = 3) -> list[dict]:
    """The defining axioms of the operations on A(G), on explicit G-sets.

    Each value of `_explicit` is computed once per call, in a dict local to
    it, keyed by the group's name, class indices and the index of X (and Y)
    in `_transitive_gsets(group)`, never by an `id()`, which a freed G-set
    hands on.  It keeps decompositions and the inner G-sets X^n/K only.
    """
    reports = []
    memo: dict = {}
    with config.override(gset_cap=CHECK_GSET_CAP):
        for gname, group in standard_groups():
            xs = _transitive_gsets(group)
            explicit = partial(_explicit, memo, gname, xs)
            points = range(len(xs))
            unions = {(xi, yi): xs[xi] + xs[yi] for xi in points for yi in points}
            for n in range(1, max_h_degree + 1):
                for idx, cls in enumerate(sym_catalog(n).classes):
                    terms = diagonal(BElement.basis(n, idx)).terms.items()
                    ok = all(
                        _addition_axiom(explicit, cls, terms, xy, union) for xy, union in unions.items()
                    )
                    reports.append(_report(f"addition axiom S{n}:{cls.label} on A({gname})", ok))
            pairs = [
                (m, i, n, j)
                for m in range(1, max_h_degree + 1)
                for n in range(1, max_h_degree + 1)
                if m * n <= config.get_config().max_degree
                for i in range(len(sym_catalog(m).classes))
                for j in range(len(sym_catalog(n).classes))
            ]
            ok = all(
                _composition_axiom(explicit, (m, i), (n, j), xi)
                for m, i, n, j in pairs
                for xi in points
                if xs[xi].size**(m * n) <= CHECK_GSET_CAP
            )
            reports.append(_report(f"composition axiom deg<= {max_h_degree} on A({gname})", ok))
        # product-subgroup rule: beta_{A x B}(X, Y) = beta_A(X) * beta_B(Y)
        for gname, group in [("C2", PermGroup.cyclic(2)), ("C3", PermGroup.cyclic(3))]:
            xs = _transitive_gsets(group)
            explicit = partial(_explicit, memo, gname, xs)
            ok = True
            for p in range(3):
                for q in range(3 - p):
                    pair_cat = get_catalog(Ambient.pair(p, q))
                    for (i, a), (j, b) in itertools.product(
                        enumerate(sym_catalog(p).classes), enumerate(sym_catalog(q).classes)
                    ):
                        key = ((p, q), pair_cat.identify(direct_embed(a.rep, b.rep)))
                        ok = ok and all(
                            explicit(key, (xi, yi))
                            == explicit(((p,), i), (xi,)) * explicit(((q,), j), (yi,))
                            for xi, yi in itertools.product(range(len(xs)), repeat=2)
                        )
            reports.append(_report(f"product-subgroup rule on A({gname})", ok))
        # transfer identity (M|_U x N)^{U -> G} = M x N^{U -> G} on the Klein group
        group = klein_group()
        ok = all(
            orbit_decompose(induce(group, u, m.restrict(u) * n))
            == orbit_decompose(m * induce(group, u, n))
            for u in (ucls.rep for ucls in group_catalog(group).classes)
            for m in _transitive_gsets(group)
            for n in (GSet.coset_space(u, ncls.rep) for ncls in group_catalog(u).classes)
        )
        reports.append(_report("transfer identity on C2xC2", ok))
        # A G-set is its action by element: rows for reversed generators
        # combine as the same action.
        flipped = PermGroup(4, group.generators[::-1], group.elements)
        pair = get_catalog(Ambient.pair(1, 1)).class_of("e")
        both = list(zip(_transitive_gsets(group), _transitive_gsets(flipped)))
        ok = all(
            op(x, y) == op(x, y_flipped) == op(x_flipped, y)
            for x, x_flipped in both
            for y, y_flipped in both
            for op in (GSet.__add__, GSet.__mul__, lambda a, b: beta2_on_gsets(pair, a, b))
        )
        identity = (
            "G-sets over C2xC2 and over C2xC2 with reversed generators add, multiply "
            "and beta2-combine as over C2xC2"
        )
        reports.append(_report(identity, ok))
    return reports


# ---------------------------------------------------------------- operator ring


def _sample_elements() -> list[BElement]:
    return [
        beta_upper(1),
        BElement.basis(2, "S2"),
        beta_regular(2),
        beta_upper(1) + BElement.basis(2, "S2"),
    ]


def check_operator_ring() -> list[dict]:
    reports = []
    e = beta_upper(1)
    b_samples = [
        beta_upper(1),
        BElement.basis(2, "S2"),
        beta_upper(1).scale(2),
        beta_upper(1) + BElement.basis(2, "S2"),
        -beta_upper(1),
        BElement.basis(2, "S2") - beta_upper(1),
    ]
    ok = all(star(a, e) == a and star(e, a) == a for a in _sample_elements())
    reports.append(_report("beta^1 is a two-sided unit for composition", ok))
    ok = all(
        star(a1 + a2, b) == star(a1, b) + star(a2, b)
        and star(product(a1, a2), b) == product(star(a1, b), star(a2, b))
        for a1, a2, b in itertools.product(_sample_elements()[:3], _sample_elements()[:3], b_samples)
        if (a1.max_degree() + a2.max_degree()) * max(b.max_degree(), 1) <= 6
    )
    reports.append(_report("composition is left-additive and left-multiplicative", ok))
    triples = [
        ((2, "S2"), (3, "S3"), (1, 0)),
        ((2, "S2"), (1, 0), (3, "C3")),
        ((1, 0), (2, "S2"), (3, "S3")),
        ((3, "S3"), (2, "S2"), (1, 0)),
        ((2, "S2"), (2, "S2"), (1, 0)),
    ]
    ok = all(
        star(star(a, b), c) == star(a, star(b, c))
        for a, b, c in ([BElement.basis(*key) for key in keys] for keys in triples)
    )
    a = BElement.basis(2, "S2")
    ok = star(a, star(a, -beta_upper(1))) == star(star(a, a), -beta_upper(1)) and ok
    reports.append(_report("composition associates on the test grid", ok))
    basis_pairs = [((1, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 1), (2, 0)), ((2, 1), (2, 1))]
    ok = all(
        diagonal(product(a, b)) == diagonal(a) * diagonal(b)
        for a, b in ((BElement.basis(*ka), BElement.basis(*kb)) for ka, kb in basis_pairs)
    )
    reports.append(_report("diagonal is a ring homomorphism", ok))
    ok = True
    for n in range(1, 5):
        for idx in range(len(sym_catalog(n).classes)):
            direct: dict = {}
            for comp in (c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n):
                for cidx, mult in _refine_terms(Ambient.sym(n), idx, comp):
                    key = (comp, cidx)
                    direct[key] = direct.get(key, 0) + mult
            via_left: dict = {}
            via_right: dict = {}
            for ((p, q), lidx), c in diagonal(BElement.basis(n, idx)).terms.items():
                for p1 in range(p + 1):
                    for cidx, mult in _refine_terms(Ambient.pair(p, q), lidx, (p1, p - p1, q)):
                        key = ((p1, p - p1, q), cidx)
                        via_left[key] = via_left.get(key, 0) + c * mult
                for q1 in range(q + 1):
                    for cidx, mult in _refine_terms(Ambient.pair(p, q), lidx, (p, q1, q - q1)):
                        key = ((p, q1, q - q1), cidx)
                        via_right[key] = via_right.get(key, 0) + c * mult
            if direct != via_left or direct != via_right:
                ok = False
    reports.append(_report("iterated diagonals agree (coassociativity)", ok))
    c3 = PermGroup.cyclic(3)
    x_reg = orbit_decompose(GSet.regular(c3))
    pairs = [
        (BElement.basis(2, "S2"), BElement.basis(2, "S2")),
        (BElement.basis(2, "S2"), beta_upper(1).scale(2)),
        (beta_regular(2), BElement.basis(2, "S2")),
        (BElement.basis(2, "S2"), -beta_upper(1)),
    ]
    ok = all(eval_burnside(star(a, b), x_reg) == eval_burnside(a, eval_burnside(b, x_reg)) for a, b in pairs)
    reports.append(_report("eval on A(C3) is a composition action", ok))
    return reports


# ---------------------------------------------------------------- adams


def check_adams(nmax: int = 5) -> list[dict]:
    reports = []
    for n in range(1, nmax + 1):
        try:
            table = solve_psi_K(n)
            reports.append(_report(f"Psi_K system solves integrally for n={n}", True))
        except IntegralityViolation as exc:  # a reportable failure; a cap ends the suite
            reports.append(_report(f"Psi_K system solves integrally for n={n}", False, str(exc)))
            continue
        if n == 2:
            ok = table.element("e") == beta_regular(2) and table.element("S2") == psi_upper(2)
            reports.append(
                _report("n=2 closed values Psi_e = b_e, Psi_S2 = 2 b_S2 - b_e", ok)
            )
    for n in range(1, min(nmax, 5) + 1):
        sub = check_prop_adams(n)
        bad = [r for r in sub if r["status"] == "fail"]
        reports.append(
            _report(
                f"averaging and cyclic relations hold for n={n}",
                not bad,
                f"{len(sub)} identities" if not bad else repr(bad[:2]),
            )
        )
    for k, l in ((2, 2), (2, 3), (3, 2)):
        diff = star(psi_upper(k), psi_upper(l)) - psi_upper(k * l)
        by_class = zip(sym_catalog(k * l).classes, _component_marks(diff).get(k * l, ()))
        support = [(cls, m) for cls, m in by_class if m]
        ok = all(len(cls.ptype) == 1 and not cls.rep.is_cyclic() for cls, _ in support)
        reports.append(
            _report(
                f"Psi^{k} o Psi^{l} - Psi^{k * l} is nonzero, lin 0, marks on noncyclic transitive classes",
                ok and not diff.is_zero() and lin(diff).is_zero(),
                "marks " + ", ".join(f"{cls.label}: {m}" for cls, m in support),
            )
        )
    return reports


# ---------------------------------------------------------------- adams on A(G)


def two_groups() -> list[tuple[str, PermGroup]]:
    """D4 on the corners of a square and C2 x C2 x C2 on three pairs."""
    return [
        ("D4", PermGroup.generate(4, [[1, 2, 3, 0], [3, 2, 1, 0]])),
        ("C2xC2xC2", PermGroup.generate(6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]])),
    ]


def moved_by_psi(group: PermGroup, k: int) -> list[str]:
    """The elements [G/H] and [G/H] - [G/G] of A(G) whose marks Psi^k
    changes, named by class label."""
    cat = group_catalog(group)
    unit = BurnsideElement.unit(group)
    moved = []
    for cls in cat.classes:
        x = BurnsideElement.basis(group, cls.index)
        for y, name in ((x, cls.label), (x - unit, f"{cls.label} - G")):
            if eval_burnside(psi_upper(k), y).marks() != y.marks():
                moved.append(name)
    return moved


def klein_psi2_marks() -> tuple[int, int, bool]:
    """For X = V4/L1 and Y = V4/L2, two different subgroups of order 2:
    the marks at V4 of Psi^2(XY) and of Psi^2(X) Psi^2(Y), and whether
    Psi^2(X + Y) = Psi^2(X) + Psi^2(Y)."""
    v4 = klein_group()
    cat = group_catalog(v4)
    l1, l2 = (cat.identify(PermGroup.generate(4, [g])) for g in ([1, 0, 2, 3], [0, 1, 3, 2]))
    x, y = BurnsideElement.basis(v4, l1), BurnsideElement.basis(v4, l2)
    px, py = (eval_burnside(psi_upper(2), z) for z in (x, y))
    whole = cat.classes[-1].index
    return (
        eval_burnside(psi_upper(2), x * y).marks()[whole],
        (px * py).marks()[whole],
        eval_burnside(psi_upper(2), x + y) == px + py,
    )


def check_adams_ag() -> list[dict]:
    """The paper's Adams operations on A(G) where G is not cyclic.  A
    K-orbit's size divides |K|, so for a 2-group and odd k, Psi^k fixes
    every mark (the mod-2 shadow).  Psi^2 is additive on A(V4) but not
    multiplicative."""
    reports = []
    for name, group in two_groups():
        for k in (3, 5):
            moved = moved_by_psi(group, k)
            reports.append(
                _report(f"Psi^{k} fixes every mark on A({name})", not moved, ", ".join(moved[:3]))
            )
    marks = klein_psi2_marks()
    reports.append(
        _report(
            "Psi^2 is additive but not multiplicative on A(V4)",
            marks == (0, 4, True),
            f"marks at V4: Psi^2(XY) {marks[0]}, Psi^2(X) Psi^2(Y) {marks[1]}",
        )
    )
    return reports


# ---------------------------------------------------------------- polya


def check_polya(max_product: int = 6) -> list[dict]:
    """Polya's plethysm identity, lin on diagonals and h monomials.  The cycle
    index of each class is computed once per call, by degree and index."""
    reports = []
    indices = {m: [cycle_index(c.rep) for c in sym_catalog(m).classes] for m in range(1, max_product + 1)}
    pairs = [
        (m, i, n, j)
        for m in range(1, max_product + 1)
        for n in range(1, max_product // m + 1)
        for i in range(len(indices[m]))
        for j in range(len(indices[n]))
    ]
    ok = all(lin(star_basis((m, i), (n, j))) == plethysm(indices[m][i], indices[n][j]) for m, i, n, j in pairs)
    reports.append(
        _report(
            f"lin(beta_H * beta_K composition) = plethysm, products <= {max_product}",
            ok,
            f"{len(pairs)} class pairs",
        )
    )
    target = SymFunc(
        "p",
        {
            (1, 1, 1, 1): Fraction(1, 8),
            (2, 1, 1): Fraction(1, 4),
            (2, 2): Fraction(3, 8),
            (4,): Fraction(1, 4),
        },
    )
    instance = lin(star_basis((2, "S2"), (2, "S2")))
    reports.append(
        _report(
            "lin(S2 composed with S2) = h2 o h2 = (p1^4 + 2p1^2p2 + 3p2^2 + 2p4)/8",
            instance == target and plethysm(h_(2), h_(2)) == target,
        )
    )
    ok = all(
        lin2(diagonal(a)) == coproduct(lin(a))
        for n in range(6)
        for a in (BElement.basis(n, idx) for idx in range(len(sym_catalog(n).classes)))
    )
    reports.append(_report("lin intertwines the two diagonals (degree <= 5)", ok))
    ok = all(
        lin(reduce(product, map(beta_upper, pi), BElement.one()))
        == math.prod(map(h_, pi), start=SymFunc.one("h"))
        for n in range(1, 7)
        for pi in partitions(n)
    )
    reports.append(_report("h_pi classes realize every h monomial (degree <= 6)", ok))
    return reports


# ---------------------------------------------------------------- beta on Z


def _orbit_count_on_tuples(group: PermGroup, r: int) -> int:
    """Independent oracle: count H-orbits on maps {1..n} -> {1..r} by scan."""
    n = group.degree
    inv_gens = [g.inverse() for g in group.generators]
    seen = set()
    orbits = 0
    for t in itertools.product(range(r), repeat=n):
        if t in seen:
            continue
        orbits += 1
        frontier = [t]
        seen.add(t)
        while frontier:
            new = []
            for u in frontier:
                for ginv in inv_gens:
                    v = tuple(u[ginv[i]] for i in range(n))
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
            frontier = new
    return orbits


def check_beta_z() -> list[dict]:
    reports = []
    ok = all(
        eval_z(BElement.basis(n, idx), r) == _orbit_count_on_tuples(cls.rep, r)
        for n in range(1, 5)
        for idx, cls in enumerate(sym_catalog(n).classes)
        for r in range(5)
    )
    reports.append(_report("eval on Z matches direct orbit counting (n<=4, r<=4)", ok))
    trivial = PermGroup.trivial(1)
    cat = group_catalog(trivial)
    s2 = sym_catalog(2).class_of("S2")
    ok = all(beta_virtual(s2, BurnsideElement(cat, [-r])).coords[0] == (r * r - r) // 2 for r in range(6))
    reports.append(_report("Newton-extrapolated negatives: beta_S2(-r) = (r^2 - r)/2", ok))
    ok = True
    for h in [(2, "S2"), (3, "S3"), (2, "e")]:
        n = h[0]
        values = [eval_z(BElement.basis(*h), r) for r in range(n + 3)]
        diffs = values
        for _ in range(n):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        top = list(diffs)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not any(top) or any(diffs):
            ok = False
    reports.append(_report("beta_H has polynomial degree exactly deg(H)", ok))
    bad = []
    with config.override(gset_cap=CHECK_GSET_CAP):
        for k in range(2, 7):
            cat = group_catalog(PermGroup.cyclic(k))
            for j in range(len(cat.classes)):
                x = BurnsideElement.basis(cat.group, j)
                for n in range(1, 5):
                    for idx, cls in enumerate(sym_catalog(n).classes):
                        if eval_burnside(BElement.basis(n, idx), x) != beta_virtual(cls, x):
                            bad.append(f"S{n}:{cls.label} on [C{k}/{cat.classes[j].label}]")
    identity = "eval on A(C2..C6) through marks equals the explicit route (n<=4)"
    reports.append(_report(identity, not bad, repr(bad[:2])))
    young = [(n, c) for n in range(1, 7) for c in sym_catalog(n).classes if _young_partition(c) is not None]
    bad, compared = [], 0
    with config.override(gset_cap=CHECK_GSET_CAP):
        for name, x in young_eval_cases():
            for n, cls in young:
                if n <= 3 and explicit_points(n, x) <= CHECK_GSET_CAP:
                    compared += 1
                    if eval_burnside(BElement.basis(n, cls.index), x) != beta_virtual(cls, x):
                        bad.append(f"S{n}:{cls.label} on {name}")
    identity = "Young classes on A(S3), A(V4), A(S4) from orbit sizes equal the explicit route (n<=3)"
    reports.append(_report(identity, not bad, repr(bad[:2]) if bad else f"{compared} cases"))
    elements = [(f"S{n}:{cls.label}", n, BElement.basis(n, cls.index)) for n, cls in young]
    elements += [(f"Psi^{k}", k, psi_upper(k)) for k in range(1, 7)]
    bad, compared = [], 0
    for name, x in young_eval_cases():
        for label, n, a in elements:
            if explicit_points(n, x) > CHECK_GSET_CAP:
                compared += 1
                if eval_burnside(a, x).size() != eval_z(a, x.size()):
                    bad.append(f"{label} on {name}")
    identity = "size of eval on A(S3), A(V4), A(S4) equals eval_z past the cap (Young, Psi^k, n<=6)"
    reports.append(_report(identity, not bad, repr(bad[:2]) if bad else f"{compared} cases"))
    return reports


def young_eval_cases():
    """Each [G/H] and [G/H] - [G/G] (H < G) of A(S3), A(V4) and A(S4), named."""
    groups = (("S3", PermGroup.symmetric(3)), ("V4", klein_group()), ("S4", PermGroup.symmetric(4)))
    for name, group in groups:
        unit = BurnsideElement.unit(group)
        for cls in group_catalog(group).classes:
            x = BurnsideElement.basis(group, cls.index)
            yield f"[{name}/{cls.label}]", x
            if x != unit:
                yield f"[{name}/{cls.label}] - [{name}/{name}]", x - unit


def explicit_points(n: int, x: BurnsideElement) -> int:
    """The largest tuple space `beta_virtual` builds for a degree-n class at
    x = plus - minus: (|plus| + n |minus|)^n, the last Newton point."""
    plus = BurnsideElement(x.catalog, [max(c, 0) for c in x.coords]).size()
    minus = BurnsideElement(x.catalog, [max(-c, 0) for c in x.coords]).size()
    return (plus + n * minus) ** n


# ---------------------------------------------------------------- gcd, mod2


def check_gcd_suite(kmax: int = 6) -> list[dict]:
    reports = []
    groups = standard_groups() + [("C2xC2", klein_group())]
    with config.override(gset_cap=CHECK_GSET_CAP):
        for name, group in groups:
            bad = [r for k in range(1, kmax + 1) for r in check_gcd(group, k) if r["status"] == "fail"]
            reports.append(
                _report(f"Psi^k = Psi^gcd(k,|G|) on A({name}), k <= {kmax}", not bad, repr(bad[:2]))
            )
        c3 = PermGroup.cyclic(3)
        x = orbit_decompose(GSet.regular(c3))
        reports.append(
            _report("Psi^2 is the identity on A(C3)", eval_burnside(psi_upper(2), x) == x)
        )
    return reports


def check_mod2() -> list[dict]:
    return [
        _report(f"p_(2^{r}) = p_1^(2^{r}) mod 2 in h coordinates", power_sum_mod2_congruence(r))
        for r in (1, 2, 3)
    ]


# ---------------------------------------------------------------- lambda ring


def check_lambda_structure(nmax: int = 6) -> list[dict]:
    reports = []
    for n in range(1, nmax + 1):
        result = generator_check(n)
        reports.append(
            _report(
                f"e/h transition unimodular in degree {n}",
                result["unimodular"],
                f"dets {result['det_e_in_h']}, {result['det_h_in_e']}",
            )
        )
    ok = all(
        coproduct(b(n))
        == sum((SymFunc.tensor(b(p), b(n - p)) for p in range(n + 1)), SymFunc.zero("p", arity=2))
        for n in range(nmax + 1)
        for b in (h_, e_)
    )
    reports.append(_report(f"diagonal of h_n and e_n is the full convolution (n <= {nmax})", ok))
    return reports


# ---------------------------------------------------------------- witt


def check_witt(samples: int = 100, seed: int = 2024) -> list[dict]:
    reports = []
    rng = random.Random(seed)
    prec = 8

    def rand():
        return WittVector([rng.randint(-9, 9) for _ in range(prec)], prec)

    ok_ring = True
    ok_int = True
    zero = WittVector.zero(prec)
    one = WittVector.one(prec)
    for _ in range(samples):
        a, b, c = rand(), rand(), rand()
        if (a + b) + c != a + (b + c) or a + b != b + a or a + zero != a or a - a != zero:
            ok_ring = False
        ab = a * b
        if ab != b * a or (ab * c) != a * (b * c) or a * one != a:
            ok_ring = False
        if a * (b + c) != ab + a * c:
            ok_ring = False
        if not ab.is_integral():
            ok_int = False
    reports.append(_report(f"Witt ring axioms at precision {prec} on {samples} random vectors", ok_ring))
    reports.append(_report("products of integer vectors are integral", ok_int))
    ok = all(
        eps_product([Fraction(a)], [Fraction(b)])[0] == a * b
        for a in range(-3, 4)
        for b in range(-3, 4)
    )
    reports.append(_report("first product polynomial is a1*b1", ok))
    ok_ghost = True
    for _ in range(20):
        a, b = rand(), rand()
        ga, gb = a.ghost(), b.ghost()
        if tuple(x + y for x, y in zip(ga, gb)) != (a + b).ghost():
            ok_ghost = False
        if tuple(x * y for x, y in zip(ga, gb)) != (a * b).ghost():
            ok_ghost = False
    reports.append(_report("ghost map is a ring homomorphism", ok_ghost))
    reports.append(_report("second-diagonal dual routes agree through degree 5", delta_m_dual_route_agrees(5)))
    ok = all(delta_m(n).is_integral() for n in range(1, 9))
    reports.append(_report("product polynomials are integral through degree 8", ok))
    ok = True
    for n in range(1, 6):
        left, right = Counter(), Counter()
        for (mu, nu), c in delta_m(n).coeffs.items():
            for (m1, m2), c2 in _delta_m_of_monomial(mu).coeffs.items():
                left[m1, m2, nu] += c * c2
            for (m1, m2), c2 in _delta_m_of_monomial(nu).coeffs.items():
                right[mu, m1, m2] += c * c2
        ok = ok and {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}
    reports.append(_report("second diagonal is coassociative on generators (degree <= 5)", ok))
    return reports


def _delta_m_of_monomial(pi) -> SymFunc:
    acc = SymFunc("e", {((), ()): 1}, arity=2)
    for part in pi:
        acc = acc * delta_m(part)
    return acc


# ---------------------------------------------------------------- registry

SUITES = {
    "catalog": lambda n=None: check_catalog(),
    "beta-z": lambda n=None: check_beta_z(),
    "lambda": lambda n=None: check_lambda_structure(6 if n is None else n),
    "axioms-AG": lambda n=None: check_ag_axioms(3 if n is None else n),
    "operator-ring": lambda n=None: check_operator_ring(),
    "adams": lambda n=None: check_adams(5 if n is None else n),
    "adams-AG": lambda n=None: check_adams_ag(),
    "polya": lambda n=None: check_polya(6 if n is None else n),
    "witt": lambda n=None: check_witt(),
    "mod2": lambda n=None: check_mod2(),
    "gcd": lambda n=None: check_gcd_suite(6 if n is None else n),
}


def _check_request(names, n=None) -> None:
    """ValueError for a depth n < 1, KeyError for a name not in SUITES."""
    if n is not None and n < 1:
        raise ValueError(f"depth n must be at least 1, got {n}")
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")


def run_suites(names, n=None) -> dict[str, list[dict]]:
    """Each named suite's reports, at depth n (each suite's default for
    None); ValueError for n < 1 and KeyError for an unknown name, before
    any suite runs."""
    _check_request(names, n)
    out = {}
    for name in names:
        try:
            out[name] = SUITES[name](n)
        except Exception as exc:  # one FAIL line, and the next suite still runs
            out[name] = [_report(f"{name} suite ran to completion", False, f"{type(exc).__name__}: {exc}")]
    return out
