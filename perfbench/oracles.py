"""Independent oracles for the benchmark's correctness gate.

Nothing here reuses the code paths it checks: orbit counts are made by
scanning tuples, cycle indices by counting cycles of each element, the
Witt product by multiplying power series of a known alphabet, and
plethysm in the power-sum basis from its definition.  Results of the
library are inspected only through lin / lin2 / coproduct / eval_z,
class labels and representatives, and equality with values built here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import betaring as br

from workloads import CLASS_COUNTS, SUBGROUP_COUNTS

# sha256 of [labels, marks matrix] for every cold-catalog ambient, computed
# by tom_digest at commit 6dd3582 (the commit this benchmark was written on).
PINNED_TOM = json.loads((Path(__file__).parent / "pinned_marks.json").read_text())


def tom_digest(catalog) -> str:
    labels = [cls.label for cls in catalog.classes]
    matrix = [list(row) for row in catalog.matrix]
    return hashlib.sha256(json.dumps([labels, matrix]).encode()).hexdigest()


def descriptor(degrees) -> str:
    return "x".join(f"S{d}" for d in degrees)


def _rep(n: int, idx: int):
    return br.get_catalog(br.Ambient.sym(n)).classes[idx].rep


@lru_cache(maxsize=None)
def _cycle_census(n: int, idx: int) -> tuple[int, tuple]:
    """(|H|, ((cycle lengths of g), ...)) for the class representative H."""
    elems = []
    for g in _rep(n, idx):
        images = g.images
        seen = [False] * n
        lengths = []
        for start in range(n):
            if not seen[start]:
                length = 0
                pt = start
                while not seen[pt]:
                    seen[pt] = True
                    pt = images[pt]
                    length += 1
                lengths.append(length)
        elems.append(tuple(sorted(lengths, reverse=True)))
    return len(elems), tuple(elems)


def orbit_count(group, r: int) -> int:
    """H-orbits on maps {0..n-1} -> {0..r-1}, by breadth-first scan."""
    n = group.degree
    gens = [g.images for g in group.generators]
    seen = set()
    orbits = 0
    for t in itertools.product(range(r), repeat=n):
        if t in seen:
            continue
        orbits += 1
        seen.add(t)
        frontier = [t]
        while frontier:
            nxt = []
            for u in frontier:
                for g in gens:
                    v = tuple(u[g[i]] for i in range(n))
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
    return orbits


@lru_cache(maxsize=None)
def class_orbits(n: int, idx: int, r: int) -> int:
    return orbit_count(_rep(n, idx), r)


def terms_orbits(terms, r: int) -> int:
    """beta evaluated at a nonnegative integer r, by direct orbit counting."""
    return sum(c * class_orbits(n, i, r) for n, i, c in terms)


def terms_poly(terms, x: int) -> Fraction:
    """The counting polynomial (1/|H|) sum_g x^cycles(g), valid for any integer x."""
    total = Fraction(0)
    for n, i, c in terms:
        order, census = _cycle_census(n, i)
        total += Fraction(c * sum(x ** len(lengths) for lengths in census), order)
    return total


def cycle_index_data(terms) -> dict:
    """Power-sum coefficients of the cycle index of a class combination."""
    out: dict = {}
    for n, i, c in terms:
        order, census = _cycle_census(n, i)
        for lengths in census:
            out[lengths] = out.get(lengths, 0) + Fraction(c, order)
    return out


def cycle_index(terms) -> br.SymFunc:
    return br.SymFunc("p", cycle_index_data(terms))


def symfunc_data(data) -> dict:
    out: dict = {}
    for parts, num, den in data:
        key = tuple(sorted(parts, reverse=True))
        out[key] = out.get(key, 0) + Fraction(num, den)
    return out


def plethysm_p(f: dict, g: dict) -> dict:
    """p_lambda o g = prod_i g(p_j -> p_{j * lambda_i}), extended linearly."""
    out: dict = {}
    for lam, c in f.items():
        acc = {(): Fraction(1)}
        for part in lam:
            scaled = {tuple(part * q for q in mu): w for mu, w in g.items()}
            step: dict = {}
            for a, ca in acc.items():
                for b, cb in scaled.items():
                    key = tuple(sorted(a + b, reverse=True))
                    step[key] = step.get(key, 0) + ca * cb
            acc = step
        for key, w in acc.items():
            out[key] = out.get(key, 0) + c * w
    return out


def witt_from_roots(roots, precision: int) -> list[int]:
    """h_1..h_N of the alphabet `roots`: the series prod 1/(1 - x t)."""
    series = [1] + [0] * precision
    for x in roots:
        for n in range(1, precision + 1):
            series[n] += x * series[n - 1]
    return series[1:]


def element_order(images) -> int:
    n = 1
    identity = tuple(range(len(images)))
    acc = images
    while acc != identity:
        acc = tuple(acc[i] for i in images)
        n += 1
    return n


@lru_cache(maxsize=None)
def psi_expected(n: int) -> tuple:
    """lin(Psi_K) for every class K of S_n: 0 unless K is cyclic, and
    (|N(K)| / z_pi) p_pi for cyclic K generated by an element of type pi."""
    sym = br.PermGroup.symmetric(n)
    out = []
    for idx in range(CLASS_COUNTS[n]):
        rep = _rep(n, idx)
        gen = next((g for g in rep if element_order(g.images) == rep.order), None)
        if gen is None:
            out.append(br.SymFunc.zero("p"))
            continue
        pi = gen.cycle_type()
        weight = Fraction(br.normalizer_order(sym, rep), pi.centralizer_order())
        out.append(br.SymFunc.monomial("p", pi, weight))
    return tuple(out)


def check_catalog(degrees, cat) -> bool:
    if tom_digest(cat) != PINNED_TOM[descriptor(degrees)]:
        return False
    if len(degrees) == 1:
        n = degrees[0]
        return len(cat.classes) == CLASS_COUNTS[n] and cat.subgroup_count == SUBGROUP_COUNTS[n]
    return True


def check(call, result) -> bool:
    """True when `result` is the right answer to `call`."""
    family = call[0]
    if family == "get_catalog":
        return check_catalog(tuple(call[1]), result)
    if family == "suite":
        return bool(result) and all(r["status"] != "fail" for r in result)
    if family == "identify":
        n, gens = call[1], call[2]
        h = br.PermGroup.generate(n, gens)
        rep = _rep(n, result)
        return rep.order == h.order and br.perms.are_conjugate(br.PermGroup.symmetric(n), h, rep)
    if family == "product":
        a, b = call[1], call[2]
        expected = cycle_index(a) * cycle_index(b)
        return br.lin(result) == expected and all(
            br.eval_z(result, r) == terms_orbits(a, r) * terms_orbits(b, r) for r in range(4)
        )
    if family == "diagonal":
        return br.lin2(result) == br.coproduct(cycle_index(call[1]))
    if family == "star_basis":
        m, i, n, j = call[1:]
        expected = plethysm_p(cycle_index_data([[m, i, 1]]), cycle_index_data([[n, j, 1]]))
        return br.lin(result) == br.SymFunc("p", expected)
    if family == "star":
        a, b = call[1], call[2]
        for r in range(4):
            if br.eval_z(result, r) != terms_poly(a, terms_orbits(b, r)):
                return False
        expected = plethysm_p(cycle_index_data(a), cycle_index_data(b))
        return br.lin(result) == br.SymFunc("p", expected)
    if family == "eval_z":
        return result == terms_orbits(call[1], call[2])
    if family == "eval_burnside":
        terms, k, idx = call[1:]
        size = br.BurnsideElement.basis(br.PermGroup.cyclic(k), idx).size()
        return result.size() == terms_orbits(terms, size)
    if family == "lin":
        return result == cycle_index(call[1])
    if family == "plethysm":
        expected = plethysm_p(symfunc_data(call[1]), symfunc_data(call[2]))
        return result == br.SymFunc("p", expected)
    if family == "solve_psi_K":
        n = call[1]
        expected = psi_expected(n)
        return len(result.psi) == len(expected) and all(
            br.lin(result.element(k)) == expected[k] for k in range(len(expected))
        )
    if family == "psi_upper":
        k = call[1]
        return br.lin(result) == br.p_(k) and all(br.eval_z(result, r) == r for r in range(4))
    if family == "witt_mul":
        xs, ys, prec = call[1:]
        expected = witt_from_roots([x * y for x in xs for y in ys], prec)
        return result == br.WittVector(expected, prec)
    raise ValueError(f"no oracle for {family!r}")
