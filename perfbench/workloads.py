"""Seeded call lists for the three workloads, as plain JSON-able data.

Nothing here imports betaring: the pass process receives only the
generated calls.  A call is a list whose first entry names its family;
the remaining entries are its arguments.  Class arguments are
(degree, class index, coefficient) triples, with class counts taken from
OEIS A000638 rather than from the catalog under test.
"""

from __future__ import annotations

import json
import random

# Conjugacy classes of subgroups of S_n (OEIS A000638) and subgroup counts
# (OEIS A005432), n = 0..6.
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 19, 6: 56}
SUBGROUP_COUNTS = {0: 1, 1: 1, 2: 2, 3: 6, 4: 30, 5: 156, 6: 1455}

WORKLOADS = ("cold-catalog", "warm-mix", "check-suite")

# Every ambient the degree <= 6 operations read: S1..S6 and S_p x S_q with
# p + q <= 6 (zero factors included; the diagonal restricts to them).
COLD_AMBIENTS = [(n,) for n in range(1, 7)] + [
    (p, q) for p in range(7) for q in range(7) if p + q <= 6
]

# The seven suites present in checks.SUITES at the seed commit, named so
# that suites added later do not change what this workload runs.
CHECK_SUITES = ("axioms-AG", "operator-ring", "adams", "polya", "witt", "mod2", "gcd")

# warm-mix: calls per pass for each family, and the degrees they cycle
# through.  Counts are fixed (only arguments are drawn), so every pass does
# comparable work whatever the seed.  At the seed commit no family takes
# more than half a pass: solve_psi_K is unmemoized (S6 costs ~0.3 s a call)
# and is held to two calls per degree; diagonal and identify carry the lazy
# S6-sized group tables (~1.5 s per process), the latency tail the catalog
# layer is judged on.  The counts also place the two reported percentiles
# inside dense blocks of similar calls, so they read the same from seed to
# seed: the median among the many cheap eval_z / lin / plethysm calls (the
# symfunc path), the 95th percentile among the 80 identify calls on S6.
MIX = {
    "identify": (160, (5, 6)),
    "product": (40, ((1, 5), (2, 4), (3, 3), (2, 2), (1, 3), (2, 3))),
    "diagonal": (24, (3, 4, 5, 6)),
    "star_basis": (32, ((2, 3), (3, 2), (2, 2), (1, 6), (6, 1), (3, 1))),
    "star": (16, ((1, "b1-S2"), (2, "b1-S2"), (3, "S2-b1"), (2, "-b1"), (3, "-b1"), (4, "-b1"), (2, "e2-b1"), (3, "-S2"))),
    "eval_z": (400, (3, 4, 5, 6)),
    "eval_burnside": (96, (2, 3, 4, 6)),
    "lin": (400, (3, 4, 5, 6)),
    "plethysm": (400, ((1, 2), (2, 2), (2, 3), (3, 2))),
    "solve_psi_K": (12, (1, 2, 3, 4, 5, 6)),
    "psi_upper": (24, (1, 2, 3, 4, 5, 6)),
    "witt_mul": (80, (8,)),
}

# Virtual second arguments of star: (degree, class index, coefficient) terms.
VIRTUAL = {
    "b1-S2": [[1, 0, 1], [2, 1, -1]],
    "S2-b1": [[2, 1, 1], [1, 0, -1]],
    "-b1": [[1, 0, -1]],
    "e2-b1": [[2, 0, 1], [1, 0, -1]],
    "-S2": [[2, 1, -1]],
}

# Cyclic groups C_k for eval_burnside, with their class counts (divisors of k).
CYCLIC = {2: 2, 3: 2, 4: 3}


def _basis(rng, n):
    return [[n, rng.randrange(CLASS_COUNTS[n]), 1]]


def _element(rng, n):
    """A basis class, or (one time in four) a nonzero two-term combination."""
    terms = _basis(rng, n)
    if rng.random() < 0.25 and CLASS_COUNTS[n] > 1:
        other = rng.choice([i for i in range(CLASS_COUNTS[n]) if i != terms[0][1]])
        terms.append([n, other, rng.choice((-2, -1, 2))])
    return terms


def _symfunc(rng, degree):
    """p-basis data: up to three partitions of `degree` with small coefficients."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        parts = []
        left = degree
        while left:
            part = rng.randint(1, left)
            parts.append(part)
            left -= part
        terms.append([sorted(parts, reverse=True), rng.randint(-3, 3) or 1, rng.choice((1, 2, 3))])
    return terms


def _generators(rng, n):
    gens = []
    for _ in range(rng.choice((1, 1, 2))):
        perm = list(range(n))
        rng.shuffle(perm)
        gens.append(perm)
    return gens


def _call(rng, family, stratum):
    if family == "identify":
        return [family, stratum, _generators(rng, stratum)]
    if family == "product":
        n, m = stratum
        return [family, _element(rng, n), _element(rng, m)]
    if family == "diagonal":
        return [family, _element(rng, stratum)]
    if family == "star_basis":
        m, n = stratum
        return [family, m, rng.randrange(CLASS_COUNTS[m]), n, rng.randrange(CLASS_COUNTS[n])]
    if family == "star":
        n, name = stratum
        return [family, _basis(rng, n), VIRTUAL[name]]
    if family == "eval_z":
        return [family, _element(rng, stratum), rng.randint(0, 3)]
    if family == "eval_burnside":
        k = rng.choice(sorted(CYCLIC))
        return [family, _basis(rng, stratum), k, rng.randrange(CYCLIC[k])]
    if family == "lin":
        return [family, _element(rng, stratum)]
    if family == "plethysm":
        df, dg = stratum
        return [family, _symfunc(rng, df), _symfunc(rng, dg)]
    if family in ("solve_psi_K", "psi_upper"):
        return [family, stratum]
    if family == "witt_mul":
        return [
            family,
            [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
            [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
            stratum,
        ]
    raise ValueError(family)


def calls_for(workload: str, seed: int, pass_index: int) -> list[list]:
    """The calls of one pass.  warm-mix draws a new list for every pass of a
    run (from the seed and the pass index), so a run samples many arguments;
    the other two workloads repeat one fixed list."""
    if workload == "cold-catalog":
        return [["get_catalog", list(a)] for a in COLD_AMBIENTS]
    if workload == "check-suite":
        return [["suite", name] for name in CHECK_SUITES]
    if workload != "warm-mix":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed * 1000 + pass_index)
    calls = []
    for family, (count, strata) in MIX.items():
        for k in range(count):
            calls.append(_call(rng, family, strata[k % len(strata)]))
    rng.shuffle(calls)
    return calls


def repeat_share(calls) -> float:
    """Share of calls whose arguments already appeared earlier in the pass."""
    seen = set()
    repeats = 0
    for call in calls:
        key = json.dumps(call)
        repeats += key in seen
        seen.add(key)
    return repeats / len(calls)
