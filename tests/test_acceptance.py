"""Acceptance battery: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the failure output) and asserts that every sub-check passed.
"""

from betaring import checks


def _run(number, description, reports):
    failures = [r for r in reports if r["status"] == "fail"]
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:>2} {verdict} - {description}")
    for r in failures:
        print(f"    failing: {r['identity']} {r['witness']}")
    assert not failures, f"criterion {number}: {failures[:3]}"


def test_c01_catalog_class_counts():
    _run(1, "subgroup-class counts for S_1..S_6 with independent cross-checks", checks.check_catalog())


def test_c02_burnside_ring_axioms():
    _run(2, "addition and composition axioms on A(G) for explicit G-sets", checks.check_ag_axioms())


def test_c03_adams_solver_integral():
    reports = [
        r
        for r in checks.check_adams(nmax=5)
        if "solves integrally" in r["identity"] or "closed values" in r["identity"]
    ]
    assert len(reports) >= 6
    _run(3, "class-operation solver integral for n <= 5 with n = 2 closed form", reports)


def test_c04_averaging_and_cyclic_relations():
    reports = [
        r for r in checks.check_adams(nmax=5) if "relations hold" in r["identity"]
    ]
    assert len(reports) == 5
    _run(4, "averaging and cyclic relations for every partition of n <= 5", reports)


def test_c05_composition_linearizes_to_plethysm():
    _run(5, "linearization turns composition into plethysm (products <= 6)", checks.check_polya())


def test_c06_counting_polynomial_on_integers():
    _run(6, "value on Z matches direct orbit counts; extrapolated negatives", checks.check_beta_z())


def test_c07_gcd_identity():
    _run(7, "Psi^k = Psi^gcd(k,|G|) on A(G) for the five test groups, k <= 6", checks.check_gcd_suite())


def test_c08_mod2_congruence():
    _run(8, "p_(2^r) = p_1^(2^r) mod 2 in h coordinates, r <= 3", checks.check_mod2())


def test_c09_lambda_ring_structure():
    _run(9, "unimodular e/h transitions and convolution diagonals, n <= 6", checks.check_lambda_structure())


def test_c10_witt_ring():
    _run(10, "Witt ring axioms, product integrality, second-diagonal agreement", checks.check_witt())
