import dataclasses
import os
from fractions import Fraction

import pytest

from betaring import adams, checks, config
from betaring.adams import check_gcd, check_prop_adams, psi_partition, psi_upper, solve_psi_K
from betaring.bring import (
    BElement,
    beta_regular,
    beta_upper,
    eval_burnside,
    eval_z,
    product,
    sym_catalog,
)
from betaring.burnside import BurnsideElement, GSet, group_catalog
from betaring.catalog import Catalog
from betaring.checks import klein_group, klein_psi2_marks, moved_by_psi, two_groups
from betaring.errors import DegreeCap, IntegralityViolation
from betaring.perms import PermGroup, Permutation, partitions
from betaring.symfunc import lin, p_


def test_psi_small():
    assert psi_upper(1) == beta_upper(1)
    assert psi_upper(2) == BElement.basis(2, "S2").scale(2) - beta_regular(2)


def test_degree_cap_holds_after_psi_upper_is_cached():
    """The cap is checked outside the cache: after psi_upper(4) at the
    default cap, the same call under max_degree 3 still raises."""
    assert len(psi_upper(4).terms) == 5
    with config.override(max_degree=3):
        with pytest.raises(DegreeCap):
            psi_upper(4)
        assert psi_upper(3) == psi_partition([3])


def test_lin_of_psi_is_power_sum():
    for k in range(1, 7):
        assert lin(psi_upper(k)) == p_(k)


def test_psi_partition_examples():
    assert psi_partition([1, 1]) == beta_regular(2)
    assert psi_partition([2]) == psi_upper(2)
    composite = psi_partition([2, 1])
    assert composite == product(psi_upper(2), beta_upper(1))
    assert composite.degrees() == {3}
    for pi in partitions(4):
        assert lin(psi_partition(pi)) == _p_monomial(pi)


def _p_monomial(pi):
    from betaring.symfunc import SymFunc

    return SymFunc.monomial("p", pi)


def _psi_by_fraction_solve(cat):
    """psi[K][H]: the inverse of A[H][K] = mark(H, K)/||K|| by forward
    substitution in exact rationals, one column at a time."""
    size = len(cat.classes)
    a = [
        [Fraction(cat.matrix[h][k], cat.classes[k].norm_order) for k in range(size)]
        for h in range(size)
    ]
    inv = [[Fraction(0)] * size for _ in range(size)]
    for col in range(size):
        x = [Fraction(0)] * size
        for row in range(size):
            acc = Fraction(int(row == col)) - sum(a[row][j] * x[j] for j in range(row))
            x[row] = acc / a[row][row]
        for row in range(size):
            inv[row][col] = x[row]
    return inv


def test_integer_solve_matches_fraction_solve():
    for n in range(7):
        table = solve_psi_K(n)
        assert [list(row) for row in table.psi] == _psi_by_fraction_solve(table.catalog)
        assert all(type(c) is int for row in table.psi for c in row)


def test_solve_n2_closed_values():
    table = solve_psi_K(2)
    assert table.element("e") == beta_regular(2)
    assert table.element("S2") == BElement.basis(2, "S2").scale(2) - beta_regular(2)
    assert table.element("S2") == psi_upper(2)
    assert table.element("e") == psi_partition([1, 1])


def test_solver_integral_through_five():
    for n in range(1, 6):
        table = solve_psi_K(n)
        assert all(isinstance(c, int) for row in table.psi for c in row)


def test_marks_system_is_uniquely_solvable():
    for n in range(1, 6):
        cat = sym_catalog(n)
        det = 1
        for i in range(len(cat.classes)):
            det *= Fraction(cat.matrix[i][i], cat.classes[i].norm_order)
        assert det != 0


def test_prop_adams_small_degrees():
    for n in range(1, 5):
        reports = check_prop_adams(n)
        assert all(r["status"] == "pass" for r in reports), reports


def test_noncyclic_classes_vanish_under_lin():
    table = solve_psi_K(4)
    cat = table.catalog
    noncyclic = [cls for cls in cat.classes if not cls.rep.is_cyclic()]
    assert noncyclic
    for cls in noncyclic:
        assert lin(table.element(cls.index)).is_zero()


def test_gcd_reports():
    c3 = PermGroup.cyclic(3)
    for k in (2, 4, 5):
        assert all(r["status"] == "pass" for r in check_gcd(c3, k))
    trivial = PermGroup.trivial(1)
    assert all(r["status"] == "pass" for r in check_gcd(trivial, 5))


def test_eval_z_of_psi_is_rank_one():
    for k in range(1, 7):
        for r in range(-3, 4):
            assert eval_z(psi_upper(k), r) == r


def test_adams_table_json():
    table = solve_psi_K(2)
    data = table.to_json()
    assert data["n"] == 2
    assert data["entries"][1]["beta_coeffs"] == [-1, 2]


def _adams_groups():
    return [
        PermGroup.cyclic(2),
        PermGroup.cyclic(3),
        PermGroup.cyclic(4),
        PermGroup.symmetric(3),
        klein_group(),
    ]


def _psi_marks(k, x):
    return eval_burnside(psi_upper(k), x).marks()


def test_psi_marks_count_points_whose_orbit_size_divides_k():
    """phi_K(Psi^k X) = #{x in X : |K.x| divides k}, with the right side
    counted from K-orbits on the explicit coset spaces."""
    cases = 0
    for group in _adams_groups():
        cat = group_catalog(group)
        for h in cat.classes:
            gset = GSet.coset_space(group, h.rep)
            x = BurnsideElement.basis(group, h.index)
            for k in (2, 3):
                marks = _psi_marks(k, x)
                for kc in cat.classes:
                    actions = [gset.elem_action[g] for g in kc.rep.elements]
                    orbit_sizes = [len({act[p] for act in actions}) for p in range(gset.size)]
                    assert marks[kc.index] == sum(1 for s in orbit_sizes if k % s == 0)
                    cases += 1
    assert cases == 116


def test_psi_at_cyclic_marks_is_the_mark_at_the_kth_power():
    """phi_<g>(Psi^k X) = phi_<g^k>(X): multiplicative at cyclic marks."""
    cases = 0
    for group in _adams_groups():
        cat = group_catalog(group)

        def cyclic_class(g):
            return cat.identify(PermGroup.generate(group.degree, [g]))

        for h in cat.classes:
            x = BurnsideElement.basis(group, h.index)
            for k in (2, 3):
                psi, plain = _psi_marks(k, x), x.marks()
                for g in group:
                    gk = Permutation.identity(group.degree)
                    for _ in range(k):
                        gk = gk * g
                    assert psi[cyclic_class(g.images)] == plain[cyclic_class(gk.images)]
                    cases += 1
    assert cases == 132


def test_psi_is_not_multiplicative_on_a_burnside_ring():
    """Psi^3(x^2) != Psi^3(x)^2 for x = [S3/C2], at the S3 mark (3 against 9)."""
    s3 = PermGroup.symmetric(3)
    cat = group_catalog(s3)
    c2 = next(c for c in cat.classes if c.order == 2)
    x = BurnsideElement.basis(s3, c2.index)
    psi = psi_upper(3)
    square_first = eval_burnside(psi, x * x).marks()[-1]
    psi_first = eval_burnside(psi, x)
    assert cat.classes[-1].order == 6
    assert (square_first, (psi_first * psi_first).marks()[-1]) == (3, 9)


def _psi_by_newton(top):
    """Psi^k = k b^k - sum_{0<i<k} Psi^i b^{k-i}, the log-derivative
    definition, multiplied out in the graded ring for k <= top."""
    psi = [BElement.zero()]
    for k in range(1, top + 1):
        acc = beta_upper(k).scale(k)
        for i in range(1, k):
            acc = acc - product(psi[i], beta_upper(k - i))
        psi.append(acc)
    return psi


def test_psi_upper_marks_are_k_at_transitive_classes():
    for k in range(7):
        cat = sym_catalog(k)
        coords = [psi_upper(k).terms.get(((k,), h), 0) for h in range(len(cat.classes))]
        marks = BurnsideElement(cat, coords).marks()
        # transitive: the orbit of point 0 is every point
        transitive = [k and len({e[0] for e in cls.rep.elements}) == k for cls in cat.classes]
        assert list(marks) == [k if t else 0 for t in transitive]


def test_psi_upper_matches_newton_recursion():
    assert [psi_upper(k) for k in range(7)] == _psi_by_newton(6)


def test_psi_K_marks_are_the_normalizer_order_at_K():
    for n in range(7):
        table = solve_psi_K(n)
        cat = table.catalog
        for cls in cat.classes:
            marks = BurnsideElement(cat, table.psi[cls.index]).marks()
            expect = [0] * len(cat.classes)
            expect[cls.index] = cls.norm_order
            assert list(marks) == expect


def test_non_integral_psi_K_names_its_class(monkeypatch):
    """With ||C2|| doctored to 1 in S3, Psi_C2 = e_C2 has marks (0, 1, 0, 0),
    which no integer combination of coset spaces has."""
    cat = sym_catalog(3)
    classes = [dataclasses.replace(c, norm_order=1) if c.order == 2 else c for c in cat.classes]
    doctored = Catalog(cat.ambient, cat.group, classes, cat.matrix, cat.subgroup_count)
    monkeypatch.setattr(adams, "sym_catalog", lambda n: doctored)
    with pytest.raises(IntegralityViolation, match="Psi_o2-"):
        solve_psi_K(3)


def test_composed_adams_elements_differ_from_the_product_in_the_kernel_of_lin():
    """Psi^k o Psi^l != Psi^{kl}, but the difference linearizes to 0 and its
    marks sit at noncyclic transitive classes: three of S4 for (2, 2) and
    nine of S6 each for (2, 3) and (3, 2)."""
    reports = [r for r in checks.check_adams(nmax=1) if " o Psi^" in r["identity"]]
    assert [r["status"] for r in reports] == ["pass"] * 3
    assert reports[0]["witness"] == "marks o4-4-b: 8, o12-4: -4, o24-4: -4"
    assert [r["witness"].count(":") for r in reports] == [3, 9, 9]


@pytest.mark.skipif(
    not os.environ.get("BETARING_LONG_TESTS"),
    reason="a few seconds; set BETARING_LONG_TESTS=1 to run",
)
def test_degree_seven_adams_elements():
    with config.override(max_degree=7):
        assert psi_upper(7) == _psi_by_newton(7)[7]
        table = solve_psi_K(7)
    assert [list(row) for row in table.psi] == _psi_by_fraction_solve(table.catalog)


@pytest.mark.parametrize("k", [3, 5])
def test_odd_adams_operations_fix_every_mark_of_a_two_group(k):
    """A K-orbit's size divides |K|, a power of 2, so phi_K(Psi^k X) =
    phi_K(X) for odd k: Psi^k is the identity on A(D4) and on
    A(C2 x C2 x C2), for each [G/H] and [G/H] - [G/G]."""
    groups = dict(two_groups())
    assert [g.order for g in groups.values()] == [8, 8] and not groups["D4"].is_cyclic()
    for group in groups.values():
        assert moved_by_psi(group, k) == []


def test_psi_two_is_not_multiplicative_on_the_klein_group():
    """X = V4/L1 and Y = V4/L2 for two different subgroups of order 2: at
    V4, Psi^2(XY) has mark 0 and Psi^2(X) Psi^2(Y) has mark 4, while
    Psi^2(X + Y) = Psi^2(X) + Psi^2(Y)."""
    assert klein_psi2_marks() == (0, 4, True)


def test_psi_two_moves_marks_of_a_two_group():
    """The odd-k statement is not vacuous: Psi^2 moves some mark of each."""
    for _, group in two_groups():
        assert moved_by_psi(group, 2)


def _composition_misses(group, outer, inner, k):
    """How many basis classes [G/H] of A(G) have Psi^outer(Psi^inner X) != Psi^k X."""
    misses = 0
    for cls in group_catalog(group).classes:
        x = BurnsideElement.basis(group, cls.index)
        composed = eval_burnside(psi_upper(outer), eval_burnside(psi_upper(inner), x))
        misses += composed != eval_burnside(psi_upper(k), x)
    return misses


def _composition_groups():
    return {
        "V4": klein_group(),
        "S3": PermGroup.symmetric(3),
        **dict(two_groups()),
        "S4": PermGroup.symmetric(4),
    }


def test_psi_two_after_psi_three_is_psi_six_on_small_groups():
    """Psi^2 o Psi^3 = Psi^6 on every basis class of A(V4), A(S3), A(D4) and
    A(C2 x C2 x C2), each evaluated through the orbit-size route."""
    groups = _composition_groups()
    for name in ("V4", "S3", "D4", "C2xC2xC2"):
        assert _composition_misses(groups[name], 2, 3, 6) == 0, name


def test_adams_compositions_differ_from_the_composite_index():
    """Psi^k o Psi^l != Psi^kl on exactly these many basis classes: Psi^2 o
    Psi^2 on 1 of 5 (V4), 4 of 8 (D4) and 8 of 16 (C2 x C2 x C2); Psi^3 o
    Psi^2 on 2 of 4 (S3); Psi^2 o Psi^3 on 3 of 11 (S4)."""
    groups = _composition_groups()
    cases = {
        ("V4", 2, 2, 4): 1,
        ("D4", 2, 2, 4): 4,
        ("C2xC2xC2", 2, 2, 4): 8,
        ("S3", 3, 2, 6): 2,
        ("S4", 2, 3, 6): 3,
    }
    counts = {name: len(group_catalog(g).classes) for name, g in groups.items()}
    assert counts == {"V4": 5, "S3": 4, "D4": 8, "C2xC2xC2": 16, "S4": 11}
    for (name, outer, inner, k), misses in cases.items():
        assert _composition_misses(groups[name], outer, inner, k) == misses, (name, outer, inner)


def test_adams_ag_suite_reports_each_statement(monkeypatch):
    """Five lines, all passing; Psi^2 read as the identity fails the V4 line."""
    reports = checks.run_suites(["adams-AG"])["adams-AG"]
    assert [r["status"] for r in reports] == ["pass"] * 5
    assert reports[-1]["witness"] == "marks at V4: Psi^2(XY) 0, Psi^2(X) Psi^2(Y) 4"
    monkeypatch.setattr(checks, "eval_burnside", lambda a, x: x)
    reports = checks.check_adams_ag()
    assert [r["status"] for r in reports] == ["pass"] * 4 + ["fail"]
