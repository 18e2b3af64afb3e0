from fractions import Fraction

from betaring.adams import check_gcd, check_prop_adams, psi_partition, psi_upper, solve_psi_K
from betaring.bring import BElement, beta_regular, beta_upper, eval_z, product, sym_catalog
from betaring.perms import PermGroup, partitions
from betaring.symfunc import lin, p_


def test_psi_small():
    assert psi_upper(1) == beta_upper(1)
    assert psi_upper(2) == BElement.basis(2, "S2").scale(2) - beta_regular(2)


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
