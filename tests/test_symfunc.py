import itertools
import math
import random
from fractions import Fraction

import pytest

from betaring import config
from betaring.bring import BElement, beta_regular, beta_upper, diagonal, product, star_basis
from betaring.errors import DegreeCap
from betaring.perms import Partition, PermGroup, partitions
from betaring.symfunc import (
    SymFunc,
    coproduct,
    cycle_index,
    e_,
    generator_check,
    h_,
    lin,
    lin2,
    p_,
    plethysm,
    power_sum_mod2_congruence,
)
from betaring.witt import delta_m


def test_degree_one_generators_coincide():
    assert h_(1) == p_(1) == e_(1)


def test_newton_examples():
    assert p_(2).convert("h") == SymFunc("h", {(2,): 2, (1, 1): -1})
    assert h_(2).convert("p") == SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert p_(2).convert("e") == SymFunc("e", {(1, 1): 1, (2,): -2})


def test_roundtrips_through_degree_eight():
    for n in range(1, 9):
        for pi in partitions(n):
            f = SymFunc.monomial("h", pi)
            assert f.convert("p").convert("e").convert("h") == f
            g = SymFunc.monomial("e", pi)
            assert g.convert("p").convert("h").convert("e") == g


def test_multiplication_merges_partitions():
    assert h_(1) * h_(1) == SymFunc.monomial("h", (1, 1))
    f = SymFunc.monomial("p", (2, 1))
    g = SymFunc.monomial("p", (3,))
    assert f * g == SymFunc.monomial("p", (3, 2, 1))


def test_coproduct_examples():
    expected = (
        SymFunc.tensor(h_(2), SymFunc.one())
        + SymFunc.tensor(h_(1), h_(1))
        + SymFunc.tensor(SymFunc.one(), h_(2))
    )
    assert coproduct(h_(2)) == expected
    primitive = SymFunc.tensor(p_(3), SymFunc.one()) + SymFunc.tensor(SymFunc.one(), p_(3))
    assert coproduct(p_(3)) == primitive


def test_coproduct_multiplicities():
    # p_(1,1) needs the binomial weight on the middle term
    f = SymFunc.monomial("p", (1, 1))
    result = coproduct(f)
    middle = result.coeffs[(Partition([1]), Partition([1]))]
    assert middle == 2


def test_plethysm_power_sum_laws():
    assert plethysm(p_(2), p_(3)) == p_(6)
    for f in (e_(3), h_(4), p_(2) * p_(1)):
        assert plethysm(f, p_(1)) == f
    g = h_(2)
    lhs = plethysm(p_(2) * p_(3), g)
    rhs = plethysm(p_(2), g) * plethysm(p_(3), g)
    assert lhs == rhs
    assert plethysm(p_(2) + p_(3), g) == plethysm(p_(2), g) + plethysm(p_(3), g)


def test_plethysm_h2_h2():
    target = SymFunc(
        "p",
        {
            (1, 1, 1, 1): Fraction(1, 8),
            (2, 1, 1): Fraction(1, 4),
            (2, 2): Fraction(3, 8),
            (4,): Fraction(1, 4),
        },
    )
    assert plethysm(h_(2), h_(2)) == target


def test_plethysm_associativity_grid():
    samples = [p_(1), p_(2), h_(2), e_(2)]
    for f in samples:
        for g in samples:
            for h in samples:
                degree = (
                    max(f.degrees() or {0})
                    * max(g.degrees() or {0})
                    * max(h.degrees() or {0})
                )
                if degree > 8:
                    continue
                assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


def test_cycle_index_values():
    s2 = PermGroup.symmetric(2)
    assert cycle_index(s2) == h_(2)
    assert cycle_index(PermGroup.trivial(2)) == SymFunc.monomial("p", (1, 1))


def test_lin_examples():
    assert lin(BElement.basis(2, "S2")) == h_(2)
    assert lin(beta_regular(2)) == SymFunc.monomial("p", (1, 1))
    d4 = lin(star_basis((2, "S2"), (2, "S2")))
    assert d4 == plethysm(h_(2), h_(2))
    assert lin(beta_upper(3)) == h_(3)
    assert lin(BElement.one()) == SymFunc.one()


def test_lin_is_a_ring_homomorphism():
    keys = [(1, 0), (2, 0), (2, 1), (3, 1)]
    for ka in keys:
        for kb in keys:
            a, b = BElement.basis(*ka), BElement.basis(*kb)
            assert lin(product(a, b)) == lin(a) * lin(b)
    a = BElement.basis(2, "S2") - beta_upper(1).scale(3)
    b = beta_regular(2)
    assert lin(a + b) == lin(a) + lin(b)


def test_lin_intertwines_diagonals():
    for key in [(2, 0), (2, 1), (3, 1), (3, 3), (4, 2)]:
        a = BElement.basis(*key)
        assert lin2(diagonal(a)) == coproduct(lin(a))


def test_lin_effective_elements_are_integral_in_h():
    rng = random.Random(9)
    keys = [((1,), 0), ((2,), 0), ((2,), 1), ((3,), 0), ((3,), 2), ((4,), 5)]
    for _ in range(10):
        terms = {k: rng.randint(0, 3) for k in rng.sample(keys, 3)}
        image = lin(BElement(terms)).convert("h")
        assert image.is_integral()


def test_lin_checks_the_degree_cap_past_its_cache():
    a, b = BElement.basis(6, 3), BElement.basis((3, 3), 0)
    assert lin(a).degrees() == {6} and lin2(b).degrees() == {6}  # cached at the default cap
    with config.override(max_degree=5):
        with pytest.raises(DegreeCap):
            lin(a)
        with pytest.raises(DegreeCap):
            lin2(b)
        assert lin(BElement.basis(5, 3)).degrees() == {5}


def test_cycle_index_pair_split():
    from betaring.catalog import Ambient, get_catalog

    cat = get_catalog(Ambient.pair(2, 1))
    full = cat.classes[-1]
    z = cycle_index(full.rep, (2, 1))
    assert z == SymFunc.tensor(h_(2), h_(1))


def test_operations_across_arities_raise():
    square = coproduct(h_(2))
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g):
        with pytest.raises(ValueError):
            op(h_(2), square)
    for call in (lambda: plethysm(square, p_(1)), lambda: plethysm(p_(2), square), lambda: coproduct(square)):
        with pytest.raises(ValueError):
            call()
    assert h_(2) != square and SymFunc.zero() != SymFunc.zero(arity=2)


def test_lin2_rejects_other_arities():
    b = BElement.basis(2, "S2")
    with pytest.raises(ValueError):
        lin2(b)
    mixed = diagonal(b) + beta_upper(1)
    with pytest.raises(ValueError):
        lin2(mixed)
    with pytest.raises(ValueError):
        lin(mixed)
    assert lin2(BElement.zero()) == SymFunc.zero(arity=2)


def test_generator_check_unimodular():
    for n in range(1, 7):
        assert generator_check(n)["unimodular"]


def test_rational_spanning_by_power_sums():
    # h <-> p transition is invertible over Q in each degree
    from betaring.symfunc import _det

    for n in range(1, 7):
        pis = sorted(partitions(n), key=lambda pi: pi.parts)
        col = {pi: i for i, pi in enumerate(pis)}
        rows = []
        for pi in pis:
            vec = [Fraction(0)] * len(pis)
            for mu, c in SymFunc.monomial("h", pi).convert("p").coeffs.items():
                vec[col[mu]] = c
            rows.append(vec)
        assert _det(rows) != 0


def _leibniz_det(rows):
    """Sum over permutations: the reference for small matrices."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(rows, perm))
    return total


def test_det_matches_the_leibniz_formula():
    """Bareiss elimination, with ints kept ints, on integer, rational and
    singular matrices up to 5 x 5."""
    from betaring.symfunc import _det

    rng = random.Random(29)
    for size in range(6):
        for trial in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            if size > 1 and trial % 3 == 0:
                rows[-1] = [2 * x for x in rows[0]]
            if trial % 4 == 1:
                rows = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in rows]
            det = _det(rows)
            assert det == _leibniz_det(rows)
            assert type(det) is int or trial % 4 == 1


def test_mod2_congruence():
    for r in (1, 2, 3):
        assert power_sum_mod2_congruence(r)


def test_json_roundtrip():
    f = h_(2) * h_(1) - p_(3).scale(Fraction(1, 3))
    again = SymFunc.from_json(f.to_json())
    assert again == f and again.basis == f.basis


def test_component_and_coefficient():
    f = h_(2) + h_(1) * h_(1)
    assert f.component(2) == f
    assert f.coefficient((2,)) == 1
    assert f.coefficient((1, 1)) == 1
    assert f.coefficient((3,)) == 0


def test_arity_two_json_degrees_component_and_coefficient():
    for f in (coproduct(h_(3)), delta_m(3)):
        data = f.to_json()
        assert data["arity"] == 2 and all(len(t["partitions"]) == 2 for t in data["terms"])
        again = SymFunc.from_json(data)
        assert again == f and (again.basis, again.arity) == (f.basis, 2)
    assert "arity" not in h_(3).to_json()
    assert delta_m(2).degrees() == {4}
    f = coproduct(h_(3)) + SymFunc.tensor(h_(1), SymFunc.one("h"))
    assert f.degrees() == {1, 3}
    assert f.component(3) == coproduct(h_(3)) and f.component(3).arity == 2
    assert f.component(1) == SymFunc.tensor(h_(1), SymFunc.one("h"))
    assert f.component(2).is_zero() and f.component(2).arity == 2
    assert f.coefficient(((2,), (1,))) == 1 and f.coefficient(((), (3,))) == 1
    assert f.coefficient(((1,), ())) == 1 and f.coefficient(((1,), (1,))) == 0
    with pytest.raises(ValueError):
        f.coefficient(((2, 1),))


def test_arity_two_keys_with_integer_factors_raise_value_error():
    f = coproduct(h_(3))
    with pytest.raises(ValueError):
        f.coefficient((2, 1))
    with pytest.raises(ValueError):
        SymFunc("h", {(2, 1): 1}, arity=2)
    data = f.to_json()
    data["terms"][0]["partitions"] = [2, 1]
    with pytest.raises(ValueError):
        SymFunc.from_json(data)
    assert f.coefficient(((2,), (1,))) == 1


def _integer_function(rng, basis):
    """Two terms of one degree in 3..5, integer coefficients."""
    pis = rng.sample(list(partitions(rng.randint(3, 5))), 2)
    return SymFunc(basis, {pi: rng.choice((-3, -2, -1, 1, 2, 3)) for pi in pis})


def _ints(f):
    return all(type(c) is int for c in f.coeffs.values())


def test_integral_coefficients_are_ints():
    """The exact.norm_coeff rule: an int when integral, a Fraction only
    where a division is inexact."""
    rng = random.Random(14)
    keys = [((2,), 1), ((3,), 0), ((3,), 2), ((4,), 5), ((5,), 3)]
    for _ in range(10):
        for basis in ("e", "h", "p"):
            f, g = _integer_function(rng, basis), _integer_function(rng, basis)
            assert all(_ints(r) for r in (f + g, f - g, f * g, f.scale(-2), f.scale(Fraction(4, 2))))
        f, g = _integer_function(rng, "h"), _integer_function(rng, "e")
        assert all(_ints(r) for r in (f.convert("e"), g.convert("h"), f + g, g * f))
        f, g = _integer_function(rng, "p"), _integer_function(rng, "p")
        assert _ints(plethysm(f, g)) and _ints(coproduct(f))
        image = lin(BElement({k: rng.randint(0, 3) for k in rng.sample(keys, 3)})).convert("h")
        assert _ints(image)
    half = Fraction(1, 2)
    assert type(h_(2).convert("p").coefficient((2,))) is Fraction
    assert type(lin(BElement.basis(2, "S2")).coefficient((1, 1))) is Fraction
    assert p_(1).scale(half).coefficient((1,)) == half
    assert type((p_(1).scale(half) + p_(1).scale(half)).coefficient((1,))) is int
    assert type(h_(3).coefficient((2, 1))) is int
