import random
from fractions import Fraction

import pytest

from betaring.errors import PrecisionMismatch
from betaring.symfunc import SymFunc, e_, p_
from betaring.witt import (
    WittVector,
    delta_m,
    delta_m_dual_route_agrees,
    eps_from_ghost,
    eps_ghost,
    eps_product,
)


def test_addition_is_series_multiplication():
    v = WittVector([1, 0], 2)
    assert (v + v).coeffs == (2, 1)
    a = WittVector([3, -1, 2], 3)
    assert a + WittVector.zero(3) == a


def test_ghost_examples():
    assert WittVector([1, 0], 2).ghost() == (1, -1)
    assert WittVector.one(5).ghost() == (1, 1, 1, 1, 1)


def test_ghost_additive_and_multiplicative():
    rng = random.Random(20)
    for _ in range(25):
        a = WittVector([rng.randint(-6, 6) for _ in range(5)], 5)
        b = WittVector([rng.randint(-6, 6) for _ in range(5)], 5)
        ga, gb = a.ghost(), b.ghost()
        assert (a + b).ghost() == tuple(x + y for x, y in zip(ga, gb))
        assert (a * b).ghost() == tuple(x * y for x, y in zip(ga, gb))


def test_multiplicative_unit():
    one = WittVector.one(6)
    a = WittVector([2, -3, 1, 0, 4, -1], 6)
    assert a * one == a


def test_square_of_one_plus_t():
    v = WittVector([1, 0], 2)
    assert (v * v).coeffs == (1, 1)


def test_ring_axioms_sampled():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (
            WittVector([rng.randint(-5, 5) for _ in range(6)], 6) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a - a == WittVector.zero(6)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).is_integral()


def test_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        WittVector.zero(3) + WittVector.zero(4)


def test_ghost_roundtrip():
    a = WittVector([Fraction(1, 2), 3, -2], 3)
    assert WittVector.from_ghost(a.ghost(), 3) == a


def test_eps_product_first_coefficient():
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert eps_product([a], [b])[0] == a * b


def test_eps_ghost_roundtrip():
    coeffs = [3, -1, 2, 5]
    assert [Fraction(c) for c in coeffs] == eps_from_ghost(eps_ghost(coeffs))


def test_delta_m_degree_one():
    assert delta_m(1) == SymFunc.tensor(e_(1), e_(1))


def test_delta_m_sends_power_sums_to_squares():
    # p_2 = e_1^2 - 2 e_2 maps to p_2 (x) p_2 under the second diagonal
    d1 = delta_m(1)
    d2 = delta_m(2)
    image = d1 * d1 - d2.scale(2)
    assert image == SymFunc.tensor(p_(2), p_(2))


def test_delta_m_integral():
    for n in range(1, 9):
        assert delta_m(n).is_integral()


def test_delta_m_dual_route():
    assert delta_m_dual_route_agrees(3)


def test_witt_json_roundtrip():
    a = WittVector([Fraction(1, 3), -2, 0, 5], 4)
    assert WittVector.from_json(a.to_json()) == a


def _eps_from_ghost_in_fractions(ghost):
    """eps_from_ghost with every entry a Fraction: the reference."""
    coeffs = []
    for n in range(1, len(ghost) + 1):
        acc = Fraction((-1) ** (n - 1)) * ghost[n - 1]
        for i in range(1, n):
            acc += (-1) ** (i - 1) * Fraction(ghost[i - 1]) * coeffs[n - i - 1]
        coeffs.append(acc / n)
    return coeffs


def test_eps_from_ghost_matches_a_fraction_reference():
    import itertools

    for a in itertools.product(range(-2, 3), repeat=4):
        ghost = eps_ghost(a)
        out = eps_from_ghost(ghost)
        assert out == _eps_from_ghost_in_fractions(ghost) == list(a)
        assert all(type(c) is int for c in out)
    for ghost in ([1, 2, 3, 4], [Fraction(1, 2), 0, Fraction(-3, 4)], [Fraction(2), Fraction(4)], [3, 1]):
        out = eps_from_ghost(ghost)
        assert out == _eps_from_ghost_in_fractions(ghost)
    assert eps_from_ghost([1, 2]) == [1, Fraction(-1, 2)]
    assert all(isinstance(c, Fraction) for c in eps_from_ghost([Fraction(2), Fraction(4)]))
