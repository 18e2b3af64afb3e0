import math
import random
from fractions import Fraction

import pytest

from betaring import witt
from betaring.errors import PrecisionMismatch
from betaring.perms import Partition, partitions
from betaring.symfunc import SymFunc, _det, e_, p_
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_m_dual_route_rejects_one_changed_coefficient(monkeypatch, k):
    altered = delta_m(k)
    coeffs = dict(altered.coeffs)
    key = sorted(coeffs)[-1]
    coeffs[key] += 1
    altered = SymFunc(altered.basis, coeffs, arity=2)
    monkeypatch.setattr(witt, "delta_m", lambda m: altered if m == k else delta_m(m))
    assert not delta_m_dual_route_agrees(3)


def _delta_m_with(monkeypatch, k, coeffs):
    altered = SymFunc(delta_m(k).basis, coeffs, arity=2)
    monkeypatch.setattr(witt, "delta_m", lambda m: altered if m == k else delta_m(m))


def test_delta_m_dual_route_rejects_every_single_term_change(monkeypatch):
    """At n = 5 the 19 x 19 lower-set points see every term of delta_m(1..5):
    each coefficient raised by 1 or by 1/2, and each term dropped, is
    rejected.  A coefficient is compared exactly, never truncated to an int."""
    changes = 0
    for k in range(1, 6):
        real = dict(delta_m(k).coeffs)
        for key in real:
            dropped = {other: c for other, c in real.items() if other != key}
            for coeffs in (real | {key: real[key] + 1}, real | {key: real[key] + Fraction(1, 2)}, dropped):
                _delta_m_with(monkeypatch, k, coeffs)
                assert not delta_m_dual_route_agrees(5), (k, key, coeffs)
                changes += 1
    assert changes == 3 * (1 + 3 + 6 + 15 + 28)


def test_delta_m_dual_route_refuses_a_key_past_its_degree(monkeypatch):
    """A key of weight past n lies outside the span the points decide."""
    coeffs = dict(delta_m(2).coeffs)
    coeffs[Partition([3]), Partition([1, 1, 1])] = 1
    _delta_m_with(monkeypatch, 2, coeffs)
    assert not delta_m_dual_route_agrees(2)


def test_lower_set_is_unisolvent_through_degree_8():
    """S_n holds one multiplicity vector per partition of size <= n, is a
    lower set, and its monomial matrix at its own points is nonsingular."""
    for n in range(9):
        points = witt._lower_set(n)
        assert len(points) == len(set(points)) == sum(len(list(partitions(k))) for k in range(n + 1))
        members = set(points)
        for alpha in points:
            assert sum(i * m for i, m in enumerate(alpha, start=1)) <= n
            for i, m in enumerate(alpha):
                assert not m or alpha[:i] + (m - 1,) + alpha[i + 1 :] in members
        matrix = [[math.prod(map(pow, p, alpha)) for alpha in points] for p in points]
        assert _det(matrix) != 0
    assert len(witt._lower_set(5)) == 19


def test_delta_m_dual_route_through_degree_8():
    """67 x 67 = 4,489 point pairs; the full tensor grid would need 42 million."""
    assert delta_m_dual_route_agrees(8)


def test_delta_m_dual_route_refuses_a_singular_point_set(monkeypatch):
    """A repeated point makes the monomial matrix singular: the check
    returns False rather than trust the evaluations."""
    real = witt._lower_set
    monkeypatch.setattr(witt, "_lower_set", lambda n: real(n) + real(n)[-1:])
    assert not delta_m_dual_route_agrees(5)
    monkeypatch.setattr(witt, "_lower_set", real)
    monkeypatch.setattr(witt, "_det", lambda rows: 0)
    assert not delta_m_dual_route_agrees(5)


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


def _h_ghost_in_fractions(coeffs):
    """Newton's recursion on the h reading, in Fractions: the reference."""
    ghost = []
    for n in range(1, len(coeffs) + 1):
        acc = n * Fraction(coeffs[n - 1])
        ghost.append(acc - sum(ghost[i - 1] * coeffs[n - i - 1] for i in range(1, n)))
    return tuple(ghost)


def test_ghost_negation_and_product_match_the_h_recursion():
    rng = random.Random(11)
    for _ in range(30):
        a = WittVector([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)], 6)
        b = WittVector([rng.randint(-5, 5) for _ in range(6)], 6)
        ga, gb = _h_ghost_in_fractions(a.coeffs), _h_ghost_in_fractions(b.coeffs)
        assert a.ghost() == ga and b.ghost() == gb
        assert (-a).ghost() == tuple(-g for g in ga)
        assert -a + a == WittVector.zero(6)
        assert _h_ghost_in_fractions((a * b).coeffs) == tuple(x * y for x, y in zip(ga, gb))
        assert WittVector.from_ghost(ga) == a


def test_integer_vectors_keep_int_entries():
    rng = random.Random(8)
    for _ in range(20):
        a, b = (WittVector([rng.randint(-9, 9) for _ in range(8)], 8) for _ in range(2))
        for v in (a + b, a - b, -a, a * b):
            assert all(type(c) is int for c in v.coeffs)
            assert all(type(g) is int for g in v.ghost())
    assert all(type(c) is int for c in WittVector([Fraction(4, 2), "3", 1.0]).coeffs)
    # a Fraction appears only where a division is inexact
    assert WittVector.from_ghost([1, 2]).coeffs == (1, Fraction(3, 2))
    assert type(WittVector.from_ghost([1, 3]).coeffs[1]) is int


def test_precision_is_validated_with_the_lengths():
    with pytest.raises(ValueError, match="precision 3 .* 2 ghost"):
        WittVector.from_ghost([1, 2], 3)
    with pytest.raises(ValueError, match="precision -1 .* 2 ghost"):
        WittVector.from_ghost([1, 2], -1)
    with pytest.raises(ValueError, match="precision -1 cannot hold 3 coefficients"):
        WittVector([1, 2, 3], -1)
    with pytest.raises(ValueError, match="precision 2 cannot hold 3 coefficients"):
        WittVector([1, 2, 3], 2)
    assert WittVector.from_ghost([1, 2, 3], 2) == WittVector.from_ghost([1, 2])
    assert WittVector([], 0).coeffs == ()
