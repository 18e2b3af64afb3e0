import random

import pytest

from betaring.bring import (
    BElement,
    _compositions,
    _refine_terms,
    beta_regular,
    beta_upper,
    diagonal,
    eval_burnside,
    eval_z,
    product,
    star,
    star_basis,
    star_effective,
    sym_catalog,
)
from betaring.burnside import BurnsideElement, GSet, orbit_decompose
from betaring.catalog import Ambient, get_catalog
from betaring.errors import DegreeCap, NotEffective
from betaring.perms import PermGroup, Permutation, are_conjugate, double_cosets
from betaring.symfunc import lin


def multiset_count(r, n):
    """Multisets of size n from r symbols: the trivial-quotient count."""
    from math import comb

    return comb(r + n - 1, n)


def test_product_basis_examples():
    b1 = beta_upper(1)
    assert product(b1, b1) == beta_regular(2)
    b2 = BElement.basis(2, "S2")
    assert product(b2, BElement.one()) == b2
    klein = PermGroup.generate(4, [Permutation.parse(4, "(0 1)"), Permutation.parse(4, "(2 3)")])
    expected = ((4,), sym_catalog(4).identify(klein))
    assert product(b2, b2) == BElement({expected: 1})


def test_product_commutative_associative():
    rng = random.Random(11)
    keys = [(1, 0), (2, 0), (2, 1), (3, 2)]
    for _ in range(10):
        a = BElement.basis(*rng.choice(keys))
        b = BElement.basis(*rng.choice(keys))
        assert product(a, b) == product(b, a)
    a, b, c = (BElement.basis(1, 0), BElement.basis(2, 1), BElement.basis(2, 0))
    assert product(product(a, b), c) == product(a, product(b, c))


def test_product_degree_cap():
    with pytest.raises(DegreeCap):
        product(BElement.basis(4, 0), BElement.basis(3, 0))


def test_diagonal_of_full_classes():
    for n in range(6):
        expect = BElement.zero()
        for p in range(n + 1):
            cat = get_catalog(Ambient.pair(p, n - p))
            expect = expect + BElement({((p, n - p), len(cat.classes) - 1): 1})
        assert diagonal(beta_upper(n)) == expect


def test_diagonal_of_regular_class():
    terms = diagonal(beta_regular(2)).terms
    assert terms[((2, 0), 0)] == 1
    assert terms[((1, 1), 0)] == 2
    assert terms[((0, 2), 0)] == 1
    assert len(terms) == 3


def test_diagonal_of_unit():
    assert diagonal(BElement.one()) == BElement({((0, 0), 0): 1})


def test_diagonal_is_ring_homomorphism():
    pairs = [((1, 0), (1, 0)), ((2, 1), (1, 0)), ((2, 1), (2, 1)), ((2, 0), (3, 1))]
    for ka, kb in pairs:
        a, b = BElement.basis(*ka), BElement.basis(*kb)
        assert diagonal(product(a, b)) == diagonal(a) * diagonal(b)


def _double_coset_terms(ambient, idx, flat_parts):
    """_refine_terms recomputed over perms.double_cosets: the stabilizer
    P meet x H x^-1 of each double coset P x H, matched to a class of P by
    an exhaustive conjugacy test."""
    group = get_catalog(ambient).group
    h = get_catalog(ambient).classes[idx].rep
    sub_cat = get_catalog(Ambient.prod(flat_parts))
    p = sub_cat.group
    out = {}
    for x in double_cosets(group, p, h):
        stab = PermGroup.from_elements(group.degree, h.conjugate(x).elements & p.elements)
        (cidx,) = [
            cls.index
            for cls in sub_cat.classes
            if cls.order == stab.order and are_conjugate(p, stab, cls.rep)
        ]
        out[cidx] = out.get(cidx, 0) + 1
    return tuple(sorted(out.items()))


def test_refine_terms_matches_double_cosets():
    cases = [
        (Ambient.sym(n), i, comp)
        for n in range(6)
        for i in range(len(sym_catalog(n).classes))
        for comp in _compositions(n, 2)
    ]
    cases += [
        (Ambient.pair(2, 3), i, parts)
        for i in range(len(get_catalog(Ambient.pair(2, 3)).classes))
        for parts in ((1, 1, 3), (2, 1, 2))
    ]
    for ambient, i, parts in cases:
        assert _refine_terms(ambient, i, parts) == _double_coset_terms(ambient, i, parts), (
            ambient, i, parts,
        )


def test_refine_terms_counts_every_double_coset_in_degree_six():
    """|P x H| = |P| |H| / |P meet x H x^-1|, and the double cosets cover G."""
    cat = sym_catalog(6)
    for cls in cat.classes:
        for parts in _compositions(6, 2):
            sub_cat = get_catalog(Ambient.prod(parts))
            terms = _refine_terms(Ambient.sym(6), cls.index, parts)
            covered = sum(
                mult * sub_cat.group.order * cls.order // sub_cat.classes[j].order
                for j, mult in terms
            )
            assert covered == cat.group.order, (cls.label, parts)


def test_refine_terms_rejects_refinements_across_factors():
    with pytest.raises(ValueError):
        _refine_terms(Ambient.pair(2, 3), 0, (1, 3, 1))


def test_star_basis_unit_laws():
    for key in [(2, "S2"), (3, "C3"), (2, "e")]:
        b = BElement.basis(*key)
        assert star_basis((1, "e"), key) == b
        assert star_basis(key, (1, "e")) == b


def test_star_basis_dihedral_example():
    result = star_basis((2, "S2"), (2, "S2"))
    (((deg,), idx), coeff), = result.terms.items()
    assert coeff == 1 and deg == 4
    assert sym_catalog(4).classes[idx].order == 8


def test_star_basis_orientation_frozen_by_evaluation():
    """The (2,3) case separates the two wreath orientations: composing the
    counting polynomials gives beta_S2(beta_S3(3)) = 55, and only the
    order-72 class with S2 on blocks of S3-copies matches it."""

    def beta_s2(r):
        return r * (r + 1) // 2

    def beta_s3(r):
        return r * (r + 1) * (r + 2) // 6

    result = star_basis((2, "S2"), (3, "S3"))
    (((deg,), idx), _), = result.terms.items()
    assert deg == 6
    assert sym_catalog(6).classes[idx].order == 72
    for r in range(6):
        assert eval_z(result, r) == beta_s2(beta_s3(r))
    other = star_basis((3, "S3"), (2, "S2"))
    assert eval_z(other, 3) == beta_s3(beta_s2(3)) == 56
    assert eval_z(result, 3) == 55


def test_star_effective_reduction_and_example():
    b = BElement.basis(2, "S2")
    assert star_effective(b, BElement.basis(2, "S2")) == star_basis((2, "S2"), (2, "S2"))
    expanded = star_effective(b, beta_upper(1).scale(2))
    assert expanded == b.scale(2) + beta_regular(2)
    for r in range(5):
        assert eval_z(expanded, r) == 2 * r * r + r


def test_star_effective_zero_and_units():
    b = BElement.basis(2, "S2")
    assert star_effective(b, BElement.zero()) == BElement.zero()
    assert star_effective(BElement.one(), BElement.zero()) == BElement.one()
    assert star_effective(b, BElement.one()) == BElement.one()  # one-point argument


def test_star_effective_rejects_virtual():
    with pytest.raises(NotEffective):
        star_effective(BElement.basis(2, "S2"), -beta_upper(1))


def test_star_virtual_example():
    result = star(BElement.basis(2, "S2"), -beta_upper(1))
    assert result == beta_regular(2) - BElement.basis(2, "S2")
    for r in range(5):
        assert eval_z(result, r) == (r * r - r) // 2


def test_star_matches_evaluation_composition():
    """(a * b)(r) = a(b(r)) on the integers, for a grid of arguments."""
    samples = [
        beta_upper(1),
        BElement.basis(2, "S2"),
        beta_regular(2),
        beta_upper(1).scale(2),
        -beta_upper(1),
        BElement.basis(2, "S2") - beta_upper(1),
    ]
    for a in samples[:3]:
        for b in samples:
            if a.max_degree() * max(b.max_degree(), 1) > 6:
                continue
            composed = star(a, b)
            for r in range(-2, 4):
                assert eval_z(composed, r) == eval_z(a, eval_z(b, r))


def test_star_left_linearity():
    a1 = BElement.basis(2, "S2")
    a2 = beta_regular(2)
    b = BElement.basis(2, "S2") - beta_upper(1)
    assert star(a1 + a2, b) == star(a1, b) + star(a2, b)
    b1 = -beta_upper(1)  # degree 1 keeps the product case inside the degree cap
    assert star(product(a1, a2), b1) == product(star(a1, b1), star(a2, b1))


def test_eval_z_examples():
    assert eval_z(BElement.basis(2, "S2"), 3) == 6
    for r in range(6):
        assert eval_z(beta_regular(2), r) == r * r
    for n in range(1, 5):
        for idx in range(len(sym_catalog(n).classes)):
            assert eval_z(BElement.basis(n, idx), 1) == 1
    assert eval_z(BElement.one(), 17) == 1


def test_eval_z_full_class_is_multiset_count():
    for n in range(1, 6):
        full = beta_upper(n)
        for r in range(5):
            assert eval_z(full, r) == multiset_count(r, n)


def test_eval_burnside_basics():
    g = PermGroup.cyclic(3)
    x = orbit_decompose(GSet.regular(g))
    assert eval_burnside(BElement.one(), x) == BurnsideElement.unit(g)
    assert eval_burnside(beta_upper(1), x) == x
    assert eval_burnside(beta_upper(1), -x) == -x


def test_eval_burnside_composition_instance():
    g = PermGroup.cyclic(3)
    x = orbit_decompose(GSet.regular(g))
    ss = star_basis((2, "S2"), (2, "S2"))
    lhs = eval_burnside(ss, x)
    inner = eval_burnside(BElement.basis(2, "S2"), x)
    rhs = eval_burnside(BElement.basis(2, "S2"), inner)
    assert lhs == rhs


def test_belement_json_roundtrip():
    x = BElement.basis(2, "S2").scale(2) - beta_upper(1)
    assert BElement.from_json(x.to_json()) == x
    y = x.scale("1/2")
    assert BElement.from_json(y.to_json()) == y


def test_arity_two_json_roundtrip():
    x = diagonal(BElement.basis(3, "C3")).scale("1/2") - BElement.basis((1, 1), "e")
    data = x.to_json()
    assert all(len(entry["degrees"]) == 2 for entry in data)
    assert BElement.from_json(data) == x
    assert [entry["degrees"] for entry in beta_upper(2).to_json()] == [[2]]


def test_b2_element_product_bidegrees():
    a = BElement.basis((1, 0), 0)
    b = BElement.basis((0, 1), 0)
    ab = a * b
    (((p, q), _), coeff), = ab.terms.items()
    assert (p, q) == (1, 1) and coeff == 1
    assert repr(ab) == "b[S1xS1:e]"


def test_products_across_arities_raise():
    one_factor = beta_upper(1)
    two_factors = diagonal(beta_upper(1))
    with pytest.raises(ValueError):
        one_factor * two_factors
    with pytest.raises(ValueError):
        product(two_factors, BElement.basis((1, 1, 0), 0))


def test_arity_three_ring_axioms():
    a = BElement.basis((2, 0, 0), "e") + BElement.basis((2, 0, 0), "S2xS0xS0").scale(2)
    b = BElement.basis((0, 1, 1), 0) - BElement.basis((0, 2, 0), "e")
    c = BElement.basis((1, 0, 1), 0) + BElement.basis((0, 0, 2), "S0xS0xS2")
    assert a.arity == b.arity == c.arity == 3
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert lin(a * b) == lin(a) * lin(b)
    assert lin((a * b) * c) == lin(a) * lin(b) * lin(c)


def test_graded_ring_axioms_on_random_elements():
    rng = random.Random(3)
    keys = [((0,), 0), ((1,), 0), ((2,), 0), ((2,), 1), ((3,), 1)]

    def rand_elt():
        return BElement(
            {k: rng.randint(-2, 2) for k in rng.sample(keys, 3)}
        )

    one = BElement.one()
    for _ in range(15):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        if max(a.max_degree() + b.max_degree() + c.max_degree(), 0) > 6:
            continue
        assert product(a, b) == product(b, a)
        assert product(product(a, b), c) == product(a, product(b, c))
        assert product(a, one) == a
        assert product(a, b + c) == product(a, b) + product(a, c)
