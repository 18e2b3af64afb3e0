import itertools
import json
import os
import random
from functools import reduce
from pathlib import Path

import pytest

from betaring import bring, config
from betaring.adams import psi_upper
from betaring.bring import (
    BElement,
    _orbit_sizes,
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
from betaring.burnside import BurnsideElement, GSet, beta_virtual, group_catalog, orbit_decompose
from betaring.catalog import Ambient, build_catalog, get_catalog
from betaring.checks import (
    CHECK_GSET_CAP,
    explicit_points,
    klein_group,
    two_groups,
    young_eval_cases,
)
from betaring.errors import DegreeCap, NotASubgroup, NotEffective, SizeCap
from betaring.perms import PermGroup, Permutation, are_conjugate, direct_embed, double_cosets, partitions
from betaring.symfunc import lin


def _compositions(n, r):
    """Every composition of n into r nonnegative parts, in lexicographic order."""
    return [c for c in itertools.product(range(n + 1), repeat=r) if sum(c) == n]


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


@pytest.mark.parametrize("name", ["product", "star_basis", "star", "diagonal", "lin", "eval_z"])
def test_degree_cap_holds_after_the_caches_are_warm(name):
    """The lru_caches and the catalog memo behind these calls do not see the
    config; the cap in force at the call still applies.  Arguments are made
    at the default cap."""
    s2, e2, e4 = BElement.basis(2, "S2"), BElement.basis(2, "e"), BElement.basis(4, "e")
    call = {
        "product": lambda: product(s2, e2),
        "star_basis": lambda: star_basis((2, "S2"), (2, "C2")),
        "star": lambda: star(s2, s2 + e2),
        "diagonal": lambda: diagonal(e4),
        "lin": lambda: lin(e4),
        "eval_z": lambda: eval_z(e4, 2),
    }[name]
    call()
    with config.override(max_degree=3):
        with pytest.raises(DegreeCap):
            call()


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


def _assert_matches_double_cosets(n, r):
    for i in range(len(sym_catalog(n).classes)):
        for comp in _compositions(n, r):
            expect = _double_coset_terms(Ambient.sym(n), i, comp)
            assert _refine_terms(Ambient.sym(n), i, comp) == expect, (n, i, comp)


@pytest.mark.parametrize("n, r", [(n, 3) for n in range(6)] + [(n, 4) for n in range(5)])
def test_refine_terms_matches_double_cosets_along_longer_young_subgroups(n, r):
    """The Young subgroups that star splits along: 3 parts up to S5, 4 up to S4."""
    _assert_matches_double_cosets(n, r)


@pytest.mark.skipif(
    not os.environ.get("BETARING_LONG_TESTS"),
    reason="about ten seconds; set BETARING_LONG_TESTS=1 to run",
)
def test_refine_terms_in_degrees_six_and_seven():
    """3-part Young subgroups of S6 against the double cosets, and the
    double cosets of every S_p x S_{7-p} covering S7."""
    _assert_matches_double_cosets(6, 3)
    with config.override(max_degree=7):
        cat = sym_catalog(7)
        for cls in cat.classes:
            for parts in _compositions(7, 2):
                sub_cat = get_catalog(Ambient.prod(parts))
                covered = sum(
                    mult * sub_cat.group.order * cls.order // sub_cat.classes[j].order
                    for j, mult in _refine_terms(Ambient.sym(7), cls.index, parts)
                )
                assert covered == cat.group.order, (cls.label, parts)


def _positive_compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _positive_compositions(n - first):
            yield (first,) + rest


def test_young_class_fusion_matches_identify():
    """Every Young subgroup of S_n, n <= 6: each composition into positive
    parts, and the two-part ones with an empty part that the diagonal reads.
    `Catalog.fusion` of a fresh build is `identify` of every class, each
    computed with the memo emptied, so that the fusion is not compared with
    the memo it filled."""
    checked = 0
    for n in range(1, 7):
        g, fresh = sym_catalog(n), build_catalog(Ambient.sym(n))
        refinements = set(_positive_compositions(n)) | {(0, n), (n, 0)}
        for parts in sorted(refinements):
            sub = get_catalog(Ambient.prod(parts))
            fused = fresh.fusion(sub)
            expect = []
            for cls in sub.classes:
                g._identified.clear()
                expect.append(g.identify(cls.rep))
            assert fused == tuple(expect), parts
            checked += len(sub.classes)
    assert checked == 675


def test_fusion_restricts_like_the_explicit_gset():
    """For every class K of G and every [G/H]: the marks of [G/H] read at
    `Catalog.fusion` of K's catalog, solved over it, are Res_K [G/H] as
    `orbit_decompose` finds it on the restricted coset space (by stabilizer
    identification, no marks), and `_orbit_sizes` is the histogram of the
    restricted orbits' sizes."""
    groups = [PermGroup.symmetric(3), klein_group(), PermGroup.symmetric(4)]
    checked = 0
    for group in groups + [g for _, g in two_groups()]:
        cat = group_catalog(group)
        for h in cat.classes:
            x = BurnsideElement.basis(group, h.index)
            gset, marks = x.to_gset(), x.marks()
            for k in cat.classes:
                sub = group_catalog(k.rep)
                fused = BurnsideElement.from_marks(sub, [marks[j] for j in cat.fusion(sub)])
                restricted = gset.restrict(k.rep)
                assert fused == orbit_decompose(restricted), (h.label, k.label)
                sizes = [len(orbit) for orbit in restricted.orbits()]
                expect = {s: sizes.count(s) for s in set(sizes)}
                assert _orbit_sizes(cat, k.index, marks) == expect, (h.label, k.label)
                checked += 1
    assert checked == 4 * 4 + 5 * 5 + 11 * 11 + 8 * 8 + 16 * 16


def test_refine_terms_rejects_refinements_across_factors():
    with pytest.raises(NotASubgroup):
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


def test_star_with_a_constant_argument_is_the_value_at_it():
    """b = c gives the constant a(c) = eval_z(a, c); a constant beside terms
    of positive degree is refused, since blocks could then be empty."""
    a = BElement.basis(3, "C3") + BElement.basis(2, "S2").scale(2) - beta_upper(1)
    for c in (-3, -1, 1, 2, 4):
        assert star(a, BElement.one().scale(c)) == BElement.one().scale(eval_z(a, c))
    with pytest.raises(ValueError, match="constant term"):
        star(a, BElement.one() + beta_upper(1))
    with pytest.raises(ValueError, match="constant term"):
        star_effective(BElement.basis(2, "e"), BElement.one().scale(2) + BElement.basis(2, "S2"))


def test_star_of_basis_classes_is_the_wreath_class():
    """The marks formula against the wreath-product definition, on all 205
    class pairs of S_m and S_n with mn <= 6."""
    pairs = 0
    for m in range(1, 7):
        for n in range(1, 6 // m + 1):
            for h in range(len(sym_catalog(m).classes)):
                for k in range(len(sym_catalog(n).classes)):
                    assert star(BElement.basis(m, h), BElement.basis(n, k)) == star_basis((m, h), (n, k))
                    pairs += 1
    assert pairs == 205


def test_star_matches_the_pinned_newton_route():
    """Values pinned from the Newton route that the marks formula replaced
    (the composition walk on plus + k * minus for k = 0..n, extrapolated to
    k = -1): every basis class of S_m, m <= 3, against every b = c1 * x + c2 * y
    for two classes x, y of S_1..S_3 and c1, c2 in {1, -1, 2, -2, -3}, with
    m * deg(b) <= 6."""
    cases = json.loads((Path(__file__).parent / "fixtures" / "star_virtual.json").read_text())
    assert len(cases) == 1875
    for case in cases:
        b = BElement({((d,), j): c for d, j, c in case["b"]})
        expect = BElement({((d,), i): c for d, i, c in case["star"]})
        assert star(BElement.basis(*case["a"]), b) == expect, case


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


def test_eval_z_is_eval_on_the_burnside_ring_of_the_trivial_group():
    """A(1) = Z: eval_z(a, r) is the one coordinate of a(r [1/1]), so the
    integer and the cyclic route of the Polya sum agree, for every class of
    S0..S6 and for a virtual element of mixed degree."""
    trivial = group_catalog(PermGroup.trivial(0))
    mixed = BElement.one() + BElement.basis(3, "C3").scale(2) - BElement.basis(5, "e") + beta_upper(6)
    classes = [BElement.basis(n, i) for n in range(7) for i in range(len(sym_catalog(n).classes))]
    for a in classes + [mixed]:
        for r in range(-3, 5):
            assert eval_z(a, r) == eval_burnside(a, BurnsideElement(trivial, [r])).coords[0]


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


def test_young_classes_are_the_young_subgroups(young_classes):
    """Exactly p(n) classes of S_n pass `_young_partition` for n <= 6, S_0's
    one class is named (), and for each lambda of n >= 1 the class that
    `identify` gives for S_lambda, built as the direct product of
    S_lambda_i, is the one it names lambda."""
    assert bring._young_partition(sym_catalog(0).classes[0]) == ()
    for n in range(7):
        cat = sym_catalog(n)
        young = {cls.index: bring._young_partition(cls) for cls in young_classes[n]}
        assert len(young) == len(list(partitions(n)))
        for lam in partitions(n) if n else ():
            assert young[cat.identify(reduce(direct_embed, map(PermGroup.symmetric, lam)))] == lam


def test_eval_of_young_classes_matches_the_explicit_route_in_degree_four(young_classes):
    """The orbit-size route equals `beta_virtual` for the Young classes of
    S4 on every [G/H] and [G/H] - [G/G] of A(S3), A(V4) and A(S4) where the
    explicit route fits the check cap (the beta-z suite covers n <= 3)."""
    compared = 0
    with config.override(gset_cap=CHECK_GSET_CAP):
        for _, x in young_eval_cases():
            if explicit_points(4, x) <= CHECK_GSET_CAP:
                for cls in young_classes[4]:
                    assert eval_burnside(BElement.basis(4, cls.index), x) == beta_virtual(cls, x)
                    compared += 1
    assert compared == 165


def test_eval_past_the_cap_on_a_noncyclic_group():
    """(S4/e)^6 has 24^6 points, far past the cap, and S4 acts freely on it:
    S6:e gives 24^5 copies of [S4/e].  Psi^6 at K counts the points whose
    K-orbit has a size dividing 6: all 24 when |K| divides 6, else none."""
    s4 = PermGroup.symmetric(4)
    x = BurnsideElement.basis(s4, "e")
    assert eval_burnside(beta_regular(6), x) == x.scale(24**5)
    with pytest.raises(SizeCap):
        beta_virtual(sym_catalog(6).class_of("e"), x)
    marks = eval_burnside(psi_upper(6), x).marks()
    assert list(marks) == [24 if 6 % cls.order == 0 else 0 for cls in group_catalog(s4).classes]


def test_eval_splits_young_and_other_terms():
    """a = 2 beta_S3 - beta_C3 + beta_C2, C2 = S2 x S1: the Young terms read marks,
    beta_C3 takes the explicit route, and the sum is the explicit value."""
    a = BElement.basis(3, "S3").scale(2) - BElement.basis(3, "C3") + BElement.basis(3, "C2")
    young = [bring._young_partition(sym_catalog(3).classes[i]) for (_, i) in sorted(a.terms)]
    assert young == [(2, 1), None, (3,)]
    for group in (PermGroup.symmetric(3), klein_group()):
        for i in range(len(group_catalog(group))):
            x = BurnsideElement.basis(group, i) - BurnsideElement.unit(group)
            explicit = [beta_virtual(sym_catalog(3).classes[j], x).scale(c) for (_, j), c in a.terms.items()]
            assert eval_burnside(a, x) == explicit[0] + explicit[1] + explicit[2]


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
