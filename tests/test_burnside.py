import itertools
import logging
import random
from fractions import Fraction

import pytest

from betaring import burnside, catalog, config
from betaring.bring import BElement, eval_burnside, eval_z
from betaring.burnside import (
    BurnsideElement,
    GSet,
    _code_map,
    _quotient_classes,
    _tuple_orbit_quotient,
    beta2_on_gsets,
    beta_on_gset,
    beta_virtual,
    group_catalog,
    induce,
    orbit_decompose,
)
from betaring.catalog import Ambient, get_catalog
from betaring.checks import klein_group
from betaring.errors import IntegralityViolation, NotASubgroup, NotEffective, SizeCap
from betaring.perms import PermGroup, Permutation, direct_embed


def c2():
    return PermGroup.cyclic(2)


def c3():
    return PermGroup.cyclic(3)


def s3():
    return PermGroup.symmetric(3)


def sym_class(n, spec):
    return get_catalog(Ambient.sym(n)).class_of(spec)


def test_action_table_validation():
    with pytest.raises(ValueError):
        GSet(c2(), 2, [(1, 1)])  # not a bijection
    with pytest.raises(ValueError):
        # order-2 generator acting as a 3-cycle violates g*g = e
        GSet(c2(), 3, [(1, 2, 0)])
    for row in [(1, 2), (0, 1, 3), (0, 1, 1, 2), (0, 1, "a")]:  # short, out of range,
        with pytest.raises(ValueError):  # duplicate, not an integer
            GSet(c3(), 3, [row])
    # Rows of the right length that only the closure refuses: an entry out
    # of range or negative in S3's second row (the 3-cycle; (-1, 0, 1) is
    # a permutation of the positions read modulo 3), a negative entry over
    # C2, and a float entry.
    cases = [
        (s3(), 3, [(1, 0, 2), (1, 2, 3)]),
        (s3(), 3, [(1, 0, 2), (-1, 0, 1)]),
        (c2(), 2, [(-1, 0)]),
        (c2(), 2, [(1.5, 0)]),
    ]
    for group, size, rows in cases:
        with pytest.raises(ValueError, match="not a bijection"):
            GSet(group, size, rows)


def test_orbit_decompose_basics():
    g = c3()
    assert orbit_decompose(GSet.empty(g)) == BurnsideElement.zero(g)
    reg = orbit_decompose(GSet.regular(g))
    assert reg == BurnsideElement.basis(g, "e")
    assert orbit_decompose(GSet.point(g)) == BurnsideElement.unit(g)


def test_orbit_decompose_sizes_and_marks():
    g = s3()
    x = GSet.coset_space(g, PermGroup.generate(3, [Permutation.parse(3, "(0 1)")]))
    elt = orbit_decompose(x)
    assert elt.size() == x.size == 3
    cat = group_catalog(g)
    assert elt.marks() == tuple(x.fixed_count(cls.rep) for cls in cat.classes)


def test_fixed_count_needs_a_subgroup():
    x = GSet.regular(c3())
    assert x.fixed_count(PermGroup.trivial(3)) == 3
    for sub in (c2(), PermGroup.generate(3, [[1, 0, 2]])):
        with pytest.raises(NotASubgroup):
            x.fixed_count(sub)


def test_multiply_unit_and_examples():
    g = c3()
    x = orbit_decompose(GSet.regular(g))
    assert x * BurnsideElement.unit(g) == x
    assert x * x == x.scale(3)

    h = s3()
    xc2 = BurnsideElement.basis(h, "C2")
    xe = BurnsideElement.basis(h, "e")
    assert xc2 * xc2 == xc2 + xe


def test_product_oracle_against_gsets():
    g = s3()
    cat = group_catalog(g)
    sets = [GSet.coset_space(g, cls.rep) for cls in cat.classes]
    for x in sets:
        for y in sets:
            assert orbit_decompose(x * y) == orbit_decompose(x) * orbit_decompose(y)


def test_marks_are_homomorphic_and_injective():
    g = s3()
    cat = group_catalog(g)
    rng = random.Random(5)
    for _ in range(20):
        a = BurnsideElement(cat, [rng.randint(-3, 3) for _ in cat.classes])
        b = BurnsideElement(cat, [rng.randint(-3, 3) for _ in cat.classes])
        assert (a + b).marks() == tuple(x + y for x, y in zip(a.marks(), b.marks()))
        assert (a * b).marks() == tuple(x * y for x, y in zip(a.marks(), b.marks()))
        assert BurnsideElement.from_marks(cat, a.marks()) == a


@pytest.mark.parametrize(
    "ambient", [Ambient.sym(5), Ambient.sym(6), Ambient.pair(2, 3)], ids=Ambient.descriptor
)
def test_sparse_marks_round_trip(ambient):
    """marks() and from_marks() visit only nonzero coordinates; on
    mostly-zero vectors they stay additive, multiplicative and inverse."""
    cat = get_catalog(ambient)
    rng = random.Random(7)

    def sparse():
        coords = [0] * len(cat.classes)
        for h in rng.sample(range(len(coords)), 3):
            coords[h] = rng.choice([-3, -2, -1, 1, 2, 3])
        return BurnsideElement(cat, coords)

    for _ in range(20):
        a, b = sparse(), sparse()
        assert (a + b).marks() == tuple(x + y for x, y in zip(a.marks(), b.marks()))
        assert (a * b).marks() == tuple(x * y for x, y in zip(a.marks(), b.marks()))
        assert BurnsideElement.from_marks(cat, a.marks()) == a


def test_non_integral_marks_vector_raises():
    cat = group_catalog(s3())
    assert BurnsideElement.from_marks(cat, [6, 0, 0, 0]).coords == (1, 0, 0, 0)
    for marks in ([1, 0, 0, 0], [3, 1, 1, 1], [2, 2, 0, 0]):
        with pytest.raises(IntegralityViolation, match="not in the image"):
            BurnsideElement.from_marks(cat, marks)
    with pytest.raises(IntegralityViolation):
        BurnsideElement.from_marks(group_catalog(c2()), [1, 0])


def test_marks_vector_of_the_wrong_length_raises():
    """A(S3) has 4 classes: a longer marks vector is refused rather than
    truncated to [G/e], and a shorter one before the solve reads past it."""
    cat = group_catalog(s3())
    for marks in ([6, 0, 0, 0, 99], [6]):
        with pytest.raises(ValueError, match="does not match the class count"):
            BurnsideElement.from_marks(cat, marks)


def test_non_integral_coordinates_raise():
    """A(G) has integer coordinates: a fractional one raises instead of
    being truncated, while integral Fractions are kept as ints."""
    cat = group_catalog(c2())
    x = BurnsideElement(cat, [Fraction(4, 2), 1])
    assert x.coords == (2, 1) and all(type(c) is int for c in x.coords)
    assert x.scale(Fraction(3, 1)).coords == (6, 3)
    for make in (
        lambda: BurnsideElement(cat, [Fraction(1, 2), 1]),
        lambda: BurnsideElement.unit(c2()).scale(Fraction(1, 2)),
        lambda: BurnsideElement.unit(c2()).scale(0.5),
    ):
        with pytest.raises(IntegralityViolation, match="not an integer"):
            make()


def test_beta_identity_cases():
    g = c3()
    x = GSet.regular(g)
    assert orbit_decompose(beta_on_gset(sym_class(1, "e"), x)) == orbit_decompose(x)
    one_point = GSet.point(g)
    assert beta_on_gset(sym_class(3, "S3"), one_point).size == 1


def test_beta_pairs_example():
    g = c3()
    x = GSet.regular(g)
    quotient = beta_on_gset(sym_class(2, "S2"), x)
    assert quotient.size == 6
    assert orbit_decompose(quotient) == BurnsideElement.basis(g, "e").scale(2)


def test_beta2_degenerate_and_product_rule():
    g = c2()
    x = GSet.regular(g)
    y = GSet.coset_space(g, g)
    pair11 = get_catalog(Ambient.pair(1, 1)).classes[-1]
    assert orbit_decompose(beta2_on_gsets(pair11, x, y)) == orbit_decompose(x * y)
    pair21 = get_catalog(Ambient.pair(2, 1))
    full = pair21.classes[pair21.identify(direct_embed(PermGroup.symmetric(2), PermGroup.symmetric(1)))]
    lhs = orbit_decompose(beta2_on_gsets(full, x, y))
    rhs = orbit_decompose(beta_on_gset(sym_class(2, "S2"), x) * y)
    assert lhs == rhs


def test_beta2_explicit_construction():
    g = c2()
    x = GSet.regular(g)
    y = GSet.regular(g)
    pair_cat = get_catalog(Ambient.pair(2, 0))
    s2_block = pair_cat.classes[-1]
    quotient = beta2_on_gsets(s2_block, x, y)  # (X^2/S2) with no Y factor
    assert quotient.size == 3
    direct = beta_on_gset(sym_class(2, "S2"), x)
    assert orbit_decompose(quotient) == orbit_decompose(direct)


def test_beta2_swap_in_first_block_on_regular_pair():
    g = c2()
    x = GSet.regular(g)
    y = GSet.regular(g)
    pair_cat = get_catalog(Ambient.pair(2, 1))
    swap_first = pair_cat.classes[-1]  # S2 x e inside S2 x S1
    quotient = beta2_on_gsets(swap_first, x, y)
    assert quotient.size == 6
    assert orbit_decompose(quotient) == BurnsideElement.basis(g, "e").scale(3)
    direct = beta_on_gset(sym_class(2, "S2"), x) * y
    assert orbit_decompose(quotient) == orbit_decompose(direct)


def test_addition_axiom_degree_four():
    from betaring.bring import BElement, diagonal
    from betaring.catalog import Ambient as Amb

    for group in (c2(), c3(), PermGroup.cyclic(4)):
        cat = group_catalog(group)
        sets = [GSet.coset_space(group, cls.rep) for cls in cat.classes]
        for idx in range(len(get_catalog(Amb.sym(4)).classes)):
            split = diagonal(BElement.basis(4, idx))
            h_cls = get_catalog(Amb.sym(4)).classes[idx]
            for x in sets:
                for y in sets:
                    lhs = orbit_decompose(beta_on_gset(h_cls, x + y))
                    rhs = BurnsideElement.zero(group)
                    for ((p, q), j), coeff in split.terms.items():
                        pair_cls = get_catalog(Amb.pair(p, q)).classes[j]
                        rhs = rhs + orbit_decompose(beta2_on_gsets(pair_cls, x, y)).scale(coeff)
                    assert lhs == rhs


def test_size_cap():
    g = c3()
    x = GSet.regular(g)
    with config.override(gset_cap=10):
        with pytest.raises(SizeCap):
            beta_on_gset(sym_class(3, "S3"), x)


def test_beta_virtual_on_integers():
    trivial = PermGroup.trivial(1)
    cat = group_catalog(trivial)
    s2 = sym_class(2, "S2")
    assert beta_virtual(s2, BurnsideElement(cat, [0])).coords == (0,)
    for r in range(6):
        value = beta_virtual(s2, BurnsideElement(cat, [-r]))
        assert value.coords == ((r * r - r) // 2,)


def test_beta_virtual_matches_effective():
    g = c3()
    x = orbit_decompose(GSet.regular(g))
    s2 = sym_class(2, "S2")
    direct = orbit_decompose(beta_on_gset(s2, x.to_gset()))
    assert beta_virtual(s2, x) == direct


def test_psi_two_combination_on_c3():
    g = c3()
    x = orbit_decompose(GSet.regular(g))
    s2 = sym_class(2, "S2")
    e2 = sym_class(2, "e")
    psi2 = beta_virtual(s2, x).scale(2) - beta_virtual(e2, x)
    assert psi2 == x


def test_to_gset_requires_effective():
    g = c3()
    x = orbit_decompose(GSet.regular(g))
    with pytest.raises(NotEffective):
        (-x).to_gset()


def test_to_gset_joins_coset_spaces_in_class_order():
    g = s3()
    x = GSet.regular(g)
    y = GSet.coset_space(g, group_catalog(g).class_of("C2").rep)
    element = BurnsideElement.basis(g, "e").scale(2) + BurnsideElement.basis(g, "C2")
    joined = element.to_gset()
    assert joined == x + x + y
    assert joined.gen_action == tuple(
        xr + tuple(p + x.size for p in xr) + tuple(p + 2 * x.size for p in yr)
        for xr, yr in zip(x.gen_action, y.gen_action)
    )


def _left_coset_rows(group, sub):
    """Left translation on the cosets eH, numbered by their least element."""
    elems = sorted(group.elements)
    coset_of, reps = {}, []
    for e in elems:
        if e not in coset_of:
            for h in sub.elements:
                coset_of[tuple(e[i] for i in h)] = len(reps)
            reps.append(e)
    return tuple(
        tuple(coset_of[tuple(g.images[i] for i in r)] for r in reps) for g in group.generators
    )


def test_coset_spaces_are_left_translations_of_cosets():
    klein = PermGroup.generate(4, [[1, 0, 2, 3], [0, 1, 3, 2]])
    c4, c6 = PermGroup.cyclic(4), PermGroup.cyclic(6)
    for g in (c2(), c3(), c4, s3(), klein, PermGroup.symmetric(4), c6):
        for cls in group_catalog(g).classes:
            x = GSet.coset_space(g, cls.rep)
            assert x.gen_action == _left_coset_rows(g, cls.rep), cls.label
        assert GSet.regular(g).gen_action == _left_coset_rows(g, PermGroup.trivial(g.degree))


def test_induce_of_point_is_coset_space():
    g = s3()
    u = PermGroup.generate(3, [Permutation.parse(3, "(0 1)")])
    induced = induce(g, u, GSet.point(u))
    assert orbit_decompose(induced) == BurnsideElement.basis(g, "C2")


def test_transfer_identity_instance():
    g = PermGroup.generate(4, [[1, 0, 2, 3], [0, 1, 3, 2]])  # C2 x C2
    cat = group_catalog(g)
    u = cat.classes[1].rep
    m = GSet.regular(g)
    n = GSet.point(u)
    lhs = orbit_decompose(induce(g, u, m.restrict(u) * n))
    rhs = orbit_decompose(m * induce(g, u, n))
    assert lhs == rhs


def test_gset_json_roundtrip():
    g = c3()
    x = GSet.regular(g)
    again = GSet.from_json(x.to_json())
    assert again == x


def test_burnside_element_json():
    g = s3()
    x = BurnsideElement.basis(g, "C2") - BurnsideElement.unit(g).scale(2)
    data = x.to_json()
    assert data["coords"] == list(x.coords)
    assert len(data["basis"]) == len(x.coords)


def _reference_quotient(factors, w):
    """Orbits of w on the tuples of prod factors by BFS over the tuples
    themselves (v_i = u_(g^-1 i)), numbered in itertools.product order of
    their first tuple, with G acting on the representatives."""
    group = factors[0].group
    inv_gens = [g.inverse().images for g in w.generators]
    orbit_of, reps = {}, []
    for t in itertools.product(*[range(f.size) for f in factors]):
        if t in orbit_of:
            continue
        orbit_of[t] = len(reps)
        reps.append(t)
        frontier = [t]
        while frontier:
            new = []
            for u in frontier:
                for ginv in inv_gens:
                    v = tuple(u[i] for i in ginv)
                    if v not in orbit_of:
                        orbit_of[v] = orbit_of[t]
                        new.append(v)
            frontier = new
    rows = tuple(
        tuple(orbit_of[tuple(f.gen_action[gi][x] for f, x in zip(factors, t))] for t in reps)
        for gi in range(len(group.generators))
    )
    return len(reps), rows


def _oracle_groups():
    klein = PermGroup.generate(4, [[1, 0, 2, 3], [0, 1, 3, 2]])
    return [c2(), c3(), PermGroup.cyclic(4), s3(), klein]


def test_beta_on_gset_matches_tuple_bfs_reference():
    for g in _oracle_groups():
        sets = [GSet.coset_space(g, cls.rep) for cls in group_catalog(g).classes]
        for n in range(1, 5):
            for cls in get_catalog(Ambient.sym(n)).classes:
                for x in sets:
                    quotient = beta_on_gset(cls, x)
                    expected = _reference_quotient([x] * n, cls.rep)
                    assert (quotient.size, quotient.gen_action) == expected, (n, cls.label, x.size)


def test_beta_on_gset_at_degrees_five_and_six_matches_reference():
    """A W of one generator walks each cycle with no queue, and W of two
    and of three generators queue the other generators' images; degree 6
    takes all three counts.  G reads each point from a table over the
    leading n // 2 coordinates and one over the rest."""
    sets = [GSet.regular(c2()), GSet.regular(c3()), GSet.coset_space(s3(), PermGroup.generate(3, [[1, 0, 2]]))]
    cases = (
        (5, ("o5-5", "o6-3.2-b", "o10-5", "o120-5"), {1, 2}),
        (6, ("o6-6-a", "o720-6", "o8-2.2.2"), {1, 2, 3}),
    )
    for n, labels, counts in cases:
        ws = [sym_class(n, label).rep for label in labels]
        assert {len(w.generators) for w in ws} == counts
        for w in ws:
            for x in sets:
                quotient = beta_on_gset(w, x)
                assert (quotient.size, quotient.gen_action) == _reference_quotient([x] * n, w), (n, w, x.size)


def test_code_map_is_the_product_of_its_columns():
    """Split into two half tables past two columns or not, the code map is
    the sum over itertools.product of the columns, an empty one included."""
    rng = random.Random(7)
    for n in range(8):
        for empty in [None, *range(n)]:
            columns = [[rng.randrange(100) for _ in range(rng.randint(1, 4))] for _ in range(n)]
            if empty is not None:
                columns[empty] = []
            expected = [sum(t) for t in itertools.product(*columns)]
            assert _code_map(columns) == expected == _code_map(iter(columns)), (n, empty)


def _edge_shapes():
    """One coordinate, all in the trailing table, under an explicit identity
    generator; and two empty factors, no point to label or to act on."""
    identity = PermGroup.generate(1, [[0]])
    for g in _oracle_groups():
        yield from (([GSet.coset_space(g, cls.rep)], identity) for cls in group_catalog(g).classes)
        yield [GSet.empty(g)] * 2, PermGroup.symmetric(2)


def test_tuple_quotient_edge_shapes_match_reference():
    for factors, w in _edge_shapes():
        quotient = _tuple_orbit_quotient(factors, w)
        assert (quotient.size, quotient.gen_action) == _reference_quotient(factors, w)


def test_quotient_classes_are_the_decomposed_gset():
    """The classes read off the orbit labels are the decomposition of the
    G-set built from them: every class of S1..S3 on every transitive G-set
    and pairwise union of C2, C3, C4, S3 and V4, pair classes on factors
    of unequal sizes, a W without generators on (S3/e)^6 and the edge
    shapes."""
    cases = list(_edge_shapes())
    for g in _oracle_groups():
        sets = [GSet.coset_space(g, cls.rep) for cls in group_catalog(g).classes]
        unions = sets + [x + y for x, y in itertools.combinations_with_replacement(sets, 2)]
        for n in range(1, 4):
            cases += [([x] * n, cls.rep) for cls in get_catalog(Ambient.sym(n)).classes for x in unions]
        for p, q in ((2, 1), (1, 2), (2, 2)):
            cases += [
                ([x] * p + [y] * q, cls.rep)
                for cls in get_catalog(Ambient.pair(p, q)).classes
                for x in sets
                for y in sets
                if x.size != y.size
            ]
    cases.append(([GSet.regular(s3())] * 6, PermGroup.trivial(6)))
    with config.override(gset_cap=6**6):
        for factors, w in cases:
            expected = orbit_decompose(_tuple_orbit_quotient(factors, w))
            assert _quotient_classes(factors, w) == expected, (w, [x.size for x in factors])


def test_quotient_classes_refuse_labels_that_carry_no_action(monkeypatch):
    """With orbits 1 and 2 of (S3/e)^2 under the swap merged into one label,
    the orbit sizes [G : Stab] no longer add up to the number of labels."""
    labels = burnside._tuple_orbit_labels

    def merged(factors, w):
        strides, orbit_of, reps = labels(factors, w)
        return strides, [o - (o >= 2) for o in orbit_of], reps[:2] + reps[3:]

    monkeypatch.setattr(burnside, "_tuple_orbit_labels", merged)
    x = GSet.regular(s3())
    with pytest.raises(ValueError, match="do not carry an action"):
        _quotient_classes([x, x], PermGroup.symmetric(2))


def test_beta2_on_gsets_matches_reference_with_unequal_factor_sizes():
    checked = 0
    for g in (c2(), s3(), PermGroup.cyclic(4)):
        sets = [GSet.coset_space(g, cls.rep) for cls in group_catalog(g).classes]
        pairs = [(x, y) for x in sets for y in sets if x.size != y.size]
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3)):
            for cls in get_catalog(Ambient.pair(p, q)).classes:
                for x, y in pairs:
                    quotient = beta2_on_gsets(cls, x, y)
                    expected = _reference_quotient([x] * p + [y] * q, cls.rep)
                    assert (quotient.size, quotient.gen_action) == expected, (p, q, cls.label)
                    checked += 1
    assert checked > 100


def test_size_cap_is_exact():
    x = GSet.regular(c3())
    s3_cls = sym_class(3, "S3")
    with config.override(gset_cap=27):
        assert beta_on_gset(s3_cls, x).size == 10
        assert _quotient_classes([x] * 3, s3_cls.rep).size() == 10
    with config.override(gset_cap=26):
        with pytest.raises(SizeCap):
            beta_on_gset(s3_cls, x)
        with pytest.raises(SizeCap):
            _quotient_classes([x] * 3, s3_cls.rep)


def test_coordinate_group_mixing_factor_sizes_is_rejected():
    """Both readers of the orbit labels refuse the same shapes."""
    g = c2()
    x, y = GSet.regular(g), GSet.point(g)
    for reader in (_tuple_orbit_quotient, _quotient_classes):
        with pytest.raises(ValueError, match="another size"):
            reader([x, y], PermGroup.symmetric(2))
        with pytest.raises(ValueError, match="another size"):
            reader([x, x, y], PermGroup.cyclic(3))
        with pytest.raises(ValueError, match="degree must match"):
            reader([x, x], PermGroup.symmetric(3))
        with pytest.raises(ValueError, match="empty factor list"):
            reader([], PermGroup.trivial(0))
    assert _tuple_orbit_quotient([x, y, x], PermGroup.generate(3, [[2, 1, 0]])).size == 3
    assert _tuple_orbit_quotient([x, GSet.empty(g)], PermGroup.trivial(2)) == GSet.empty(g)


def test_orbits_and_orbit_decompose_match_a_per_point_count():
    """orbits, orbit_decompose and, for the tuple quotients, the classes
    read off their labels match one stabilizer identified per orbit of
    the closed G-set."""
    s3_class, s2_class = sym_class(3, "S3"), sym_class(2, "S2")
    for g in _oracle_groups():
        cat = group_catalog(g)
        sets = [GSet.coset_space(g, cls.rep) for cls in cat.classes]
        cases = [(GSet.empty(g), None)]
        for x in sets:
            cases.append((beta_on_gset(s3_class, x), ([x] * 3, s3_class.rep)))
            for y in sets:
                cases.append((x * y, None))
                cases.append((beta_on_gset(s2_class, x + y), ([x + y] * 2, s2_class.rep)))
        for z, quotient in cases:
            expected = [0] * len(cat.classes)
            orbits = []
            seen = set()
            for point in range(z.size):
                if point in seen:
                    continue
                orbit = {z.act(e, point) for e in z.elem_action}
                seen |= orbit
                orbits.append(sorted(orbit))
                expected[cat.identify(z.stabilizer(point))] += 1
            assert z.orbits() == orbits
            assert orbit_decompose(z).coords == tuple(expected)
            if quotient is not None:
                assert _quotient_classes(*quotient).coords == tuple(expected)


def _basis_elements(cat):
    """Every [G/H] of A(G), built on the catalog given (not looked up by group)."""
    size = len(cat.classes)
    return [BurnsideElement(cat, [int(j == i) for j in range(size)]) for i in range(size)]


def test_coset_spaces_follow_each_groups_own_generators():
    """Two Klein groups equal as sets, with their generators in opposite
    orders, share one catalog.  The coset spaces of each act through that
    group's own generators, equal the other group's and what to_gset
    returns as element actions, also after the other group's G-sets were
    built, and the transfer identity (M|_U x N)^{U -> G} = M x N^{U -> G}
    holds over both."""
    klein = klein_group()
    flipped = PermGroup(4, klein.generators[::-1], klein.elements)
    assert flipped == klein and flipped.generators != klein.generators
    cat = group_catalog(klein)
    assert group_catalog(flipped) is cat
    for group in (klein, flipped, klein):
        transitive = [GSet.coset_space(group, cls.rep) for cls in cat.classes]
        for x, cls, m in zip(_basis_elements(cat), cat.classes, transitive):
            assert m.group is group
            other = GSet.coset_space(klein if group is flipped else flipped, cls.rep)
            assert m.gen_action == other.gen_action[::-1] and m == other == x.to_gset(), cls.label
        for ucls in cat.classes:
            u = ucls.rep
            for m in transitive:
                for ncls in group_catalog(u).classes:
                    n = GSet.coset_space(u, ncls.rep)
                    lhs = orbit_decompose(induce(group, u, m.restrict(u) * n))
                    assert lhs == orbit_decompose(m * induce(group, u, n))


def test_a_decomposition_seen_before_builds_no_stabilizer():
    """The stabilizers of G/K x G/K, for K a conjugate of the C2
    representative of S3 other than it, are K and 1.  The first
    decomposition identifies K past the representatives that seed the
    memo; the same decomposition again identifies nothing new."""
    g = s3()
    rep = group_catalog(g).class_of("C2").rep
    k = rep.conjugate(Permutation.parse(3, "(0 1 2)"))
    assert k != rep
    x = GSet.coset_space(g, k) * GSet.coset_space(g, k)
    catalog.clear_memo()
    cat = group_catalog(g)
    expected = orbit_decompose(x)
    assert expected.catalog is cat and k.elements in cat._identified
    identified = dict(cat._identified)
    assert len(identified) > len(cat.classes)
    assert orbit_decompose(x) == expected
    assert cat._identified == identified


def test_clear_memo_empties_the_gset_memos():
    """After clear_memo the explicit route identifies its stabilizers
    again, so a test that disables some code after a first run still sees
    that code's route.  X^2/S2 for X = S3/C2 has a point
    whose stabilizer is a C2 other than the representative."""
    x = BurnsideElement.basis(s3(), "C2")

    def decomposed():
        return orbit_decompose(beta_on_gset(sym_class(2, "S2"), x.to_gset()))

    expected = decomposed()
    cat = x.catalog
    assert len(cat._identified) > len(cat.classes)
    catalog.clear_memo()
    assert not cat._identified
    assert decomposed() == expected
    fresh = group_catalog(x.group)
    assert fresh is not cat and len(fresh._identified) > len(fresh.classes)


def test_eval_burnside_matches_a_cleared_memo():
    """Every class of S1..S4 on every basis element of A(C2..C6), A(S3),
    A(S4) and A(V4): the same with a warm identify memo as with the memo
    emptied before each call."""
    groups = [PermGroup.cyclic(k) for k in range(2, 7)]
    groups += [s3(), PermGroup.symmetric(4), klein_group()]
    classes = [BElement.basis(n, i) for n in range(1, 5) for i in range(len(get_catalog(Ambient.sym(n))))]

    def results(fresh):
        out = []
        for g in groups:
            for x in _basis_elements(group_catalog(g)):
                for a in classes:
                    if fresh:
                        x.catalog._identified.clear()
                    try:
                        out.append(eval_burnside(a, x).coords)
                    except SizeCap:
                        out.append(None)
        return out

    warm = results(False)
    assert results(False) == warm
    assert results(True) == warm
    assert warm.count(None) < len(warm) // 4


def test_eval_burnside_on_cyclic_groups_matches_the_explicit_route():
    """On A(C1..C6) eval_burnside reads marks, and beta_virtual builds X^n
    and quotients it.  They agree for every class of S0..S6 on every [G/H]
    whose n-th power fits in gset_cap, and for every class of S0..S3 on the
    virtual [G/H] - [G/G], which beta_virtual reaches by extrapolation."""
    cap = config.get_config().gset_cap
    cases = 0
    for k in range(1, 7):
        g = PermGroup.cyclic(k)
        for cls_x in group_catalog(g).classes:
            x = BurnsideElement.basis(g, cls_x.index)
            virtual = x - BurnsideElement.unit(g)
            for n in range(7):
                for cls in get_catalog(Ambient.sym(n)).classes:
                    a = BElement.basis(n, cls.index)
                    if x.size() ** n <= cap:
                        assert eval_burnside(a, x) == beta_virtual(cls, x)
                        cases += 1
                    if n <= 3:
                        assert eval_burnside(a, virtual) == beta_virtual(cls, virtual)
                        cases += 1
    assert cases == 1372


def test_eval_burnside_on_cyclic_groups_passes_the_gset_cap():
    """Every class of S6 on every [G/H] of A(C2..C6): the size of the value
    is eval_z at |G/H|, the orbit count of H on |G/H|^6 tuples.  The explicit
    route refuses [C6/e]^6, 46,656 points."""
    cases = 0
    for k in range(2, 7):
        g = PermGroup.cyclic(k)
        for cls_x in group_catalog(g).classes:
            x = BurnsideElement.basis(g, cls_x.index)
            for cls in get_catalog(Ambient.sym(6)).classes:
                a = BElement.basis(6, cls.index)
                assert eval_burnside(a, x).size() == eval_z(a, x.size())
                cases += 1
    assert cases == 728
    free = BurnsideElement.basis(PermGroup.cyclic(6), "e")
    with pytest.raises(SizeCap):
        beta_virtual(sym_class(6, "e"), free)


def test_gsets_over_equal_groups_with_other_generators_combine():
    """The Klein group and the same group with its generators reversed are
    equal as PermGroups, and G/<(0 1)> over each is one action given by
    rows for other generators.  A G-set is its action by element, so
    product, sum and beta2 of G-sets over the two decompose as over one
    generator list; G-sets over unequal groups are still refused.  The same
    rows over the other generator list are another action."""
    klein = klein_group()
    flipped = PermGroup(4, klein.generators[::-1], klein.elements)
    sub = PermGroup.generate(4, [klein.generators[0]])
    x, y = GSet.coset_space(klein, sub), GSet.coset_space(flipped, sub)
    assert x == y and x.gen_action != y.gen_action
    square = orbit_decompose(x * y)
    assert sorted(square.coords) == [0] * (len(square.coords) - 1) + [2]
    assert square.catalog.classes[square.coords.index(2)].rep == sub
    pair11 = get_catalog(Ambient.pair(1, 1)).class_of("e")
    other = GSet.point(PermGroup.cyclic(4))
    for combine in (GSet.__mul__, GSet.__add__, lambda a, b: beta2_on_gsets(pair11, a, b)):
        assert orbit_decompose(combine(x, y)) == orbit_decompose(combine(x, x))
        assert orbit_decompose(combine(y, x)) == orbit_decompose(combine(y, y))
        with pytest.raises(ValueError, match="same group|common group"):
            combine(x, other)
    assert GSet(flipped, x.size, x.gen_action) != x
    assert GSet(klein, x.size, x.gen_action) == x


def test_a_group_with_other_generators_shares_the_catalog(caplog):
    """group_catalog of a group equal to an earlier one with other
    generators is the earlier catalog, enumerated and logged once.  Its
    basis G-sets, over the earlier group object, combine with G-sets over
    the other, and decompose as the product in A(G) says."""
    klein = klein_group()
    flipped = PermGroup(4, klein.generators[::-1], klein.elements)
    sub = PermGroup.generate(4, [klein.generators[0]])
    catalog.clear_memo()
    with caplog.at_level(logging.INFO, logger="betaring.catalog"):
        first = group_catalog(klein)
        assert group_catalog(flipped) is first
    assert [r.reason for r in caplog.records] == ["no cache file"]
    assert group_catalog(PermGroup.generate(4, flipped.generators)) is first
    coset = BurnsideElement.basis(klein, first.identify(sub))
    for i in range(len(first.classes)):
        basis = BurnsideElement.basis(flipped, i)
        x = basis.to_gset() * GSet.coset_space(flipped, sub)
        assert orbit_decompose(x) == basis * coset


def test_a_gset_over_generators_that_miss_elements_is_refused():
    """A G-set is read by element, so its group's generators must generate
    the group: over S4 given only by (0 1), even the point is refused."""
    transposition = Permutation.parse(4, "(0 1)")
    group = PermGroup(4, [transposition], PermGroup.symmetric(4).elements)
    with pytest.raises(ValueError, match="do not generate it"):
        GSet.point(group)
    with pytest.raises(ValueError, match="do not generate it"):
        GSet(group, 2, [(1, 0)])
