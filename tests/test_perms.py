import itertools
import math
import random

import pytest

from betaring.catalog import Ambient, get_catalog
from betaring.errors import CapExceeded, NotASubgroup
from betaring.perms import (
    Partition,
    PermGroup,
    Permutation,
    _compose,
    _mulclose,
    all_subgroups,
    are_conjugate,
    direct_embed,
    double_cosets,
    mixed_wreath,
    normalizer_order,
    orbit_partition,
    partitions,
    wreath,
)


def perm(degree, text):
    return Permutation.parse(degree, text)


def test_cycle_type_examples():
    assert Permutation.identity(3).cycle_type().parts == (1, 1, 1)
    assert perm(2, "(0 1)").cycle_type().parts == (2,)
    assert perm(6, "(0 1 2 3)(4 5)").cycle_type().parts == (4, 2)


def test_partition_validation_and_normalization():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partition_counting_identity():
    for n in range(9):
        for pi in partitions(n):
            assert pi.class_size() * pi.centralizer_order() == math.factorial(n)


def test_partitions_of_six_count():
    assert len(list(partitions(6))) == 11


def test_permutation_composition_and_inverse():
    p = perm(4, "(0 1 2)")
    q = perm(4, "(2 3)")
    assert (p * q)(2) == p(q(2))
    assert (p * p.inverse()).is_identity()
    assert Permutation.parse(4, p.cycle_string()) == p


@pytest.mark.parametrize("degree", [0, 1, 2, 7])
def test_compose_gathers_like_the_generator_expression(degree):
    """One itemgetter call, or the generator expression below two points,
    gives the tuple of p[i] for i in q, for tuple and list arguments."""
    rng = random.Random(degree)
    for _ in range(20):
        p, q = rng.sample(range(degree), degree), rng.sample(range(degree), degree)
        expected = tuple(p[i] for i in q)
        for a, b in itertools.product((p, tuple(p)), (q, tuple(q))):
            assert _compose(a, b) == expected and type(_compose(a, b)) is tuple


def test_permutation_json_roundtrip():
    p = perm(5, "(0 3)(1 4 2)")
    assert Permutation.from_json(p.to_json()) == p
    assert Permutation.from_json({"degree": 5, "cycles": p.cycle_string()}) == p


def test_generate_small_groups():
    assert PermGroup.generate(2, [perm(2, "(0 1)")]).order == 2
    assert PermGroup.generate(3, [perm(3, "(0 1)"), perm(3, "(0 1 2)")]).order == 6
    dihedral = PermGroup.generate(4, [perm(4, "(0 1)"), perm(4, "(2 3)"), perm(4, "(0 2)(1 3)")])
    assert dihedral.order == 8


def test_generate_cap():
    with pytest.raises(CapExceeded):
        PermGroup.generate(5, PermGroup.symmetric(5).generators, cap=10)


def _bfs_closure(degree, gens):
    """The group generated by image tuples, by breadth-first search: the
    reference for the closure in perms."""
    identity = tuple(range(degree))
    elements, frontier = {identity}, [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


def _closure_cases():
    rng = random.Random(11)
    cases = [
        (5, []),
        (0, []),
        (0, [()]),
        (1, [(0,)]),
        (3, [(1, 0, 2), (0, 1, 2), (1, 0, 2)]),
        (4, [(1, 2, 3, 0), (0, 1, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3), (1, 0, 2, 3)]),
    ]
    for degree in (5, 6):
        for size in (1, 2, 3):
            for _ in range(4):
                gens = [tuple(rng.sample(range(degree), degree)) for _ in range(size)]
                cases.append((degree, gens))
    return cases


@pytest.mark.parametrize("degree, gens", _closure_cases())
def test_closure_matches_a_breadth_first_search(degree, gens):
    expected = _bfs_closure(degree, gens)
    assert _mulclose(degree, gens, math.factorial(degree)) == expected
    assert PermGroup.generate(degree, gens).elements == expected


def test_generate_cap_is_exact():
    gens = PermGroup.symmetric(5).generators
    assert PermGroup.generate(5, gens, cap=120).order == 120
    with pytest.raises(CapExceeded, match="cap 119"):
        PermGroup.generate(5, gens, cap=119)


@pytest.mark.parametrize(
    "cycles",
    [["()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 1)"], ["()", "(0 1 2)"], ["(0 1)"], []],
    ids=["four-points-not-closed", "no-inverse", "no-identity", "empty"],
)
def test_from_elements_rejects_a_set_that_is_not_a_group(cycles):
    with pytest.raises(ValueError, match="not a group"):
        PermGroup.from_elements(4, [perm(4, c) for c in cycles])


def test_from_elements_accepts_the_klein_four_group():
    v4 = [perm(4, c) for c in ("()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)")]
    group = PermGroup.from_elements(4, v4)
    assert group.order == 4 and len(group.generators) == 2
    assert _bfs_closure(4, [g.images for g in group.generators]) == group.elements


@pytest.mark.parametrize(
    "group, count",
    [
        (PermGroup.symmetric(4), 30),
        (direct_embed(PermGroup.symmetric(2), PermGroup.symmetric(3)), 16),
        (PermGroup.symmetric(5), 156),
    ],
    ids=["S4", "S2xS3", "S5"],
)
def test_from_elements_picks_at_most_two_generators(group, count):
    """Every subgroup of these groups is 2-generated, and the picker finds
    a generating pair for each."""
    subgroups = all_subgroups(group)
    assert len(subgroups) == count
    for elements in subgroups:
        gens = PermGroup.from_elements(group.degree, elements).generators
        assert len(gens) <= 2
        assert _bfs_closure(group.degree, [g.images for g in gens]) == elements


def test_direct_embed():
    s1 = PermGroup.symmetric(1)
    s2 = PermGroup.symmetric(2)
    s3 = PermGroup.symmetric(3)
    assert direct_embed(s1, s1).order == 1
    assert direct_embed(s1, s1).degree == 2
    klein = direct_embed(s2, s2)
    assert klein.order == 4 and klein.degree == 4
    assert direct_embed(s2, s3).order == 12
    assert direct_embed(s2, s3).degree == 5


def test_direct_embed_cap():
    s7 = PermGroup.symmetric(7)
    with pytest.raises(CapExceeded, match="25401600"):
        direct_embed(s7, s7)


def test_wreath_degree_one_base_is_relabelled_top():
    s1 = PermGroup.symmetric(1)
    s3 = PermGroup.symmetric(3)
    assert wreath(s1, s3) == s3


def test_wreath_orders():
    s2 = PermGroup.symmetric(2)
    s3 = PermGroup.symmetric(3)
    w = wreath(s2, s2)
    assert (w.degree, w.order) == (4, 8)
    assert w == PermGroup.generate(4, [perm(4, "(0 1)"), perm(4, "(2 3)"), perm(4, "(0 2)(1 3)")])
    sylow = PermGroup.generate(4, [perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    assert are_conjugate(PermGroup.symmetric(4), w, sylow)
    assert (wreath(s2, s3).degree, wreath(s2, s3).order) == (6, 48)
    assert wreath(s3, s2).order == 72


def test_wreath_order_law():
    cases = [(2, 2), (2, 3), (3, 2), (1, 4)]
    for a, b in cases:
        h = PermGroup.symmetric(a)
        k = PermGroup.symmetric(b)
        assert wreath(h, k).order == h.order**b * k.order


def _wreath_by_blocks(h, k):
    """Every (h_0..h_{b-1}; k) of H wr K, acting by (j, i) -> (k(j), h_j(i))
    on b blocks of a points."""
    a, b = h.degree, k.degree
    elements = set()
    for base in itertools.product(sorted(h.elements), repeat=b):
        for top in k.elements:
            images = [0] * (a * b)
            for j in range(b):
                for i in range(a):
                    images[j * a + i] = top[j] * a + base[j][i]
            elements.add(tuple(images))
    return elements


def test_wreath_has_the_elements_of_the_block_action():
    """Every class pair of S_a and S_b with a*b <= 6, as star_basis composes them."""
    groups = {d: [cls.rep for cls in get_catalog(Ambient.sym(d)).classes] for d in range(7)}
    for a, b in itertools.product(range(7), repeat=2):
        if a * b > 6:
            continue
        for h, k in itertools.product(groups[a], groups[b]):
            w = wreath(h, k)
            assert w.degree == a * b
            assert w.elements == _wreath_by_blocks(h, k), (h, k)


def test_mixed_wreath_reduces_to_wreath():
    s2 = PermGroup.symmetric(2)
    assert mixed_wreath(s2, (2,), [s2]) == wreath(s2, s2)
    s1 = PermGroup.symmetric(1)
    assert mixed_wreath(s1, (1,), [s2]) == s2


def test_mixed_wreath_trivial_pattern_is_direct_product():
    s1x2 = PermGroup.trivial(2)  # trivial subgroup of S1 x S1
    s2 = PermGroup.symmetric(2)
    s1 = PermGroup.symmetric(1)
    mixed = mixed_wreath(s1x2, (1, 1), [s2, s1])
    assert (mixed.degree, mixed.order) == (3, 2)
    assert mixed == direct_embed(s2, s1)


def test_mixed_wreath_order_law():
    s2 = PermGroup.symmetric(2)
    s1 = PermGroup.symmetric(1)
    l = direct_embed(s2, s1)  # S2 x S1 acting on three slots
    grown = mixed_wreath(l, (2, 1), [s2, s2])
    assert grown.degree == 6
    assert grown.order == s2.order**2 * s2.order**1 * l.order


def test_double_cosets_trivial_cases():
    s3 = PermGroup.symmetric(3)
    assert len(double_cosets(s3, s3, s3)) == 1
    s2 = PermGroup.symmetric(2)
    e2 = PermGroup.trivial(2)
    assert len(double_cosets(s2, e2, e2)) == 2


def test_double_cosets_s3_example():
    s3 = PermGroup.symmetric(3)
    a = PermGroup.generate(3, [perm(3, "(0 1)")])
    b = PermGroup.generate(3, [perm(3, "(0 1 2)")])
    reps = double_cosets(s3, a, b)
    assert len(reps) == 1  # |A sigma B| = 6 covers all of S3


def test_double_coset_size_formula():
    g = PermGroup.symmetric(4)
    a = PermGroup.generate(4, [perm(4, "(0 1)"), perm(4, "(0 1 2)")])
    b = PermGroup.generate(4, [perm(4, "(0 1 2 3)")])
    reps = double_cosets(g, a, b)
    total = 0
    for sigma in reps:
        conj = a.conjugate(sigma.inverse())
        inter = sum(1 for x in b.elements if x in conj.elements)
        size = a.order * b.order // inter
        total += size
    assert total == g.order


def test_normalizer_and_orbit_partition():
    s3 = PermGroup.symmetric(3)
    c2 = PermGroup.generate(3, [perm(3, "(0 1)")])
    c3 = PermGroup.generate(3, [perm(3, "(0 1 2)")])
    assert normalizer_order(s3, s3) == 6
    assert normalizer_order(s3, c2) == 2
    assert normalizer_order(s3, c3) == 6
    assert orbit_partition(c2).parts == (2, 1)
    assert orbit_partition(c3).parts == (3,)
    with pytest.raises(NotASubgroup):
        normalizer_order(s3, PermGroup.symmetric(4))


def test_normalizer_divisibility():
    g = PermGroup.symmetric(4)
    for sub in [PermGroup.generate(4, [perm(4, "(0 1)")]), PermGroup.generate(4, [perm(4, "(0 1 2 3)")])]:
        norm = normalizer_order(g, sub)
        assert norm % sub.order == 0
        assert g.order % norm == 0


def test_cycle_type_is_conjugation_invariant():
    rng = random.Random(7)
    g = PermGroup.symmetric(5)
    elements = sorted(g.elements)
    for _ in range(50):
        p = Permutation(rng.choice(elements))
        q = Permutation(rng.choice(elements))
        assert (p * q * p.inverse()).cycle_type() == q.cycle_type()


def test_all_subgroups_counts():
    assert len(all_subgroups(PermGroup.symmetric(3))) == 6
    assert len(all_subgroups(PermGroup.symmetric(4))) == 30


def test_are_conjugate():
    g = PermGroup.symmetric(4)
    a = PermGroup.generate(4, [perm(4, "(0 1)")])
    b = PermGroup.generate(4, [perm(4, "(2 3)")])
    c = PermGroup.generate(4, [perm(4, "(0 1)(2 3)")])
    assert are_conjugate(g, a, b)
    assert not are_conjugate(g, a, c)


def test_group_json_roundtrip():
    g = PermGroup.generate(4, [perm(4, "(0 1 2 3)"), perm(4, "(0 2)")])
    again = PermGroup.from_json(g.to_json())
    assert again == g
