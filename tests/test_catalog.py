import hashlib
import itertools
import json
import logging
import os
import random
from pathlib import Path

import pytest

from betaring import catalog as cat
from betaring import config
from betaring.catalog import (
    Ambient,
    _is_consistent,
    build_catalog,
    get_catalog,
    subgroup_count_from_classes,
)
from betaring.bring import BElement, eval_z
from betaring.errors import DegreeCap, NotASubgroup
from betaring.checks import klein_group
from betaring.perms import (
    Partition,
    PermGroup,
    Permutation,
    _compose,
    all_subgroups,
    are_conjugate,
    direct_embed,
    orbit_partition,
    wreath,
)

# Every ambient a degree <= 6 operation reads: S1..S6 and S_p x S_q, p + q <= 6.
COLD_AMBIENTS = [Ambient.sym(n) for n in range(1, 7)] + [
    Ambient.pair(p, q) for p in range(7) for q in range(7) if p + q <= 6
]


PINNED_MARKS = Path(__file__).resolve().parents[1] / "perfbench" / "pinned_marks.json"
# sha256 of json.dumps(Catalog.to_json()) for each cold ambient: labels,
# representatives' generators, aliases, normalizer orders and marks.
PINNED_CATALOGS = Path(__file__).resolve().parent / "pinned_catalogs.json"
# An S4 cache file written by the earlier Cayley-table engine, whose class
# representatives differ from the present ones.
PARENT_S4_CACHE = Path(__file__).resolve().parent / "fixtures" / "S4_v1.json"


def sym(n):
    return get_catalog(Ambient.sym(n))


def test_class_counts_small():
    assert [len(sym(n).classes) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 11, 19]


def test_subgroup_count_consistency():
    for n in (1, 2, 3, 4, 5):
        c = sym(n)
        assert subgroup_count_from_classes(c) == c.subgroup_count
    assert sym(4).subgroup_count == 30
    assert sym(5).subgroup_count == 156


def test_sym2_marks_matrix():
    assert [list(r) for r in sym(2).matrix] == [[2, 0], [1, 1]]


def test_sym3_marks_matrix():
    assert [list(r) for r in sym(3).matrix] == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_sym3_specific_marks():
    c = sym(3)
    assert c.mark("C2", "e") == 3
    assert c.mark("C2", "C2") == 1
    assert c.mark("C3", "C2") == 0
    assert all(c.mark("S3", k) == 1 for k in range(4))


def test_first_column_is_index():
    for n in (2, 3, 4):
        c = sym(n)
        for cls in c.classes:
            assert cls.marks[0] == c.group.order // cls.order


def test_triangularity_and_diagonal():
    for n in (3, 4, 5):
        c = sym(n)
        size = len(c.classes)
        for i in range(size):
            for j in range(size):
                if c.classes[j].order > c.classes[i].order:
                    assert c.matrix[i][j] == 0
            assert c.matrix[i][i] == c.classes[i].norm_order // c.classes[i].order
            assert c.classes[i].marks is c.matrix[i]  # one tuple per row
        assert len({cls.marks for cls in c.classes}) == size


def test_identify_roundtrip():
    """Each representative is identified as its own class from its
    invariants, with the memo (seeded with the representatives) emptied."""
    for n in (2, 3, 4):
        c = sym(n)
        for cls in c.classes:
            c._identified.clear()
            assert c.identify(cls.rep) == cls.index


@pytest.mark.parametrize(
    "ambient, outside",
    [(Ambient.sym(4), PermGroup.symmetric(5)), (Ambient.pair(2, 2), PermGroup.cyclic(4))],
    ids=["S4", "S2xS2"],
)
def test_identify_reads_the_element_set_and_memoizes_it(ambient, outside, monkeypatch):
    """Every subgroup of S4 and of S2 x S2, given as a PermGroup and as its
    element set, each first on an emptied memo: both forms land in the
    class whose representative is conjugate to it, and the other form is
    then a memo hit that computes no census or mark.  The empty set and a
    group outside the ambient, in either form, raise NotASubgroup and are
    not memoized."""
    c = get_catalog(ambient)
    g = c.group
    computed = []
    census, mark_of = cat.cycle_census, cat.Catalog._mark_of_subgroup
    monkeypatch.setattr(cat, "cycle_census", lambda *a: computed.append("census") or census(*a))
    monkeypatch.setattr(
        cat.Catalog, "_mark_of_subgroup", lambda *a: computed.append("mark") or mark_of(*a)
    )
    censuses = 0
    for elements in all_subgroups(g):
        h = PermGroup.from_elements(g.degree, elements)
        (expected,) = [cls.index for cls in c.classes if are_conjugate(g, h, cls.rep)]
        for first, second in ((h, elements), (elements, h)):
            c._identified.clear()
            computed.clear()
            assert c.identify(first) == expected
            censuses += computed.count("census")
            computed.clear()
            assert c.identify(second) == expected
            assert computed == []
    assert censuses  # some classes tie in order and orbit sizes
    memo = dict(c._identified)
    for bad in (frozenset(), outside, outside.elements):
        with pytest.raises(NotASubgroup):
            c.identify(bad)
    assert c._identified == memo


def test_identify_agrees_with_conjugacy_testing():
    for n in (3, 4, 5):
        c = sym(n)
        g = c.group
        sigma = Permutation.parse(n, "(0 1 2)")
        for cls in c.classes:
            conj = cls.rep.conjugate(sigma)
            assert c.identify(conj) == cls.index
            assert are_conjugate(g, conj, cls.rep)


def _totient(n):
    count = 0
    for k in range(1, n + 1):
        a, b = k, n
        while b:
            a, b = b, a % b
        count += a == 1
    return count


def test_burnside_lemma_across_the_marks_table():
    """Independent global identity: averaging fixed points over all of G
    gives 1 on every transitive G-set.  Grouping elements by the class of
    the cyclic subgroup they generate turns it into a linear relation
    between marks, conjugate counts, and totients."""
    for n in (3, 4, 5, 6):
        c = sym(n)
        order = c.group.order
        cyclic = [
            (cls, (order // cls.norm_order) * _totient(cls.order))
            for cls in c.classes
            if cls.rep.is_cyclic()
        ]
        assert sum(count for _, count in cyclic) == order
        for h in c.classes:
            total = sum(count * c.mark(h.index, cls.index) for cls, count in cyclic)
            assert total == order


def test_identify_round_trips_random_conjugates():
    rng = random.Random(20061217)
    for ambient in COLD_AMBIENTS:
        c = get_catalog(ambient)
        elements = sorted(c.group.elements)
        for cls in c.classes:
            g = Permutation(rng.choice(elements))
            assert c.identify(cls.rep.conjugate(g)) == cls.index, (ambient, cls.label)


def _census_by_cycles(rep, blocks):
    """Per-block cycle types counted with Permutation.cycles(): each cycle
    is counted in the block holding its first point, and the key is a
    Partition for one block, else a tuple of one Partition per block."""
    counts = {}
    for g in rep:
        lengths = [[] for _ in blocks]
        for cyc in g.cycles():
            lengths[next(b for b, block in enumerate(blocks) if cyc[0] in block)].append(len(cyc))
        key = tuple(Partition(ls) for ls in lengths)
        key = key[0] if len(blocks) == 1 else key
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts.items())


def _order_by_powers(g):
    order, power = 1, g
    while not power.is_identity():
        order, power = order + 1, power * g
    return order


def _is_even_by_inversions(g):
    images = g.images
    pairs = itertools.combinations(range(len(images)), 2)
    return sum(images[i] > images[j] for i, j in pairs) % 2 == 0


@pytest.mark.parametrize(
    "ambient",
    COLD_AMBIENTS + [Ambient.of_group(klein_group())],
    ids=lambda a: a.descriptor(),
)
def test_census_cyclicity_and_alternating_alias_match_oracles(ambient):
    """Catalog.census, PermGroup.is_cyclic and the A<n> alias against
    cycles, element powers and inversion parity computed here."""
    c = get_catalog(ambient)
    n = c.group.degree
    alternating = []
    for cls in c.classes:
        assert c.census(cls.index) == _census_by_cycles(cls.rep, ambient.blocks()), cls.label
        cyclic = any(_order_by_powers(g) == cls.order for g in cls.rep)
        assert cls.rep.is_cyclic() == cyclic, cls.label
        if (
            ambient.degrees == (n,)
            and n >= 3
            and 2 * cls.order == c.group.order
            and all(_is_even_by_inversions(g) for g in cls.rep)
        ):
            alternating.append(cls.index)
    assert len(alternating) == (1 if ambient.degrees == (n,) and n >= 3 else 0)
    assert [cls.index for cls in c.classes if f"A{n}" in cls.aliases] == alternating


def _brute_force_marks_row(group, h, classes):
    """Fixed points of each class representative on the left cosets gh,
    enumerated as element sets."""
    cosets = {frozenset(_compose(g, x) for x in h.elements) for g in group.elements}
    row = []
    for cls in classes:
        gens = [k.images for k in cls.rep.generators]
        row.append(
            sum(
                all(_compose(k, next(iter(coset))) in coset for k in gens)
                for coset in cosets
            )
        )
    return tuple(row)


@pytest.mark.parametrize(
    "ambient",
    [Ambient.sym(4), Ambient.sym(5), Ambient.pair(2, 2), Ambient.pair(2, 3),
     Ambient.pair(3, 3), Ambient.of_group(klein_group())],
    ids=lambda a: a.descriptor(),
)
def test_identify_matches_brute_force_marks(ambient):
    """identify agrees with matching the full marks row of every subgroup
    (for S5 and S3xS3, of a random conjugate of every class representative).
    In the Klein group <(0 1)> and <(2 3)> share order, orbit partition and
    cycle types, so only their marks tell them apart."""
    c = get_catalog(ambient)
    if c.group.order <= 24:
        subgroups = [PermGroup.from_elements(c.group.degree, s) for s in all_subgroups(c.group)]
    else:
        rng = random.Random(5)
        elements = sorted(c.group.elements)
        subgroups = [cls.rep.conjugate(Permutation(rng.choice(elements))) for cls in c.classes]
    for h in subgroups:
        row = _brute_force_marks_row(c.group, h, c.classes)
        (expected,) = [cls.index for cls in c.classes if cls.marks == row]
        assert c.identify(h) == expected


def test_identify_distinguishes_klein_copies():
    c = sym(4)
    normal = PermGroup.generate(4, [Permutation.parse(4, "(0 1)(2 3)"), Permutation.parse(4, "(0 2)(1 3)")])
    split = PermGroup.generate(4, [Permutation.parse(4, "(0 1)"), Permutation.parse(4, "(2 3)")])
    i, j = c.identify(normal), c.identify(split)
    assert i != j
    assert c.classes[i].order == c.classes[j].order == 4
    assert c.classes[i].marks != c.classes[j].marks


def test_identify_wreath_is_the_order_eight_class():
    c = sym(4)
    s2 = PermGroup.symmetric(2)
    idx = c.identify(wreath(s2, s2))
    assert c.classes[idx].order == 8
    assert sum(1 for cls in c.classes if cls.order == 8) == 1


def test_identify_rejects_non_subgroups():
    with pytest.raises(NotASubgroup):
        sym(3).identify(PermGroup.symmetric(4))
    swap_across_blocks = PermGroup.generate(4, [Permutation.parse(4, "(1 2)")])
    with pytest.raises(NotASubgroup):
        get_catalog(Ambient.pair(2, 2)).identify(swap_across_blocks)
    with pytest.raises(NotASubgroup):
        get_catalog(Ambient.of_group(klein_group())).identify(
            PermGroup.generate(4, [Permutation.parse(4, "(0 2)")])
        )


def test_identify_refuses_an_element_set_that_is_not_closed():
    """{e, (0 1 2 3)} holds the identity and lies in S4 but is not a group:
    it raises, as a set and as an iterator, and is not memoized, so a
    later call raises too."""
    c = sym(4)
    memo = dict(c._identified)
    not_closed = frozenset({(0, 1, 2, 3), (1, 2, 3, 0)})
    for h in (not_closed, iter(not_closed), not_closed):
        with pytest.raises(NotASubgroup, match="not closed"):
            c.identify(h)
    assert c._identified == memo


def test_trivial_class_identification():
    c = sym(4)
    assert c.classes[c.identify(PermGroup.trivial(4))].order == 1


@pytest.mark.parametrize("degrees", [(-1,), (3, -3), (2.5,), ("3",)])
def test_ambient_refuses_a_degree_that_is_not_a_nonnegative_integer(degrees):
    with pytest.raises(ValueError, match="nonnegative integers"):
        Ambient.prod(degrees)
    with pytest.raises(ValueError, match="nonnegative integers"):
        get_catalog(Ambient.prod(degrees))


@pytest.mark.parametrize(
    "fields",
    [{"degrees": (-2,)}, {"degrees": (2.0,)}, {"degrees": [2]}, {}, {"degrees": (2,), "group": PermGroup.cyclic(2)}],
)
def test_ambient_constructor_validates(fields):
    """The dataclass constructor checks what Ambient.prod checks:
    Ambient(degrees=(-2,)) was an ambient named S-2."""
    with pytest.raises(ValueError):
        Ambient(**fields)


def test_ambient_hash_is_the_hash_of_its_fields():
    g, h = PermGroup.cyclic(4), PermGroup.generate(4, [[3, 0, 1, 2]])
    assert g == h and g.generators != h.generators
    assert Ambient.of_group(g) == Ambient.of_group(h) and hash(Ambient.of_group(h)) == hash((None, g))
    assert Ambient(degrees=(3, 2)) == Ambient.prod([3, 2]) and hash(Ambient.pair(3, 2)) == hash(((3, 2), None))


def test_basis_of_a_negative_degree_is_refused():
    with pytest.raises(ValueError, match="nonnegative integers"):
        BElement.basis(-1, 0)


def test_pair_ambient_catalog():
    c = get_catalog(Ambient.pair(2, 2))
    assert c.group == direct_embed(PermGroup.symmetric(2), PermGroup.symmetric(2))
    assert len(c.classes) == 5
    assert c.classes[-1].order == 4


def test_degenerate_pair_ambient():
    c = get_catalog(Ambient.pair(0, 2))
    assert len(c.classes) == 2
    assert c.group.degree == 2


def test_degree_cap():
    with config.override(max_degree=3):
        with pytest.raises(DegreeCap):
            build_catalog(Ambient.sym(4))


def test_labels_and_aliases():
    c = sym(3)
    assert c.class_index("e") == 0
    assert c.class_index("C2") == 1
    assert c.class_index("C3") == 2
    assert c.class_index("A3") == 2
    assert c.class_index("S3") == 3
    assert c.class_of("C2").ptype.parts == (2, 1)


def test_norm_order_matches_brute_force():
    from betaring.perms import normalizer_order

    c = sym(4)
    for cls in c.classes:
        assert cls.norm_order == normalizer_order(c.group, cls.rep)


def test_json_roundtrip_and_disk_cache(tmp_path):
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        built = get_catalog(Ambient.sym(3))
        assert (tmp_path / "S3_v1.json").exists()
        cat.clear_memo()
        loaded = get_catalog(Ambient.sym(3))
        assert [c.label for c in loaded.classes] == [c.label for c in built.classes]
        assert loaded.matrix == built.matrix
        assert loaded.subgroup_count == built.subgroup_count
        assert [c.rep for c in loaded.classes] == [c.rep for c in built.classes]
    cat.clear_memo()


def test_cache_write_leaves_other_writers_files_alone(tmp_path):
    """A temporary file another writer is still filling is neither read
    nor overwritten, and a build leaves no temporary file of its own."""
    stale = tmp_path / "S3_v1.tmp"
    stale.write_text("partial write of another process")
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        built = get_catalog(Ambient.sym(3))
    cat.clear_memo()
    assert len(built.classes) == 4
    assert stale.read_text() == "partial write of another process"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["S3_v1.json", "S3_v1.tmp"]
    assert (tmp_path / "S3_v1.json").stat().st_mode & 0o777 == 0o644


def test_failed_cache_write_removes_its_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cat.os, "replace", refuse)
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        with pytest.warns(UserWarning, match="rename refused"):
            built = get_catalog(Ambient.sym(3))
    cat.clear_memo()
    assert len(built.classes) == 4
    assert list(tmp_path.iterdir()) == []


def test_unwritable_cache_warns_and_still_builds(tmp_path):
    """A cache directory beneath a regular file cannot be made (permission
    bits would not stop a superuser); the build warns once and goes on."""
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("a regular file")
    directory = blocker / "catalogs"
    cat.clear_memo()
    reference = [c.label for c in get_catalog(Ambient.sym(4)).classes]
    with config.override(catalog_dir=str(directory)):
        cat.clear_memo()
        with pytest.warns(UserWarning) as record:
            built = get_catalog(Ambient.sym(4))
    cat.clear_memo()
    assert [c.label for c in built.classes] == reference
    assert len(record) == 1 and str(directory / "S4_v1.json") in str(record[0].message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["not_a_directory"]
    assert blocker.read_text() == "a regular file"


def test_group_table_rejects_generators_that_miss_elements():
    transposition = Permutation.parse(4, "(0 1)")
    group = PermGroup(4, [transposition], set(itertools.permutations(range(4))))
    with pytest.raises(ValueError, match=r"PermGroup\(degree=4, order=24, gens=<\(0 1\)>\)"):
        build_catalog(Ambient.of_group(group))


def test_a_reused_build_rejects_generators_that_miss_elements(tmp_path):
    """A concrete group equal to an earlier build takes that build, and is
    still checked for generators that do not generate it."""
    transposition = Permutation.parse(4, "(0 1)")
    group = PermGroup(4, [transposition], set(itertools.permutations(range(4))))
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(4))
        with pytest.raises(ValueError, match="do not generate it"):
            get_catalog(Ambient.of_group(group))
    cat.clear_memo()


def _derived_subgroup(group):
    """The normal closure of the commutators a^-1 b^-1 a b of pairs of
    generators: G modulo it is abelian, so it is the derived subgroup."""

    def inverse(p):
        inv = [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        return tuple(inv)

    gens = [g.images for g in group.generators]
    found = {_compose(_compose(inverse(a), inverse(b)), _compose(a, b)) for a in gens for b in gens}
    while True:
        sub = PermGroup.generate(group.degree, sorted(found))
        conjugates = {
            _compose(_compose(g, k.images), inverse(g)) for g in gens for k in sub.generators
        }
        if conjugates <= sub.elements:
            return sub
        found |= conjugates


@pytest.mark.parametrize("seed", cat.PERFECT_SEEDS, ids=lambda s: f"d{s[0]}-o{s[1]}")
def test_perfect_seeds_have_their_orders_and_are_perfect(seed):
    degree, order, cycles = seed
    group = PermGroup.generate(degree, [Permutation.parse(degree, c) for c in cycles])
    assert group.order == order
    assert _derived_subgroup(group) == group
    assert _derived_subgroup(PermGroup.symmetric(degree)) != PermGroup.symmetric(degree)


def _agl_1_8():
    """x -> a*x + b on F8, a point being the 3-bit code of c0 + c1 t + c2 t^2
    with t^3 = t + 1: the translations and the multiplication by t."""
    gens = [[x ^ b for x in range(8)] for b in (1, 2, 4)]
    gens.append([(x >> 2) | ((x ^ (x >> 2)) & 1) << 1 | (x >> 1 & 1) << 2 for x in range(8)])
    return PermGroup.generate(8, [Permutation(g) for g in gens])


DEGREE_EIGHT = {  # name: (generators or group, order, solvable)
    "PSL(2,7)": (("(0 1 2 3 4 5 6)", "(0 7)(1 6)(2 3)(4 5)"), 168, False),
    "AGL(3,2)": (("(1 2 4 3 6 7 5)", "(4 5)(6 7)", "(0 1)(2 3)(4 5)(6 7)"), 1344, False),
    "S5": (("(0 1)", "(0 1 2 3 4)"), 120, False),
    "S4xS3": (("(0 1)", "(0 1 2 3)", "(4 5)", "(4 5 6)"), 144, True),
    "S4wrC2": (("(0 1)", "(0 1 2 3)", "(0 4)(1 5)(2 6)(3 7)"), 1152, True),
    "Sylow2(S8)": (("(0 1)", "(0 2)(1 3)", "(0 4)(1 5)(2 6)(3 7)"), 128, True),
    "AGL(1,8)": (None, 56, True),
}


@pytest.mark.parametrize("name", DEGREE_EIGHT)
def test_is_solvable_at_degree_eight_follows_the_derived_series(name):
    cycles, order, solvable = DEGREE_EIGHT[name]
    if cycles is None:
        group = _agl_1_8()
    else:
        group = PermGroup.generate(8, [Permutation.parse(8, c) for c in cycles])
    assert group.order == order
    term = group
    while (derived := _derived_subgroup(term)) != term:
        term = derived
    assert (term.order == 1) == solvable
    assert cat._is_solvable(group) == solvable


def test_an_insoluble_group_past_the_seed_table_is_refused():
    cycles = DEGREE_EIGHT["PSL(2,7)"][0]
    psl = PermGroup.generate(8, [Permutation.parse(8, c) for c in cycles])
    with pytest.raises(ValueError, match="insoluble"):
        build_catalog(Ambient.of_group(psl))


def test_of_group_a5_and_psl32():
    """A5 is a seed; PSL(3,2), of order 168, is one although 60 does not
    divide its order."""
    a5 = PermGroup.generate(5, [Permutation.parse(5, "(0 1 2)"), Permutation.parse(5, "(0 1 2 3 4)")])
    built = build_catalog(Ambient.of_group(a5))
    assert (len(built.classes), built.subgroup_count) == (9, 59)
    assert [c.order for c in built.classes] == [1, 2, 3, 4, 5, 6, 10, 12, 60]
    psl = PermGroup.generate(7, [Permutation.parse(7, c) for c in ("(0 1 2 3 4 5 6)", "(2 4)(5 6)")])
    built = build_catalog(Ambient.of_group(psl))
    assert (len(built.classes), built.subgroup_count) == (15, 179)
    assert _is_consistent(built)


def test_groups_past_the_seed_table_are_enumerated_when_solvable():
    """Degree 8 is past the seed table: a solvable group has no perfect
    subgroup and is enumerated, an insoluble one is refused."""
    c4 = PermGroup.generate(8, [Permutation.parse(8, "(0 1 2 3)")])
    assert [c.order for c in build_catalog(Ambient.of_group(c4)).classes] == [1, 2, 4]
    c8 = PermGroup.generate(8, [Permutation.parse(8, "(0 1 2 3 4 5 6 7)")])
    assert [c.order for c in build_catalog(Ambient.of_group(c8)).classes] == [1, 2, 4, 8]
    cycles = ("(0 1)", "(0 1 2 3)", "(4 5)", "(4 5 6)")
    s4_s3 = PermGroup.generate(8, [Permutation.parse(8, c) for c in cycles])  # order 144
    built = build_catalog(Ambient.of_group(s4_s3))
    assert (len(built.classes), built.subgroup_count) == (70, 372)  # 372 by perms.all_subgroups
    assert _is_consistent(built)
    s5 = PermGroup.generate(8, [Permutation.parse(8, c) for c in ("(0 1)", "(0 1 2 3 4)")])
    with pytest.raises(ValueError, match="perfect subgroups are tabulated up to degree 7"):
        build_catalog(Ambient.of_group(s5))


def test_a_cache_file_of_the_earlier_engine_loads_without_a_rebuild(tmp_path, monkeypatch):
    """Representatives differ from a fresh build, every table entry agrees."""
    (tmp_path / "S4_v1.json").write_bytes(PARENT_S4_CACHE.read_bytes())
    fresh = build_catalog(Ambient.sym(4))
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        monkeypatch.setattr(cat, "build_catalog", lambda ambient: pytest.fail("rebuilt"))
        loaded = get_catalog(Ambient.sym(4))
    cat.clear_memo()
    assert [c.label for c in loaded.classes] == [c.label for c in fresh.classes]
    assert loaded.matrix == fresh.matrix
    assert [c.norm_order for c in loaded.classes] == [c.norm_order for c in fresh.classes]
    assert [c.aliases for c in loaded.classes] == [c.aliases for c in fresh.classes]
    assert [c.rep.generators for c in loaded.classes] != [c.rep.generators for c in fresh.classes]
    assert (tmp_path / "S4_v1.json").read_bytes() == PARENT_S4_CACHE.read_bytes()


def _tom_digest(catalog):
    labels = [cls.label for cls in catalog.classes]
    matrix = [list(row) for row in catalog.matrix]
    return hashlib.sha256(json.dumps([labels, matrix]).encode()).hexdigest()


@pytest.mark.parametrize("ambient", COLD_AMBIENTS, ids=lambda a: a.descriptor())
def test_cold_build_is_unchanged(ambient):
    """A fresh build gives the pinned labels and tables of marks; where
    |G| <= 120 every marks row also equals fixed cosets counted directly."""
    pinned = json.loads(PINNED_MARKS.read_text())
    built = build_catalog(ambient)
    assert _tom_digest(built) == pinned[ambient.descriptor()]
    assert _is_consistent(built)
    if ambient == Ambient.sym(6):
        assert (len(built.classes), built.subgroup_count) == (56, 1455)
    if built.group.order <= 120:
        for cls, row in zip(built.classes, built.matrix):
            assert _brute_force_marks_row(built.group, cls.rep, built.classes) == row, cls.label


@pytest.mark.parametrize("ambient", COLD_AMBIENTS, ids=lambda a: a.descriptor())
def test_cold_build_pins_the_full_catalog(ambient):
    """Everything a cache file holds is pinned, not only labels and marks."""
    pinned = json.loads(PINNED_CATALOGS.read_text())
    text = json.dumps(build_catalog(ambient).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == pinned[ambient.descriptor()]


def test_representatives_keep_short_generating_sets():
    """Every cache file loads by closing each representative from its
    generators: at most three per class, 749 in all over the 34 files."""
    counts = [
        len(cls.rep.generators) for ambient in COLD_AMBIENTS for cls in build_catalog(ambient).classes
    ]
    assert max(counts) <= 3 and sum(counts) <= 749


def _set_mark(data, i, j, value):
    data["marks_matrix"][i][j] = value


def _swap_classes(data, i, j):
    """Renumber classes i and j consistently: generators, rows and columns."""
    classes, matrix = data["classes"], data["marks_matrix"]
    classes[i], classes[j] = classes[j], classes[i]
    matrix[i], matrix[j] = matrix[j], matrix[i]
    for row in matrix:
        row[i], row[j] = row[j], row[i]


CORRUPTIONS = {
    "diagonal": lambda data: _set_mark(data, 5, 5, data["marks_matrix"][5][5] + 1),
    "above-diagonal": lambda data: _set_mark(data, 2, 5, 1),
    # row 6 becomes (6, 6, 1, ...): 1 is not a multiple of the diagonal mark
    "below-diagonal": lambda data: _set_mark(data, 6, 2, data["marks_matrix"][6][2] + 1),
    "zero-diagonal": lambda data: _set_mark(data, 5, 5, 0),
    "column-0": lambda data: _set_mark(data, 3, 0, data["marks_matrix"][3][0] + 2),
    "subgroup-count": lambda data: data.__setitem__("subgroup_count", data["subgroup_count"] + 1),
    "missing-row": lambda data: data["marks_matrix"].pop(),
    "no-classes": lambda data: data.update(classes=[], marks_matrix=[], subgroup_count=0),
    # C4 (o4-4-a) and the normal V4 (o4-4-b) exchanged: every table-of-marks
    # invariant still holds, but a build orders them by their mark rows
    "swapped-classes": lambda data: _swap_classes(data, 4, 6),
    # S2 x S2's o2-2.1.1-a = <(2 3)> and o2-2.1.1-b = <(0 1)> exchanged: the
    # factor swap maps one table onto the other, so only their orbit sizes
    # per factor tell them apart
    "swapped-factor-classes": lambda data: _swap_classes(data, 1, 2),
}
# The ambient of each corrupted file, S4 unless named here.
CORRUPTED_AMBIENTS = {"swapped-factor-classes": Ambient.pair(2, 2)}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupt_cache_is_rebuilt_and_repaired(tmp_path, name):
    ambient = CORRUPTED_AMBIENTS.get(name, Ambient.sym(4))
    fresh = build_catalog(ambient)
    path = tmp_path / f"{ambient.descriptor()}_v1.json"
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(ambient)
        clean = path.read_text()
        data = json.loads(clean)
        CORRUPTIONS[name](data)
        path.write_text(json.dumps(data))
        cat.clear_memo()
        loaded = get_catalog(ambient)
    cat.clear_memo()
    assert [c.label for c in loaded.classes] == [c.label for c in fresh.classes]
    assert [c.rep for c in loaded.classes] == [c.rep for c in fresh.classes]
    assert [c.marks for c in loaded.classes] == [c.marks for c in fresh.classes]
    assert loaded.matrix == fresh.matrix
    assert loaded.subgroup_count == fresh.subgroup_count
    assert path.read_text() == clean


def test_a_build_and_a_load_scan_each_class_for_orbits_once(tmp_path, monkeypatch):
    """The orbit sizes per factor order the classes and give the orbit
    partition, so a build and a load each scan every representative's
    points once.  Merged, they are the orbit partition of the whole group."""
    scanned = []
    real = cat.block_orbits

    def counted(elements, blocks):
        scanned.append(elements)
        return real(elements, blocks)

    monkeypatch.setattr(cat, "block_orbits", counted)
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        built = get_catalog(Ambient.pair(3, 3))
        assert len(scanned) == len(built.classes)
        cat.clear_memo()
        scanned.clear()
        builds = _counted_builds(monkeypatch)
        loaded = get_catalog(Ambient.pair(3, 3))
        assert builds == [] and len(scanned) == len(loaded.classes)
    cat.clear_memo()
    assert loaded.to_json() == built.to_json()
    for cls in loaded.classes:
        assert cls.ptype == orbit_partition(cls.rep)
        assert [sum(sizes) for sizes in cls.factor_orbits] == [3, 3]


def test_a_representative_outside_the_ambient_is_rebuilt(tmp_path):
    """In S2 x S2, <(0 1)(2 3)> replaced in the file by <(0 2)(1 3)>, of the
    same order and orbit partition but outside the group, is refused."""
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        fresh = get_catalog(Ambient.pair(2, 2))
        path = tmp_path / "S2xS2_v1.json"
        clean = path.read_text()
        data = json.loads(clean)
        i = fresh.class_index("o2-2.2")
        data["classes"][i]["generators"] = [[2, 3, 0, 1]]
        path.write_text(json.dumps(data))
        cat.clear_memo()
        loaded = get_catalog(Ambient.pair(2, 2))
        assert loaded.classes[i].rep == fresh.classes[i].rep
        assert path.read_text() == clean
    cat.clear_memo()


def test_a_concrete_groups_catalog_writes_json_that_does_not_load():
    """to_json of a concrete group's catalog writes a null ambient beside the
    descriptor that names the group, and from_json refuses that data."""
    data = get_catalog(Ambient.of_group(klein_group())).to_json()
    assert data["ambient"] is None and data["descriptor"] == "G4d4"
    assert json.loads(json.dumps(data)) == data
    with pytest.raises(ValueError, match="G4d4"):
        cat.Catalog.from_json(data)


def _move_alias(classes, alias, source, target):
    classes[source]["aliases"].remove(alias)
    classes[target]["aliases"].append(alias)


# Edits of the fields a full v1 file (`Catalog.to_json()` of S4) holds but a
# load derives from generators and marks; class 9 is A4 and class 4 is C4.
DERIVED_FIELD_EDITS = {
    "alias": lambda classes: _move_alias(classes, "A4", 9, 4),
    "label": lambda classes: classes[4].__setitem__("label", "o12-4"),
    "ptype": lambda classes: classes[9].__setitem__("ptype", [3, 1]),
    "order": lambda classes: classes[9].__setitem__("order", 6),
    "norm_order": lambda classes: classes[9].__setitem__("norm_order", 12),
    "marks": lambda classes: classes[9]["marks"].__setitem__(1, 7),
}


@pytest.mark.parametrize("edit", DERIVED_FIELD_EDITS.values(), ids=DERIVED_FIELD_EDITS.keys())
def test_a_full_v1_file_is_read_through_generators_and_marks(tmp_path, monkeypatch, edit):
    """A file that still holds every field of `to_json()`, one of its
    derived fields edited, loads without a rebuild as the catalog a build
    gives: the edited field is never read."""
    fresh = build_catalog(Ambient.sym(4))
    data = fresh.to_json()
    edit(data["classes"])
    (tmp_path / "S4_v1.json").write_text(json.dumps(data))
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        monkeypatch.setattr(cat, "build_catalog", lambda ambient: pytest.fail("rebuilt"))
        loaded = get_catalog(Ambient.sym(4))
        assert loaded.to_json() == fresh.to_json()
        assert loaded.class_of("A4").order == 12
        assert eval_z(BElement.basis(4, "A4"), 2) == 5
    cat.clear_memo()


def test_valid_cache_loads_without_a_rebuild(tmp_path, monkeypatch):
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        built = [get_catalog(a) for a in COLD_AMBIENTS]

        def refuse(ambient):
            raise AssertionError(f"{ambient.descriptor()} was rebuilt")

        monkeypatch.setattr(cat, "build_catalog", refuse)
        cat.clear_memo()
        loaded = [get_catalog(a) for a in COLD_AMBIENTS]
    cat.clear_memo()
    assert [c.matrix for c in loaded] == [c.matrix for c in built]


def _counted_builds(monkeypatch):
    """Patch build_catalog to record each ambient it builds."""
    built = []
    real = cat.build_catalog

    def counted(ambient):
        built.append(ambient)
        return real(ambient)

    monkeypatch.setattr(cat, "build_catalog", counted)
    return built


def _assert_same_catalog(a, b):
    assert [c.label for c in a.classes] == [c.label for c in b.classes]
    assert [c.aliases for c in a.classes] == [c.aliases for c in b.classes]
    assert [(c.rep, c.rep.generators) for c in a.classes] == [
        (c.rep, c.rep.generators) for c in b.classes
    ]
    assert a.matrix == b.matrix and a.subgroup_count == b.subgroup_count
    assert a.group.generators == b.group.generators


def test_shared_builds_are_the_pinned_catalogs(tmp_path, monkeypatch):
    """Filling an empty directory enumerates each of the 22 distinct groups
    once; each file, reused catalogs' too, holds no derived field and loads
    back as the pinned catalog, and concrete groups equal to S2, S3 and S4
    take those builds too, with their own generators."""
    pinned = json.loads(PINNED_CATALOGS.read_text())
    header = {"ambient", "descriptor", "version", "degree", "group_order", "subgroup_count"}
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        built = _counted_builds(monkeypatch)
        for ambient in COLD_AMBIENTS:
            get_catalog(ambient)
        for ambient in COLD_AMBIENTS:
            data = json.loads((tmp_path / f"{ambient.descriptor()}_v1.json").read_text())
            assert set(data) == header | {"classes", "marks_matrix"}
            assert all(set(c) == {"generators"} for c in data["classes"])
            text = json.dumps(cat.Catalog.from_json(data).to_json())
            assert hashlib.sha256(text.encode()).hexdigest() == pinned[ambient.descriptor()], ambient
        assert len(built) == 22
        assert Ambient.pair(0, 6) not in built and Ambient.pair(6, 0) not in built
        other_gens = [Permutation.parse(4, "(0 1 2 3)"), Permutation.parse(4, "(1 2)")]
        for group in (PermGroup.cyclic(2), PermGroup.symmetric(3), PermGroup.generate(4, other_gens)):
            reused = get_catalog(Ambient.of_group(group))
            assert len(built) == 22
            _assert_same_catalog(reused, build_catalog(Ambient.of_group(group)))
    cat.clear_memo()


def test_loaded_catalogs_are_never_a_source(tmp_path, monkeypatch):
    """clear_memo forgets the S3 build as well; S3 then comes from its file,
    and a concrete group equal to S3 is still enumerated."""
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(3))
        cat.clear_memo()
        assert cat._BUILT == {}
        built = _counted_builds(monkeypatch)
        get_catalog(Ambient.sym(3))
        assert built == []
        get_catalog(Ambient.of_group(PermGroup.symmetric(3)))
        assert built == [Ambient.of_group(PermGroup.symmetric(3))]
    cat.clear_memo()


def test_a_loaded_catalog_does_not_reach_an_equal_group(tmp_path):
    """A below-diagonal mark raised by the diagonal passes `_is_consistent`;
    the S0 x S4 catalog built after loading it is still a fresh build."""
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(4))
        path = tmp_path / "S4_v1.json"
        data = json.loads(path.read_text())
        _set_mark(data, 6, 2, data["marks_matrix"][6][2] + data["marks_matrix"][6][6])
        path.write_text(json.dumps(data))
        cat.clear_memo()
        assert get_catalog(Ambient.sym(4)).matrix[6][2] == 6
        _assert_same_catalog(get_catalog(Ambient.pair(0, 4)), build_catalog(Ambient.pair(0, 4)))
    cat.clear_memo()


def test_reuse_rejects_generators_that_miss_elements(tmp_path):
    """The check a build makes while tabulating the group holds when its
    enumeration is reused."""
    transposition = Permutation.parse(4, "(0 1)")
    group = PermGroup(4, [transposition], set(itertools.permutations(range(4))))
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(4))
        with pytest.raises(ValueError, match="generators"):
            get_catalog(Ambient.of_group(group))
    cat.clear_memo()


def test_builds_and_reuses_are_logged(tmp_path, caplog):
    """One INFO record per build or reuse, none for a memo hit or a load."""
    with config.override(catalog_dir=str(tmp_path)), caplog.at_level(logging.INFO, "betaring"):
        cat.clear_memo()
        get_catalog(Ambient.sym(3))
        get_catalog(Ambient.pair(0, 3))
        get_catalog(Ambient.sym(3))
        (tmp_path / "S2_v1.json").write_text("{")
        get_catalog(Ambient.sym(2))
        cat.clear_memo()
        get_catalog(Ambient.sym(3))
    cat.clear_memo()
    assert [(r.ambient, r.reason, r.classes, r.subgroups) for r in caplog.records] == [
        ("S3", "no cache file", 4, 6),
        ("S0xS3", "equal to an earlier build", 4, 6),
        ("S2", "invalid cache file", 2, 2),
    ]
    assert all(r.name.startswith("betaring") and r.levelno == logging.INFO for r in caplog.records)
    assert all(0 <= r.seconds < 60 for r in caplog.records)
    assert caplog.records[0].getMessage().startswith("catalog S3 (no cache file): 4 classes, 6 subgroups in ")


def test_a_warm_load_closes_each_generating_set_once(tmp_path, monkeypatch):
    """Loading every cache file closes each distinct (degree, generators)
    once: the 39 files of the cold ambients and of the longer products that
    star splits along hold 474 representatives and 177 generating sets.
    Each class still gets a group object of its own, with its own file's
    generators, and the elements of a fresh closure."""
    longer = ((1, 1, 1), (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))
    ambients = COLD_AMBIENTS + [Ambient.prod(p) for p in longer]
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        for ambient in ambients:
            get_catalog(ambient)
        cat.clear_memo()
        closed = []
        generate = PermGroup.generate.__func__

        def counted(cls, degree, generators, cap=cat.GROUP_CAP):
            closed.append((degree, tuple(g.images for g in generators)))
            return generate(cls, degree, generators, cap)

        monkeypatch.setattr(PermGroup, "generate", classmethod(counted))
        loaded = [get_catalog(a) for a in ambients]
        monkeypatch.undo()
    cat.clear_memo()
    assert len(closed) == len(set(closed)) == 177
    assert sum(len(c.classes) for c in loaded) == 474
    reps = [cls.rep for c in loaded for cls in c.classes]
    assert len({id(rep) for rep in reps}) == len(reps)
    for ambient, c in zip(ambients, loaded):
        data = json.loads((tmp_path / f"{ambient.descriptor()}_v1.json").read_text())
        for cls, entry in zip(c.classes, data["classes"]):
            assert [list(g.images) for g in cls.rep.generators] == entry["generators"]
            fresh = PermGroup.generate(cls.rep.degree, cls.rep.generators)
            assert cls.rep.elements == fresh.elements


def test_a_bad_order_is_caught_after_the_same_generators_loaded(tmp_path, caplog):
    """S0 x S3 is written with the representatives of S3.  With its C3
    class given the generator of C2 in its file, so that both closures come
    from the S3 load, it is still rebuilt when S3 was loaded first, and
    clear_memo forgets the closed generating sets."""
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(3))
        get_catalog(Ambient.pair(0, 3))
        path = tmp_path / "S0xS3_v1.json"
        clean = path.read_text()
        data = json.loads(clean)
        s3_classes = json.loads((tmp_path / "S3_v1.json").read_text())["classes"]
        assert [c["generators"] for c in data["classes"]] == [c["generators"] for c in s3_classes]
        data["classes"][2]["generators"] = data["classes"][1]["generators"]
        path.write_text(json.dumps(data))
        cat.clear_memo()
        assert cat._CLOSURES == {}
        get_catalog(Ambient.sym(3))
        assert cat._CLOSURES
        with caplog.at_level(logging.INFO, "betaring"):
            get_catalog(Ambient.pair(0, 3))
        assert [(r.ambient, r.reason) for r in caplog.records] == [("S0xS3", "invalid cache file")]
        assert path.read_text() == clean
        cat.clear_memo()
        assert cat._CLOSURES == {}


def test_degree_ambients_are_interned():
    assert Ambient.sym(3) is Ambient.prod([3]) is Ambient.prod((3,))
    assert Ambient.prod([2, 3]) is Ambient.pair(2, 3)
    assert Ambient.prod(iter([1, 1, 1])) is Ambient.prod((1, 1, 1))
    assert Ambient.sym(2) is not Ambient.pair(2, 0)


def test_degree_cap_holds_on_a_memo_hit():
    get_catalog(Ambient.sym(4))
    with config.override(max_degree=3):
        with pytest.raises(DegreeCap):
            get_catalog(Ambient.sym(4))


def test_degree_cap_holds_on_a_cache_load(tmp_path):
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(4))
        cat.clear_memo()
        with config.override(max_degree=3):
            with pytest.raises(DegreeCap):
                get_catalog(Ambient.sym(4))
        assert Ambient.sym(4) not in cat._CATALOGS
    cat.clear_memo()


def test_degree_cap_holds_before_a_reuse(tmp_path):
    with config.override(catalog_dir=str(tmp_path)):
        cat.clear_memo()
        get_catalog(Ambient.sym(4))
        with config.override(max_degree=3):
            with pytest.raises(DegreeCap):
                get_catalog(Ambient.pair(0, 4))
        assert not (tmp_path / "S0xS4_v1.json").exists()
    cat.clear_memo()


def test_deterministic_rebuild():
    a = build_catalog(Ambient.sym(4))
    b = build_catalog(Ambient.sym(4))
    assert [c.label for c in a.classes] == [c.label for c in b.classes]
    assert a.matrix == b.matrix
    assert [c.rep for c in a.classes] == [c.rep for c in b.classes]


def test_group_kind_ambient():
    g = PermGroup.symmetric(3)
    c = get_catalog(Ambient.of_group(g))
    assert len(c.classes) == 4
    assert not Ambient.of_group(g).cacheable


@pytest.mark.skipif(
    not os.environ.get("BETARING_LONG_TESTS"),
    reason="about half a second; set BETARING_LONG_TESTS=1 to run",
)
def test_degree_seven_catalog():
    with config.override(max_degree=7):
        c = get_catalog(Ambient.sym(7))
    assert len(c.classes) == 96
    assert c.subgroup_count == 11300
    assert subgroup_count_from_classes(c) == 11300
