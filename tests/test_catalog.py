import os

import pytest

from betaring import catalog as cat
from betaring import config
from betaring.catalog import Ambient, build_catalog, get_catalog, subgroup_count_from_classes
from betaring.errors import DegreeCap, NotASubgroup
from betaring.perms import PermGroup, Permutation, are_conjugate, direct_embed, wreath


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
        assert len({cls.marks for cls in c.classes}) == size


def test_identify_roundtrip():
    for n in (2, 3, 4):
        c = sym(n)
        for cls in c.classes:
            assert c.identify(cls.rep) == cls.index


def test_identify_agrees_with_conjugacy_testing():
    for n in (3, 4, 5):
        c = sym(n)
        g = c.group
        sigma = Permutation.parse(n, "(0 1 2)")
        for cls in c.classes:
            conj = cls.rep.conjugate(sigma)
            assert c.identify(conj) == cls.index
            assert are_conjugate(g, conj, cls.rep)


def test_table_of_marks_determinant():
    from betaring.catalog import table_of_marks

    tom = table_of_marks(Ambient.sym(4))
    det = 1
    for i in range(len(tom.classes)):
        det *= tom.matrix[i][i]
    assert tom.determinant() == det != 0


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


def test_trivial_class_identification():
    c = sym(4)
    assert c.classes[c.identify(PermGroup.trivial(4))].order == 1


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
    reason="about a minute; set BETARING_LONG_TESTS=1 to run",
)
def test_degree_seven_catalog():
    with config.override(max_degree=7):
        c = get_catalog(Ambient.sym(7))
    assert len(c.classes) == 96
    assert c.subgroup_count == 11300
    assert subgroup_count_from_classes(c) == 11300
