"""Conjugacy classes of subgroups, marks, and tables of marks.

Ambients are the symmetric groups S_n, products S_p x S_q (and longer
products, needed to split elements over several summands), or an
arbitrary small permutation group G (the basis data for A(G)).

Enumeration (`build_catalog`, the cold path) is breadth-first cyclic
extension over an integer Cayley table of G: one queue over the classes,
starting with the trivial class, adjoins a representative g of every
double coset HgH outside H to each class representative H and reduces
modulo conjugacy.  The extensions of the trivial class are the cyclic
subgroups <x>, each computed once per element.  Every subgroup
K = <g_1,...,g_s> is reached through the chain
<g_1> <= <g_1,g_2> <= ..., so the scan is exhaustive.  The table
composes permutation tuples only for the rows of G's generators and
reaches every other row by breadth-first search, one index gather per
row.  Each new class records all its conjugates, found as its orbit
under conjugation by the generators of G (2|H|[G:N(H)] lookups instead
of |G||H|), which makes deduplication a set lookup and yields normalizer
orders for free.  Each extension <H, g> is closed coset by coset over
the larger of H and <g> (Dimino's algorithm).  Marks come from one pass
of containment over every pair of classes: mark(H, K) = #{conjugates of
H containing K} * |N(H)|/|H|; the class ordering and the final matrix
both read that pass.  The Cayley table lives only while a catalog is
enumerated.

`get_catalog` enumerates each group at most once per process.  An ambient
whose group (degree and element set) equals that of an earlier build,
such as S0 x Sn and Sn x S0 after Sn, takes that build's representatives,
labels and marks and adds only its own aliases and group object.  The
enumeration reads only the element set, so this is what a build would
give; `build_catalog` itself always enumerates.

A catalog read from the JSON cache is checked against invariants every
table of marks satisfies (`_is_consistent`) and rebuilt if it fails.  It
is never reused for another ambient, so each file is checked on its own.
`max_degree` is checked before the memo, the cache, a reuse or a build.

Queries on a built or loaded catalog never build that table.  `identify`
narrows the candidates by conjugacy invariants (order, orbit partition,
census of per-factor cycle types, read from `Catalog.census`) and, only
when candidates still tie, computes single marks by composing
permutation tuples directly.  `lin` and `eval_z` read `Catalog.census`
too; it is computed on first use.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter

from .config import get_config
from .errors import DegreeCap, NotASubgroup
from .perms import (
    Partition,
    PermGroup,
    Permutation,
    _compose,
    cycle_census,
    direct_embed,
    orbit_partition,
    symmetric,
)

CATALOG_VERSION = 1


@dataclass(frozen=True)
class Ambient:
    """Either a product of symmetric groups (by degrees) or a concrete group."""

    degrees: tuple[int, ...] | None = None
    group: PermGroup | None = None

    @classmethod
    def sym(cls, n: int) -> Ambient:
        return cls(degrees=(n,))

    @classmethod
    def pair(cls, p: int, q: int) -> Ambient:
        return cls(degrees=(p, q))

    @classmethod
    def prod(cls, degrees) -> Ambient:
        return cls(degrees=tuple(degrees))

    @classmethod
    def of_group(cls, g: PermGroup) -> Ambient:
        return cls(group=g)

    @property
    def cacheable(self) -> bool:
        return self.degrees is not None

    def descriptor(self) -> str:
        if self.degrees is not None:
            return "x".join(f"S{d}" for d in self.degrees)
        return f"G{self.group.order}d{self.group.degree}"

    def build_group(self) -> PermGroup:
        if self.group is not None:
            return self.group
        groups = [symmetric(d) for d in self.degrees]
        return reduce(direct_embed, groups) if groups else PermGroup.trivial(0)

    def blocks(self) -> tuple[range, ...]:
        """The point blocks every element preserves: one per factor, or all
        points of a concrete group."""
        if self.degrees is None:
            return (range(self.group.degree),)
        out, start = [], 0
        for d in self.degrees:
            out.append(range(start, start + d))
            start += d
        return tuple(out)


class _GroupTable:
    """Integer-indexed Cayley table of a materialized group, mul[a][b] = a*b.

    Only the rows of the group's generators are composed from permutation
    tuples.  Every other row is reached by breadth-first search from the
    identity: row(s*a)[b] = row(s)[row(a)[b]], one C-level gather per row
    (an `itemgetter` over row(a); rows have at least two entries whenever
    there is a generator, so it returns a tuple).
    """

    def __init__(self, group: PermGroup):
        self.group = group
        self.elements = sorted(group.elements)
        self.index = index = {e: i for i, e in enumerate(self.elements)}
        self.order = order = len(self.elements)
        self.e = e = index[tuple(range(group.degree))]
        self.gens = sorted({index[g.images] for g in group.generators} - {e})
        gen_rows = [
            array("H", (index[_compose(self.elements[a], b)] for b in self.elements))
            for a in self.gens
        ]
        gathers = [(a, itemgetter(*row_a)) for a, row_a in zip(self.gens, gen_rows)]
        mul = [None] * order
        mul[e] = array("H", range(order))
        frontier = [e]
        filled = 1
        while frontier:
            new = []
            for s in frontier:
                row_s = mul[s]
                for a, gather in gathers:
                    sa = row_s[a]
                    if mul[sa] is None:
                        mul[sa] = array("H", gather(row_s))
                        new.append(sa)
            filled += len(new)
            frontier = new
        if filled != order:
            raise ValueError(
                f"the generators of the ambient {group!r} reach {filled} of its {order} elements"
            )
        self.mul = mul
        self.inv = array("H", (row.index(e) for row in mul))
        self.whole = frozenset(range(order))

    def conjugation(self, g: int) -> array:
        """The action h -> g h g^-1 on element indices."""
        column = self.inv[g]
        return array("H", (row[column] for row in map(self.mul.__getitem__, self.mul[g])))

    def extend(self, sub: frozenset[int], gens) -> frozenset[int]:
        """<gens>, for a subgroup sub of <gens>, by Dimino's coset-wise
        closure: a union of left cosets t*sub, closed under left
        multiplication by gens.  A union of more than |G|/2 elements can
        only grow to G, so the closure stops there."""
        mul = self.mul
        members = tuple(sub)
        els = set(sub)
        half = self.order // 2
        reps = [self.e]
        for t in reps:
            for g in gens:
                y = mul[g][t]
                if y not in els:
                    els.update(map(mul[y].__getitem__, members))
                    if len(els) > half:
                        return self.whole
                    reps.append(y)
        return frozenset(els)

    def double_coset_reps(self, sub) -> list[int]:
        """The least element index of each double coset sub g sub."""
        sub_sorted = sorted(sub)
        covered = set()
        reps = []
        mul = self.mul
        for g in range(self.order):
            if g in covered:
                continue
            reps.append(g)
            coset = tuple(map(mul[g].__getitem__, sub_sorted))
            for h in sub_sorted:
                covered.update(map(mul[h].__getitem__, coset))
        return reps


class _RawClass:
    __slots__ = ("rep", "gens", "order", "conjugates")

    def __init__(self, rep, gens, order, conjugates):
        self.rep = rep
        self.gens = gens
        self.order = order
        self.conjugates = conjugates

    @property
    def n_conj(self) -> int:
        return len(self.conjugates)


def _enumerate_raw(table: _GroupTable):
    """All conjugacy classes of subgroups; returns (classes, total subgroup count).

    One breadth-first queue over the classes, starting with the trivial
    one: each class H is extended by a representative g of every double
    coset HgH outside H.  The extensions of the trivial class are the
    cyclic subgroups <x>, in element order.  Each extension closes over
    the larger of H and <g> (the Dimino base)."""
    seen: dict[frozenset, int] = {}
    classes: list[_RawClass] = []
    actions = [table.conjugation(g).__getitem__ for g in table.gens]

    def register(sub: frozenset, gens):
        """Record the class of sub with all its conjugates, found as the
        orbit of sub under conjugation by the generators of G."""
        cid = len(classes)
        seen[sub] = cid
        conjugates = [sub]
        for c in conjugates:
            for act in actions:
                d = frozenset(map(act, c))
                if d not in seen:
                    seen[d] = cid
                    conjugates.append(d)
        classes.append(_RawClass(sub, tuple(gens), len(sub), conjugates))

    trivial = frozenset([table.e])
    cyclic = [table.extend(trivial, (x,)) for x in range(table.order)]
    register(trivial, ())
    for cls in classes:  # the queue: register appends to it
        if cls.order == table.order:
            continue
        for g in table.double_coset_reps(cls.rep):
            if g in cls.rep:
                continue
            base = cyclic[g] if len(cyclic[g]) > cls.order else cls.rep
            grown = table.extend(base, cls.gens + (g,))
            if grown not in seen:
                register(grown, cls.gens + (g,))
    return classes, len(seen)


def _raw_marks(order: int, raw) -> list[list[int]]:
    """mark(H, K) for every pair of raw classes, by containment: K fixes
    the coset gH iff K <= gHg^-1, and each conjugate gHg^-1 arises from
    |N(H)|/|H| cosets, so mark(H, K) = #{conjugates of H containing K}
    * |N(H)|/|H|.  It is 0 unless |K| divides |H|."""
    contained = [frozenset(k.gens).issubset for k in raw]
    rows = []
    for h in raw:
        scale = order // h.n_conj // h.order
        rows.append([
            0 if h.order % k.order else sum(map(inside, h.conjugates)) * scale
            for k, inside in zip(raw, contained)
        ])
    return rows


def _order_raw_classes(raw, marks, ptypes) -> list[int]:
    """Sort: subgroup order ascending, ties by the lexicographic mark row,
    then by the diagonal and the orbit partition."""
    ordered: list[int] = []
    by_order: dict[int, list[int]] = {}
    for i, cls in enumerate(raw):
        by_order.setdefault(cls.order, []).append(i)
    for order in sorted(by_order):
        batch = by_order[order]
        if len(batch) > 1:
            prefix = list(ordered)

            def key(i):
                diag = raw[i].n_conj  # |G| / ||H||, fixes the diagonal entry
                row = tuple(marks[i][j] for j in prefix)
                return (row, diag, ptypes[i].parts, i)

            batch = sorted(batch, key=key)
        ordered.extend(batch)
    return ordered


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups of the ambient group."""

    ambient: Ambient
    index: int
    rep: PermGroup
    order: int
    norm_order: int
    ptype: Partition
    marks: tuple[int, ...]
    label: str
    aliases: tuple[str, ...]

    def __repr__(self):
        return f"<{self.ambient.descriptor()}:{self.label} order={self.order}>"

    def to_json(self):
        return {
            "index": self.index,
            "label": self.label,
            "aliases": list(self.aliases),
            "generators": [list(g.images) for g in self.rep.generators],
            "order": self.order,
            "norm_order": self.norm_order,
            "ptype": self.ptype.to_json(),
            "marks": list(self.marks),
        }


@dataclass(frozen=True)
class TableOfMarks:
    ambient: Ambient
    classes: tuple[SubgroupClass, ...]
    matrix: tuple[tuple[int, ...], ...]

    def determinant(self) -> int:
        det = 1
        for i in range(len(self.matrix)):
            det *= self.matrix[i][i]
        return det


class Catalog:
    """The full class list, marks matrix, and lookups for one ambient."""

    def __init__(self, ambient, group, classes, matrix, subgroup_count):
        self.ambient = ambient
        self.group = group
        self.classes = list(classes)
        self.matrix = [tuple(row) for row in matrix]
        self.subgroup_count = subgroup_count
        self._blocks = ambient.blocks()
        self._censuses: dict[int, frozenset] = {}
        self._by_order: dict[int, list[int]] = {}
        self._by_label = {}
        for cls in self.classes:
            self._by_order.setdefault(cls.order, []).append(cls.index)
            self._by_label[cls.label] = cls.index
            for alias in cls.aliases:
                self._by_label.setdefault(alias, cls.index)

    def __len__(self):
        return len(self.classes)

    def class_index(self, spec) -> int:
        """Accept an index, a label/alias, or a SubgroupClass."""
        if isinstance(spec, SubgroupClass):
            return spec.index
        if isinstance(spec, int):
            if not 0 <= spec < len(self.classes):
                raise KeyError(f"class index {spec} out of range")
            return spec
        if spec in self._by_label:
            return self._by_label[spec]
        raise KeyError(f"unknown class {spec!r} in {self.ambient.descriptor()}")

    def class_of(self, spec) -> SubgroupClass:
        return self.classes[self.class_index(spec)]

    def mark(self, h, k) -> int:
        return self.matrix[self.class_index(h)][self.class_index(k)]

    def identify(self, h: PermGroup) -> int:
        """The class of the subgroup h: conjugacy invariants, then marks on ties.

        Candidates are narrowed by order, orbit partition and the census of
        per-factor cycle types, cheapest first; classes that still tie are
        separated by the marks of h in columns where their rows differ.
        """
        if h.degree != self.group.degree or not h.elements <= self.group.elements:
            raise NotASubgroup(f"not a subgroup of {self.ambient.descriptor()}")
        found = self._by_order.get(h.order, [])
        if len(found) > 1:
            ptype = orbit_partition(h)
            found = [i for i in found if self.classes[i].ptype == ptype]
        if len(found) > 1:
            census = cycle_census(h.elements, self._blocks)
            found = [i for i in found if self.census(i) == census]
        while len(found) > 1:
            columns = zip(*(self.matrix[i] for i in found))
            j = next((j for j, column in enumerate(columns) if len(set(column)) > 1), None)
            if j is None:
                raise NotASubgroup("classes with equal mark rows; inconsistent catalog")
            m = self._mark_of_subgroup(h, j)
            found = [i for i in found if self.matrix[i][j] == m]
        if not found:
            raise NotASubgroup("invariants match no class; inconsistent catalog")
        return found[0]

    def census(self, i: int) -> frozenset:
        """`perms.cycle_census` of class i's representative over the
        ambient's blocks, computed on first use."""
        if i not in self._censuses:
            self._censuses[i] = cycle_census(self.classes[i].rep.elements, self._blocks)
        return self._censuses[i]

    def _mark_of_subgroup(self, h: PermGroup, j: int) -> int:
        """Fixed points of class j's representative K on G/h:
        #{g in G : g^-1 k g in h for every generator k of K} / |h|."""
        gens = [k.images for k in self.classes[j].rep.generators]
        members = h.elements
        count = 0
        for g in self.group.elements:
            ginv = [0] * len(g)
            for x, y in enumerate(g):
                ginv[y] = x
            if all(_compose(_compose(ginv, k), g) in members for k in gens):
                count += 1
        return count // h.order

    def to_json(self):
        return {
            "ambient": list(self.ambient.degrees),
            "descriptor": self.ambient.descriptor(),
            "version": CATALOG_VERSION,
            "degree": self.group.degree,
            "group_order": self.group.order,
            "subgroup_count": self.subgroup_count,
            "classes": [cls.to_json() for cls in self.classes],
            "marks_matrix": [list(row) for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data) -> Catalog:
        ambient = Ambient.prod(data["ambient"])
        group = ambient.build_group()
        degree = data["degree"]
        classes = []
        for c in data["classes"]:
            gens = [Permutation(im) for im in c["generators"]]
            rep = PermGroup.generate(degree, gens) if gens else PermGroup.trivial(degree)
            if rep.order != c["order"]:
                raise ValueError("catalog cache is inconsistent")
            classes.append(
                SubgroupClass(
                    ambient=ambient,
                    index=c["index"],
                    rep=rep,
                    order=c["order"],
                    norm_order=c["norm_order"],
                    ptype=Partition(c["ptype"]),
                    marks=tuple(c["marks"]),
                    label=c["label"],
                    aliases=tuple(c["aliases"]),
                )
            )
        return cls(ambient, group, classes, data["marks_matrix"], data["subgroup_count"])


def _assign_labels(entries):
    """Systematic labels o<order>-<ptype> plus -a/-b disambiguators and aliases."""
    counts = {}
    for order, ptype in entries:
        counts[(order, ptype)] = counts.get((order, ptype), 0) + 1
    seen = {}
    labels = []
    for order, ptype in entries:
        base = f"o{order}-" + ".".join(map(str, ptype.parts))
        if counts[(order, ptype)] > 1:
            suffix = seen.get((order, ptype), 0)
            seen[(order, ptype)] = suffix + 1
            base += "-" + chr(ord("a") + suffix)
        labels.append(base)
    return labels


def _assign_aliases(ambient, group, reps):
    """e / full-group / An / unique-cyclic aliases of the classes with
    these representatives."""
    n = group.degree
    aliases = [[] for _ in reps]
    cyclic_orders = {}
    for i, rep in enumerate(reps):
        if rep.order == 1:
            aliases[i].append("e")
        if rep.order == group.order:
            aliases[i].append(ambient.descriptor() if ambient.degrees is not None else "G")
        if rep.is_cyclic():
            cyclic_orders.setdefault(rep.order, []).append(i)
        if (
            ambient.degrees is not None
            and len(ambient.degrees) == 1
            and group.order > 2
            and rep.order * 2 == group.order
            and all(  # even: n minus the number of cycles is even
                (n - len(lengths)) % 2 == 0
                for (lengths,), _ in cycle_census(rep.elements, (range(n),))
            )
        ):
            aliases[i].append(f"A{n}")
    for order, idxs in cyclic_orders.items():
        if len(idxs) == 1 and order > 1:
            aliases[idxs[0]].append(f"C{order}")
    return [tuple(a) for a in aliases]


def _check_cap(ambient: Ambient):
    if ambient.degrees is not None:
        total = sum(ambient.degrees)
        if total > get_config().max_degree:
            raise DegreeCap(
                f"ambient degree {total} exceeds max_degree {get_config().max_degree}"
            )


def build_catalog(ambient: Ambient) -> Catalog:
    """Enumerate the catalog of `ambient` afresh: no memo, cache or earlier
    build is read."""
    _check_cap(ambient)
    group = ambient.build_group()
    table = _GroupTable(group)
    raw, subgroup_count = _enumerate_raw(table)
    reps = [
        PermGroup(
            group.degree,
            [Permutation(table.elements[g]) for g in cls.gens],
            {table.elements[e] for e in cls.rep},
        )
        for cls in raw
    ]
    ptypes = [orbit_partition(rep) for rep in reps]
    marks = _raw_marks(table.order, raw)
    order_map = _order_raw_classes(raw, marks, ptypes)
    matrix = [[marks[i][j] for j in order_map] for i in order_map]
    labels = _assign_labels([(raw[i].order, ptypes[i]) for i in order_map])
    parts = [
        (reps[i], raw[i].order, group.order // raw[i].n_conj, ptypes[i], label)
        for i, label in zip(order_map, labels)
    ]
    return _assemble(ambient, group, parts, matrix, subgroup_count)


def _assemble(ambient, group, parts, matrix, subgroup_count) -> Catalog:
    """The catalog of `ambient`, whose group is `group`, from data that
    depends on the group's element set alone: `parts` holds (rep, order,
    norm_order, ptype, label) of each class in catalog order.  Only the
    aliases depend on the ambient."""
    aliases = _assign_aliases(ambient, group, [rep for rep, *_ in parts])
    classes = [
        SubgroupClass(
            ambient=ambient,
            index=i,
            rep=rep,
            order=order,
            norm_order=norm_order,
            ptype=ptype,
            marks=tuple(matrix[i]),
            label=label,
            aliases=aliases[i],
        )
        for i, (rep, order, norm_order, ptype, label) in enumerate(parts)
    ]
    return Catalog(ambient, group, classes, matrix, subgroup_count)


_CATALOGS: dict[Ambient, Catalog] = {}
# Catalogs enumerated in this process, by their group (degree and element
# set).  A catalog read from a cache file is never entered here.
_BUILT: dict[PermGroup, Catalog] = {}


def _cache_path(ambient: Ambient):
    directory = get_config().resolved_catalog_dir()
    return directory / f"{ambient.descriptor()}_v{CATALOG_VERSION}.json"


def _load(ambient: Ambient) -> Catalog | None:
    """The cached catalog of `ambient`, or None when its file is missing,
    unreadable or fails `_is_consistent`."""
    path = _cache_path(ambient)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if data.get("version") != CATALOG_VERSION:
            return None
        cat = Catalog.from_json(data)
        return cat if _is_consistent(cat) else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def get_catalog(ambient: Ambient) -> Catalog:
    """Memoized catalog, backed by the JSON cache for ambients given by degrees.

    `max_degree` is checked first, whatever is memoized or cached.  A cached
    catalog that fails `_is_consistent` is rebuilt and rewritten.  Missing
    both, an ambient whose group (degree and element set) equals that of an
    earlier build in this process, such as S0 x Sn after Sn, takes that
    build's classes and marks with its own aliases and group object (G-sets
    act through its generators), so each group is enumerated at most once.
    A catalog loaded from a file is never reused."""
    _check_cap(ambient)
    if ambient in _CATALOGS:
        return _CATALOGS[ambient]
    cat = _load(ambient) if ambient.cacheable else None
    if cat is None:
        group = ambient.build_group()
        source = _BUILT.get(group)
        if source is None:
            cat = _BUILT[group] = build_catalog(ambient)
        elif PermGroup.generate(group.degree, group.generators) != group:
            # a build rejects such a group while tabulating it (_GroupTable)
            raise ValueError(f"the generators of the ambient {group!r} do not generate it")
        else:
            parts = [(c.rep, c.order, c.norm_order, c.ptype, c.label) for c in source.classes]
            cat = _assemble(ambient, group, parts, source.matrix, source.subgroup_count)
        if ambient.cacheable:
            _write_cache(_cache_path(ambient), cat)
    _CATALOGS[ambient] = cat
    return cat


def _is_consistent(cat: Catalog) -> bool:
    """Invariants of every table of marks, checked without a rebuild: the
    matrix is square and lower-triangular in catalog order, each class row
    equals its matrix row, the diagonal is [N(H):H], every mark in row H is
    a multiple of it (N(H)/H acts freely on the K-fixed cosets), column 0
    is [G:H], and sum [G:N(H)] is the subgroup count."""
    size = len(cat.classes)
    if len(cat.matrix) != size:
        return False
    for i, (cls, row) in enumerate(zip(cat.classes, cat.matrix)):
        if (
            cls.index != i
            or len(row) != size
            or any(row[i + 1 :])
            or cls.marks != row
            or row[i] != cls.norm_order // cls.order
            or row[i] < 1
            or any(m % row[i] for m in row)
            or row[0] != cat.group.order // cls.order
        ):
            return False
    return subgroup_count_from_classes(cat) == cat.subgroup_count


def _write_cache(path, cat: Catalog):
    """Write through a temporary file of this writer's own, then rename it
    into place, so concurrent writers never share or clobber a partial file.
    A cache that cannot be written is skipped with a warning naming it."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        os.fchmod(fd, 0o644)  # mkstemp makes 0600; the cache stays readable as before
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(cat.to_json()))
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"catalog cache {path} not written: {exc}", stacklevel=3)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def clear_memo():
    """Forget every memoized catalog and every earlier build."""
    _CATALOGS.clear()
    _BUILT.clear()


def enumerate_classes(ambient: Ambient) -> list[SubgroupClass]:
    """One representative subgroup per conjugacy class, catalog order."""
    return list(get_catalog(ambient).classes)


def mark(ambient: Ambient, h, k) -> int:
    """Fixed points of (a representative of) K on the coset space G/H."""
    return get_catalog(ambient).mark(h, k)


def identify(ambient: Ambient, h: PermGroup) -> int:
    """Index of the class of h: conjugacy invariants, then marks on ties."""
    return get_catalog(ambient).identify(h)


def table_of_marks(ambient: Ambient) -> TableOfMarks:
    cat = get_catalog(ambient)
    return TableOfMarks(ambient, tuple(cat.classes), tuple(cat.matrix))


def subgroup_count_from_classes(cat: Catalog) -> int:
    """Sum of [G:N(H)] over classes; must equal the direct subgroup count."""
    return sum(cat.group.order // cls.norm_order for cls in cat.classes)
