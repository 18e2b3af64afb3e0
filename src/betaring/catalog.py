"""Conjugacy classes of subgroups, marks, and tables of marks.

Ambients are the symmetric groups S_n, products S_p x S_q (and longer
products, needed to split elements over several summands), or an
arbitrary small permutation group G (the basis data for A(G)).

Enumeration (`build_catalog`, the cold path) is breadth-first cyclic
extension over an integer Cayley table of G: seed one cyclic subgroup
per conjugacy class of elements, then repeatedly adjoin double-coset
representatives to each class representative and reduce modulo
conjugacy.  Every subgroup K = <g_1,...,g_s> is reached through the
chain <g_1> <= <g_1,g_2> <= ..., so the scan is exhaustive.  All the
conjugates of every class are materialized, which makes deduplication a
set lookup and yields normalizer orders for free.  The Cayley table
lives only while a catalog is enumerated.

Queries on a built or loaded catalog never build that table.  `identify`
narrows the candidates by conjugacy invariants (order, orbit partition,
census of per-factor cycle types) and, only when candidates still tie,
computes single marks by composing permutation tuples directly.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from dataclasses import dataclass
from functools import reduce

from .config import get_config
from .errors import DegreeCap, NotASubgroup
from .perms import (
    Partition,
    PermGroup,
    Permutation,
    _compose,
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
    """Integer-indexed Cayley table of a materialized group."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.elements = sorted(group.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.order = len(self.elements)
        self.e = self.index[tuple(range(group.degree))]
        index = self.index
        self.mul = [
            array("H", (index[_compose(a, b)] for b in self.elements)) for a in self.elements
        ]
        inv = array("H", bytes(2 * self.order))
        for i, a in enumerate(self.elements):
            out = [0] * len(a)
            for x, y in enumerate(a):
                out[y] = x
            inv[i] = index[tuple(out)]
        self.inv = inv

    def conj_set(self, g: int, sub) -> frozenset[int]:
        mg = self.mul[g]
        gi = self.inv[g]
        mul = self.mul
        return frozenset(mul[mg[h]][gi] for h in sub)

    def close(self, gens) -> frozenset[int]:
        mul = self.mul
        els = {self.e}
        frontier = [self.e]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = mul[g][x]
                    if y not in els:
                        els.add(y)
                        new.append(y)
            frontier = new
        return frozenset(els)

    def coset_map(self, sub_sorted) -> tuple[array, list[int]]:
        """Left cosets gH: element -> coset id, plus one representative each."""
        cosets = array("i", [-1] * self.order)
        reps = []
        mul = self.mul
        for g in range(self.order):
            if cosets[g] >= 0:
                continue
            cid = len(reps)
            reps.append(g)
            mg = mul[g]
            for h in sub_sorted:
                cosets[mg[h]] = cid
        return cosets, reps

    def double_coset_reps(self, sub_sorted) -> list[int]:
        covered = bytearray(self.order)
        reps = []
        mul = self.mul
        for g in range(self.order):
            if covered[g]:
                continue
            reps.append(g)
            for h1 in sub_sorted:
                t = mul[h1][g]
                mt = mul[t]
                for h2 in sub_sorted:
                    covered[mt[h2]] = 1
        return reps


class _RawClass:
    __slots__ = ("rep", "gens", "order", "n_conj")

    def __init__(self, rep, gens, order, n_conj):
        self.rep = rep
        self.gens = gens
        self.order = order
        self.n_conj = n_conj


def _enumerate_raw(table: _GroupTable):
    """All conjugacy classes of subgroups; returns (classes, total subgroup count)."""
    seen: dict[frozenset, int] = {}
    classes: list[_RawClass] = []

    def register(sub: frozenset, gens) -> int:
        cid = len(classes)
        conjugates = {sub}
        for g in range(table.order):
            conjugates.add(table.conj_set(g, sub))
        for c in conjugates:
            seen[c] = cid
        classes.append(_RawClass(sub, tuple(gens), len(sub), len(conjugates)))
        return cid

    register(frozenset([table.e]), ())
    queue = []
    for x in range(table.order):
        if x == table.e:
            continue
        cyc = table.close((x,))
        if cyc not in seen:
            queue.append(register(cyc, (x,)))
    pos = 0
    while pos < len(queue):
        cls = classes[queue[pos]]
        pos += 1
        if cls.order == table.order:
            continue
        sub_sorted = sorted(cls.rep)
        for g in table.double_coset_reps(sub_sorted):
            if g in cls.rep:
                continue
            grown = table.close(cls.gens + (g,))
            if grown not in seen:
                queue.append(register(grown, cls.gens + (g,)))
    return classes, len(seen)


def _count_fixed_cosets(table, cosets, reps, gens) -> int:
    if not gens:
        return len(reps)
    mul = table.mul
    count = 0
    for r in reps:
        c = cosets[r]
        if all(cosets[mul[k][r]] == c for k in gens):
            count += 1
    return count


class _MarkEngine:
    """Lazy pairwise marks over raw classes."""

    def __init__(self, table, raw):
        self.table = table
        self.raw = raw
        self._cosets = {}
        self._memo = {}

    def cosets(self, i):
        if i not in self._cosets:
            self._cosets[i] = self.table.coset_map(sorted(self.raw[i].rep))
        return self._cosets[i]

    def mark(self, i, j) -> int:
        key = (i, j)
        if key not in self._memo:
            cosets, reps = self.cosets(i)
            self._memo[key] = _count_fixed_cosets(self.table, cosets, reps, self.raw[j].gens)
        return self._memo[key]


def _order_raw_classes(engine) -> list[int]:
    """Sort: subgroup order ascending, ties by the lexicographic mark row."""
    raw = engine.raw
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
                row = tuple(engine.mark(i, j) for j in prefix)
                ptype = orbit_partition_of_raw(engine.table, raw[i])
                return (row, diag, ptype.parts, i)

            batch = sorted(batch, key=key)
        ordered.extend(batch)
    return ordered


def orbit_partition_of_raw(table, cls) -> Partition:
    degree = table.group.degree
    gens = [table.elements[g] for g in cls.gens]
    group = PermGroup(degree, [Permutation(g) for g in gens], {table.elements[i] for i in cls.rep})
    return orbit_partition(group, degree)


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
            census = _census(h.elements, self._blocks)
            found = [i for i in found if self._class_census(i) == census]
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

    def _class_census(self, i: int) -> frozenset:
        if i not in self._censuses:
            self._censuses[i] = _census(self.classes[i].rep.elements, self._blocks)
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


def _cycle_types(images: tuple, blocks) -> tuple:
    """The cycle type of a permutation on each block it preserves."""
    seen = [False] * len(images)
    out = []
    for block in blocks:
        lengths = []
        for start in block:
            if seen[start]:
                continue
            length = 0
            pt = start
            while not seen[pt]:
                seen[pt] = True
                pt = images[pt]
                length += 1
            lengths.append(length)
        out.append(tuple(sorted(lengths)))
    return tuple(out)


def _census(elements, blocks) -> frozenset:
    """How many elements have each tuple of per-block cycle types; a
    conjugacy invariant of subgroups of a group preserving the blocks."""
    counts: dict[tuple, int] = {}
    for e in elements:
        key = _cycle_types(e, blocks)
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts.items())


def _is_even(images: tuple) -> bool:
    seen = [False] * len(images)
    parity = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        pt = start
        while not seen[pt]:
            seen[pt] = True
            pt = images[pt]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def _assign_labels(ambient, group, entries):
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


def _assign_aliases(ambient, group, classes_info):
    """e / full-group / An / unique-cyclic aliases."""
    n = group.degree
    aliases = [[] for _ in classes_info]
    cyclic_orders = {}
    for i, info in enumerate(classes_info):
        if info["order"] == 1:
            aliases[i].append("e")
        if info["order"] == group.order:
            aliases[i].append(ambient.descriptor() if ambient.degrees is not None else "G")
        if info["is_cyclic"]:
            cyclic_orders.setdefault(info["order"], []).append(i)
        if (
            ambient.degrees is not None
            and len(ambient.degrees) == 1
            and group.order > 2
            and info["order"] * 2 == group.order
            and info["all_even"]
        ):
            aliases[i].append(f"A{n}")
    for order, idxs in cyclic_orders.items():
        if len(idxs) == 1 and order > 1:
            aliases[idxs[0]].append(f"C{order}")
    return [tuple(a) for a in aliases]


def build_catalog(ambient: Ambient) -> Catalog:
    group = ambient.build_group()
    if ambient.degrees is not None:
        total = sum(ambient.degrees)
        if total > get_config().max_degree:
            raise DegreeCap(
                f"ambient degree {total} exceeds max_degree {get_config().max_degree}"
            )
    table = _GroupTable(group)
    raw, subgroup_count = _enumerate_raw(table)
    engine = _MarkEngine(table, raw)
    order_map = _order_raw_classes(engine)
    matrix = [
        [engine.mark(i, j) for j in order_map]
        for i in order_map
    ]
    entries = []
    infos = []
    for i in order_map:
        cls = raw[i]
        ptype = orbit_partition_of_raw(table, cls)
        entries.append((cls.order, ptype))
        infos.append(
            {
                "order": cls.order,
                "is_cyclic": any(len(table.close((g,))) == cls.order for g in cls.rep),
                "all_even": all(_is_even(table.elements[e]) for e in cls.rep),
            }
        )
    labels = _assign_labels(ambient, group, entries)
    aliases = _assign_aliases(ambient, group, infos)
    classes = []
    for new_idx, i in enumerate(order_map):
        cls = raw[i]
        gens = [Permutation(table.elements[g]) for g in cls.gens]
        rep = PermGroup(group.degree, gens, {table.elements[e] for e in cls.rep})
        classes.append(
            SubgroupClass(
                ambient=ambient,
                index=new_idx,
                rep=rep,
                order=cls.order,
                norm_order=group.order // cls.n_conj,
                ptype=entries[new_idx][1],
                marks=tuple(matrix[new_idx]),
                label=labels[new_idx],
                aliases=aliases[new_idx],
            )
        )
    return Catalog(ambient, group, classes, matrix, subgroup_count)


_CATALOGS: dict[Ambient, Catalog] = {}


def _cache_path(ambient: Ambient):
    directory = get_config().resolved_catalog_dir()
    return directory / f"{ambient.descriptor()}_v{CATALOG_VERSION}.json"


def get_catalog(ambient: Ambient) -> Catalog:
    """Memoized catalog, backed by the JSON cache for symmetric ambients."""
    if ambient in _CATALOGS:
        return _CATALOGS[ambient]
    cat = None
    if ambient.cacheable:
        path = _cache_path(ambient)
        if path.exists():
            try:
                data = json.loads(path.read_text())
                if data.get("version") == CATALOG_VERSION:
                    cat = Catalog.from_json(data)
            except (OSError, ValueError, KeyError):
                cat = None
    if cat is None:
        cat = build_catalog(ambient)
        if ambient.cacheable:
            _write_cache(_cache_path(ambient), cat)
    _CATALOGS[ambient] = cat
    return cat


def _write_cache(path, cat: Catalog):
    """Write through a temporary file of this writer's own, then rename it
    into place, so concurrent writers never share or clobber a partial file.
    A cache that cannot be written is skipped."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        os.fchmod(fd, 0o644)  # mkstemp makes 0600; the cache stays readable as before
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(cat.to_json()))
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def clear_memo():
    _CATALOGS.clear()


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
