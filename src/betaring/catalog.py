"""Conjugacy classes of subgroups, marks, and tables of marks.

Ambients are the symmetric groups S_n, products S_p x S_q (and longer
products, to restrict along longer Young subgroups), or an arbitrary
small permutation group G (the basis data for A(G)), keyed on its degree
and element set alone: equal groups with other generators share a catalog.

Enumeration (`build_catalog`, the cold path) is Neubüser's cyclic
extension with perfect seeds over the elements of G indexed by rank
(`_enumerate_raw`): no Cayley table and no closure is formed, and each
class records its conjugates and its normalizer.  Marks come from one
pass of containment over every pair of classes (`_raw_marks`), which
both the class order (`_class_order`) and the final matrix read.

A `Catalog` is made in one place, `_assemble`, from the representatives
in catalog order, the marks matrix and the subgroup count.  Every class
field is derived there: order |H|, normalizer order diagonal * |H|, orbit
sizes per factor and the orbit partition they merge into, label and
aliases.  A build, the reuse of an earlier build and a load all call it.
`get_catalog` enumerates each group at most once per process: an ambient
whose group (degree and element set) equals that of an earlier build, such
as S0 x Sn and Sn x S0 after Sn, is assembled from that build's
representatives and marks.  Each build or reuse is logged at INFO on the
`betaring.catalog` logger.

A cache file keeps the header, each class's generators and the marks
matrix.  A load closes the generators (each (degree, generator images)
once per process, `_closed`) and assembles; the catalog must then pass
`_is_consistent`, the invariants of every table of marks and the build's
class order, or it is rebuilt.  A loaded catalog is never reused for
another ambient.  `max_degree` is checked before the memo, the cache, a
reuse or a build.  `Ambient.sym`, `pair` and `prod` return one interned
instance per degrees tuple, so a memo hit finds its key by identity.

Queries on a built or loaded catalog never enumerate subgroups.
`Catalog.identify` is the one route from a subgroup, given as a PermGroup
or as its element set, to its class, and reads only the element set.  It
narrows the candidates by conjugacy invariants (order, orbit sizes, census
of per-factor cycle types, compared with `Catalog.census`) and, only when
candidates still tie, computes single marks by containment in the set.
Each answer is memoized per catalog by the element set, seeded with the
representatives', so identification builds no group or permutation.
`Catalog.fusion` is the one route from a subgroup's catalog to G's
classes (the diagonal and the orbit-size route read it).
`lin` and `eval_z` read `Catalog.census` too, the one census memo.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt

from .config import MAX_SUPPORTED_DEGREE, check_degree, get_config
from .errors import CapExceeded, NotASubgroup
from .perms import (
    GROUP_CAP,
    Partition,
    PermGroup,
    Permutation,
    _adjoin,
    _compose,
    _inverse,
    _mulclose,
    _short_gens,
    block_orbits,
    cycle_census,
    direct_embed,
    orbit_partition,
)

CATALOG_VERSION = 1

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Ambient:
    """Either a product of symmetric groups (by degrees, a tuple of
    nonnegative ints) or a concrete group, exactly one of them; ValueError
    otherwise.  The hash is computed once, on construction."""

    degrees: tuple[int, ...] | None = None
    group: PermGroup | None = None

    def __post_init__(self):
        if (self.degrees is None) == (self.group is None):
            raise ValueError("an ambient has either degrees or a group")
        degrees = self.degrees
        if degrees is not None and not (
            type(degrees) is tuple and all(type(d) is int and d >= 0 for d in degrees)
        ):
            raise ValueError(f"degrees must be nonnegative integers, got {degrees!r}")
        object.__setattr__(self, "_hash", hash((degrees, self.group)))

    def __hash__(self):
        return self._hash

    @classmethod
    def sym(cls, n: int) -> Ambient:
        return cls.prod((n,))

    @classmethod
    def pair(cls, p: int, q: int) -> Ambient:
        return cls.prod((p, q))

    @classmethod
    def prod(cls, degrees) -> Ambient:
        """The one instance for these degrees (any iterable of them), so a
        memo keyed on it finds the key by identity; ValueError for a degree
        that is not a nonnegative integer."""
        degrees = tuple(degrees)
        ambient = _BY_DEGREES.get(degrees)
        if ambient is None:
            ambient = _BY_DEGREES.setdefault(degrees, cls(degrees=degrees))
        return ambient

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
        groups = [PermGroup.symmetric(d) for d in self.degrees]
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


# The interned degree ambients: Ambient.sym, pair and prod return these.
_BY_DEGREES: dict[tuple[int, ...], Ambient] = {}


# The nontrivial perfect subgroups of S_d for d <= MAX_SUPPORTED_DEGREE, one
# per S_d-conjugacy class (Holt and Plesken, Perfect Groups, 1989), as
# (degree, order, generators).  A perfect group has no normal subgroup of
# prime index, so cyclic extension cannot reach these; they seed it.
PERFECT_SEEDS = (
    (5, 60, ("(0 1 2)", "(0 1 2 3 4)")),  # A5
    (6, 60, ("(0 1 2 3 4)", "(0 5)(1 4)")),  # PSL(2,5) on the projective line over F5
    (6, 360, ("(0 1 2)", "(1 2 3 4 5)")),  # A6
    (7, 168, ("(0 1 2 3 4 5 6)", "(2 4)(5 6)")),  # PSL(3,2) on the Fano plane
    (7, 2520, ("(0 1 2)", "(0 1 2 3 4 5 6)")),  # A7
)


@lru_cache(maxsize=None)
def _seed_conjugates(seed: int, degree: int) -> dict:
    """{element set: generators} of every S_degree-conjugate of
    PERFECT_SEEDS[seed], as image tuples: its orbit under conjugation by
    the generators of S_degree."""
    movers = [(s, _inverse(s)) for s in PermGroup.symmetric(degree).generators]
    gens = tuple(Permutation.parse(degree, c) for c in PERFECT_SEEDS[seed][2])
    orbit = {frozenset(_mulclose(degree, gens, GROUP_CAP)): gens}
    todo = list(orbit)
    for sub in todo:
        for s, s_inv in movers:
            conj = frozenset(_compose(_compose(s, h), s_inv) for h in sub)
            if conj not in orbit:
                orbit[conj] = tuple(_compose(_compose(s, g), s_inv) for g in orbit[sub])
                todo.append(conj)
    return orbit


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


@dataclass(slots=True)
class _RawClass:
    rep: frozenset  # element ranks
    gens: tuple
    order: int
    conjugates: list
    normalizer: list | None

    @property
    def n_conj(self) -> int:
        return len(self.conjugates)


def _is_solvable(group: PermGroup) -> bool:
    """The derived series of G reaches 1.  Each term is the normal closure,
    in the term before it, of the commutators of pairs of generators of
    that earlier term: each commutator or conjugate outside the span is
    adjoined, and its conjugates by those generators are queued.  Every
    group of order below 60 is solvable, which ends the series early."""
    gens, order = group.generators, group.order
    while order >= 60:
        inverses = [_inverse(a) for a in gens]
        todo = [
            _compose(_compose(a_inv, b_inv), _compose(a, b))
            for a, a_inv in zip(gens, inverses)
            for b, b_inv in zip(gens, inverses)
        ]
        derived, picked = {tuple(range(group.degree))}, []
        for k in todo:
            if k not in derived:
                derived = _adjoin(derived, picked, k, order)
                picked.append(k)
                todo += [_compose(_compose(a, k), a_inv) for a, a_inv in zip(gens, inverses)]
        if len(derived) == order:
            return False
        gens, order = _short_gens(derived), len(derived)
    return True


def _enumerate_raw(group: PermGroup):
    """All conjugacy classes of subgroups; returns (classes, element
    tuples by index, total subgroup count).

    One breadth-first queue over the classes, starting with the trivial
    class and the perfect seeds that lie in G.  A class H is extended by
    each g in N(H) \\ H whose coset gH has prime order p in N(H)/H; then
    <H, g> is the union of the cosets g^i H.  A g inside an extension
    already formed for H is skipped: by primality that extension is
    <H, g>.  Every other subgroup K has a normal subgroup of prime index
    (K/K' is a nontrivial abelian group), so induction on |K| reaches it."""
    seeds = PERFECT_SEEDS
    if group.degree > MAX_SUPPORTED_DEGREE:
        # Every subgroup of a solvable group is solvable, so none of them
        # is a nontrivial perfect group and no seed is needed.
        if not _is_solvable(group):
            raise ValueError(
                f"perfect subgroups are tabulated up to degree {MAX_SUPPORTED_DEGREE}, "
                f"so the subgroups of the insoluble {group!r} cannot be enumerated"
            )
        seeds = ()
    tuples = sorted(group.elements)  # a subgroup is a frozenset of ranks
    index = {e: i for i, e in enumerate(tuples)}
    identity, order = tuples[0], len(tuples)
    movers = [(s, _inverse(s)) for s in group.generators if s != identity]
    actions = [
        [index[_compose(_compose(s, x), s_inv)] for x in tuples].__getitem__ for s, s_inv in movers
    ]
    seen: dict[frozenset, int] = {}
    classes: list[_RawClass] = []

    def register(sub: frozenset, gens: tuple):
        """Record the class of sub with all its conjugates, found as the
        orbit of sub under conjugation by the generators of G, and its
        normalizer, closed from the Schreier generators of that orbit up
        to the order |G| / #conjugates."""
        cid = len(classes)
        seen[sub] = cid
        conjugates, transversal, where, schreier = [sub], [identity], {sub: 0}, []
        for i, c in enumerate(conjugates):
            t = transversal[i]
            for (s, _), act in zip(movers, actions):
                d = frozenset(map(act, c))
                j = where.get(d)
                if j is None:
                    where[d] = len(conjugates)
                    seen[d] = cid
                    conjugates.append(d)
                    transversal.append(_compose(s, t))
                else:
                    schreier.append((j, s, t))
        members = frozenset(map(tuples.__getitem__, sub))
        norm_gens = list(_short_gens(members, tuple(map(tuples.__getitem__, gens))))
        gens = tuple(map(index.__getitem__, norm_gens))
        target = order // len(conjugates)
        normalizer = members
        for j, s, t in schreier:
            if len(normalizer) == target:
                break
            u = _compose(_inverse(transversal[j]), _compose(s, t))
            if u not in normalizer:
                normalizer = _adjoin(normalizer, norm_gens, u, order)
                norm_gens.append(u)
        normalizer = list(map(index.__getitem__, normalizer))  # frees the coset tuples
        classes.append(_RawClass(sub, gens, len(sub), conjugates, normalizer))

    register(frozenset([index[identity]]), ())
    for seed, (seed_degree, seed_order, _) in enumerate(seeds):
        if seed_degree > group.degree or order % seed_order:
            continue
        for elements, gens in _seed_conjugates(seed, group.degree).items():
            if elements <= group.elements:
                sub = frozenset(map(index.__getitem__, elements))
                if sub not in seen:
                    register(sub, tuple(map(index.__getitem__, gens)))
    for cls in classes:  # the queue: register appends to it
        normalizer, cls.normalizer = cls.normalizer, None
        if len(normalizer) == cls.order:
            continue
        members = [tuples[h] for h in cls.rep]
        covered = set(cls.rep)
        for g in sorted(normalizer):
            if g in covered:
                continue
            x = tuples[g]
            powers = [x]
            while index[powers[-1]] not in cls.rep:
                powers.append(_compose(x, powers[-1]))
            if not _is_prime(len(powers)):
                continue
            grown = set(cls.rep)
            for y in powers[:-1]:
                get = y.__getitem__
                grown.update([index[tuple(map(get, h))] for h in members])
            grown = frozenset(grown)
            covered |= grown
            if grown not in seen:
                register(grown, cls.gens + (g,))
    return classes, tuples, len(seen)


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


def _class_order(keys, marks) -> list[int]:
    """The catalog order of classes given by their marks (marks[i][j] for
    any two) and keys (subgroup order, number of conjugates, orbit
    partition's parts, orbit sizes per factor): subgroup order ascending,
    ties by the lexicographic mark row over the classes of smaller order,
    then by the number of conjugates (which fixes the diagonal), the orbit
    partition and the orbit sizes per factor (which part classes that a
    swap of two factors exchanges).  Full ties keep their order."""
    ordered: list[int] = []
    by_order: dict[int, list[int]] = {}
    for i, (order, *_) in enumerate(keys):
        by_order.setdefault(order, []).append(i)
    for order in sorted(by_order):
        batch = by_order[order]
        if len(batch) > 1:
            prefix = list(ordered)
            batch.sort(key=lambda i: (tuple(marks[i][j] for j in prefix), *keys[i][1:]))
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
    factor_orbits: tuple[tuple[int, ...], ...]  # ascending orbit sizes per factor block
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
            "generators": [list(g) for g in self.rep.generators],
            "order": self.order,
            "norm_order": self.norm_order,
            "ptype": self.ptype.to_json(),
            "marks": list(self.marks),
        }


class Catalog:
    """The full class list, marks matrix, and lookups for one ambient."""

    def __init__(self, ambient, group, classes, matrix, subgroup_count):
        self.ambient = ambient
        self.group = group
        self.classes = list(classes)
        self.matrix = matrix  # row tuples, each also its class's `marks`
        self.subgroup_count = subgroup_count
        self._blocks = ambient.blocks()
        self._censuses: dict[int, frozenset] = {}
        # `identify`'s answers by element set, seeded with the representatives.
        self._identified = {cls.rep.elements: cls.index for cls in self.classes}
        self._fused: dict[Ambient, tuple[int, ...]] = {}  # `fusion`'s, by sub.ambient
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

    def identify(self, h) -> int:
        """The class of the subgroup h, given as a PermGroup or as its
        element set (image tuples).  Only the element set is read, and the
        answer is memoized by it, so a set seen before (or a representative's)
        is one lookup and builds no group or permutation.

        Candidates are narrowed by order, orbit sizes and the census of
        per-factor cycle types, cheapest first; classes that still tie are
        separated by the marks of h in columns where their rows differ.
        A set without the identity or outside G raises NotASubgroup, and
        so does an element set not in the memo that is not closed: each
        member outside the span of those before it is adjoined, and the
        span may not outgrow the set.  A refused set is not memoized.
        """
        members = h.elements if isinstance(h, PermGroup) else frozenset(h)
        idx = self._identified.get(members)
        if idx is not None:
            return idx
        if tuple(range(self.group.degree)) not in members or not members <= self.group.elements:
            raise NotASubgroup(f"not a subgroup of {self.ambient.descriptor()}")
        if not isinstance(h, PermGroup):
            try:
                _mulclose(self.group.degree, members, len(members))
            except CapExceeded:
                raise NotASubgroup("the element set is not closed under composition") from None
        found = self._by_order.get(len(members), [])
        if len(found) > 1:
            ptype = orbit_partition(members)
            found = [i for i in found if self.classes[i].ptype == ptype]
        if len(found) > 1:
            census = cycle_census(members, self._blocks)
            found = [i for i in found if self.census(i) == census]
        while len(found) > 1:
            columns = zip(*(self.matrix[i] for i in found))
            j = next((j for j, column in enumerate(columns) if len(set(column)) > 1), None)
            if j is None:
                raise NotASubgroup("classes with equal mark rows; inconsistent catalog")
            m = self._mark_of_subgroup(members, j)
            found = [i for i in found if self.matrix[i][j] == m]
        if not found:
            raise NotASubgroup("invariants match no class: not a group, or an inconsistent catalog")
        self._identified[members] = found[0]
        return found[0]

    def fusion(self, sub: Catalog) -> tuple[int, ...]:
        """The class fusion of U into G, for `sub` the catalog of a subgroup
        U <= G on G's points: the G-class of each class of U, in `sub`'s
        order, by `identify` of each representative, a group, so its closure
        is not checked again; memoized by `sub.ambient`.  A representative
        outside G raises NotASubgroup."""
        if sub.ambient not in self._fused:
            self._fused[sub.ambient] = tuple(self.identify(c.rep) for c in sub.classes)
        return self._fused[sub.ambient]

    def census(self, i: int) -> frozenset:
        """`perms.cycle_census` of class i's representative over the
        ambient's blocks, computed on first use."""
        if i not in self._censuses:
            self._censuses[i] = cycle_census(self.classes[i].rep.elements, self._blocks)
        return self._censuses[i]

    def _mark_of_subgroup(self, members: frozenset, j: int) -> int:
        """Fixed points of class j's representative K on G/h, h the subgroup
        with these elements: #{g in G : g^-1 k g in h for every generator k
        of K} / |h|."""
        gens = self.classes[j].rep.generators
        count = 0
        for g in self.group.elements:
            ginv = _inverse(g)
            if all(_compose(_compose(ginv, k), g) in members for k in gens):
                count += 1
        return count // len(members)

    def to_json(self):
        return {
            "ambient": None if self.ambient.degrees is None else list(self.ambient.degrees),
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
        """The catalog of a cache file, or of `to_json()`: only the header,
        each class's generators and the marks matrix are read, and
        `_assemble` derives the rest; a concrete group's is refused."""
        if data["ambient"] is None:
            raise ValueError(f"{data['descriptor']} is a concrete group's catalog, not loadable")
        ambient = Ambient.prod(data["ambient"])
        degree = data["degree"]
        reps = [_closed(degree, [Permutation(im) for im in c["generators"]]) for c in data["classes"]]
        return _assemble(ambient, ambient.build_group(), reps, data["marks_matrix"], data["subgroup_count"])


# Element sets closed by `_closed` in this process, by degree and generator
# images.  Only the frozensets are shared: each loaded class keeps a group
# object of its own, with its own file's generators.
_CLOSURES: dict[tuple, frozenset] = {}


def _closed(degree: int, gens: list[Permutation]) -> PermGroup:
    """The group generated by `gens`, closed once per process for each
    degree and list of generator images."""
    key = (degree, tuple(gens))
    elements = _CLOSURES.get(key)
    if elements is None:
        elements = _CLOSURES[key] = PermGroup.generate(degree, gens).elements
    return PermGroup(degree, gens, elements)


def _assign_labels(entries):
    """Systematic labels o<order>-<ptype> of (order, ptype) entries, with
    -a, -b, ... where an entry repeats."""
    bases = [f"o{order}-" + ".".join(map(str, ptype)) for order, ptype in entries]
    counts, seen, labels = Counter(bases), Counter(), []
    for base in bases:
        if counts[base] > 1:
            seen[base] += 1
            base += "-" + chr(ord("a") + seen[base] - 1)
        labels.append(base)
    return labels


def _assign_aliases(ambient, group, reps):
    """e / full-group / An / unique-cyclic aliases of the classes with
    these representatives, in that order.  A_n is the subgroup of index 2
    in S_n whose generators are even: n minus their number of cycles is even."""
    n = group.degree
    full = ambient.descriptor() if ambient.degrees is not None else "G"
    alternating = ambient.degrees is not None and len(ambient.degrees) == 1 and group.order > 2
    cyclic = [rep.order > 1 and rep.is_cyclic() for rep in reps]
    cyclic_orders = Counter(rep.order for rep, c in zip(reps, cyclic) if c)
    aliases = []
    for rep, c in zip(reps, cyclic):
        names = ["e"] if rep.order == 1 else []
        if rep.order == group.order:
            names.append(full)
        if alternating and rep.order * 2 == group.order:
            if all((n - len(g.cycle_type())) % 2 == 0 for g in rep.generators):
                names.append(f"A{n}")
        if c and cyclic_orders[rep.order] == 1:
            names.append(f"C{rep.order}")
        aliases.append(tuple(names))
    return aliases


def _check_cap(ambient: Ambient):
    if ambient.degrees is not None:
        check_degree(sum(ambient.degrees))


def _check_generated(ambient: Ambient, group: PermGroup):
    """The generators of G must generate its element set: conjugation by
    them finds the conjugates of each class, and G-sets act through them.
    Only an `Ambient.of_group` group is checked: `Ambient.build_group`
    gives each factor S_d a transposition and a d-cycle, which generate it."""
    if ambient.degrees is not None:
        return
    if _mulclose(group.degree, group.generators, GROUP_CAP) != group.elements:
        raise ValueError(f"the generators of the ambient {group!r} do not generate it")


def build_catalog(ambient: Ambient) -> Catalog:
    """Enumerate the catalog of `ambient` afresh: no memo, cache or earlier
    build is read."""
    _check_cap(ambient)
    group = ambient.build_group()
    _check_generated(ambient, group)
    raw, tuples, subgroup_count = _enumerate_raw(group)
    reps = [
        PermGroup(
            group.degree,
            [Permutation(tuples[g]) for g in cls.gens],
            {tuples[e] for e in cls.rep},
        )
        for cls in raw
    ]
    blocks = ambient.blocks()
    orbits = [block_orbits(rep.elements, blocks) for rep in reps]
    marks = _raw_marks(group.order, raw)
    keys = [(c.order, c.n_conj, Partition(sum(o, ())), o) for c, o in zip(raw, orbits)]
    order_map = _class_order(keys, marks)
    matrix = [tuple(marks[i][j] for j in order_map) for i in order_map]
    reps, orbits = [reps[i] for i in order_map], [orbits[i] for i in order_map]
    return _assemble(ambient, group, reps, matrix, subgroup_count, orbits)


def _assemble(ambient, group, reps, matrix, subgroup_count, orbits=None) -> Catalog:
    """The one constructor of a `Catalog`: the catalog of `ambient`, whose
    group is `group`, from its class representatives in catalog order, the
    marks matrix (rows in that order) and the subgroup count.  Each class's
    order is |rep|, its normalizer order is the diagonal mark times that,
    its orbit sizes per factor block are `orbits` (one scan of each
    representative's points when None), its orbit partition merges them,
    and its label and aliases are derived from the representatives.  Each
    row becomes one tuple, which is both `Catalog.matrix[i]` and class i's
    `marks`.  A matrix that is not square over the classes raises
    ValueError before any diagonal is read."""
    matrix = [tuple(row) for row in matrix]
    if len(matrix) != len(reps) or any(len(row) != len(reps) for row in matrix):
        raise ValueError(f"a marks matrix of {len(matrix)} rows does not fit {len(reps)} classes")
    if orbits is None:
        blocks = ambient.blocks()
        orbits = [block_orbits(rep.elements, blocks) for rep in reps]
    ptypes = [Partition(sum(o, ())) for o in orbits]
    labels = _assign_labels([(rep.order, ptype) for rep, ptype in zip(reps, ptypes)])
    aliases = _assign_aliases(ambient, group, reps)
    classes = [
        SubgroupClass(
            ambient=ambient,
            index=i,
            rep=rep,
            order=rep.order,
            norm_order=matrix[i][i] * rep.order,
            ptype=ptypes[i],
            factor_orbits=orbits[i],
            marks=matrix[i],
            label=labels[i],
            aliases=aliases[i],
        )
        for i, rep in enumerate(reps)
    ]
    return Catalog(ambient, group, classes, matrix, subgroup_count)


_CATALOGS: dict[Ambient, Catalog] = {}
# Catalogs enumerated in this process, by their group (degree and element
# set).  A catalog read from a cache file is never entered here.
_BUILT: dict[PermGroup, Catalog] = {}


def _cache_path(ambient: Ambient):
    directory = get_config().resolved_catalog_dir()
    return directory / f"{ambient.descriptor()}_v{CATALOG_VERSION}.json"


def _load(path) -> Catalog | None:
    """The catalog cached at `path`, or None when the file is missing,
    unreadable or fails `_is_consistent`."""
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
    build's classes and marks with its own aliases and group object, so
    each group is enumerated at most once.
    A catalog loaded from a file is never reused.  Each build or reuse is
    logged at INFO with its ambient, reason, class and subgroup counts and
    seconds (fields of the record, too)."""
    _check_cap(ambient)
    cat = _CATALOGS.get(ambient)
    if cat is not None:
        return cat
    path = _cache_path(ambient) if ambient.cacheable else None
    cat = _load(path) if path else None
    if cat is None:
        reason = "invalid cache file" if path and path.exists() else "no cache file"
        start = time.perf_counter()
        group = ambient.build_group()
        source = _BUILT.get(group)
        if source is None:
            cat = _BUILT[group] = build_catalog(ambient)
        else:
            _check_generated(ambient, group)
            reps = [c.rep for c in source.classes]
            cat = _assemble(ambient, group, reps, source.matrix, source.subgroup_count)
            reason = "equal to an earlier build"
        fields = {
            "ambient": ambient.descriptor(),
            "reason": reason,
            "classes": len(cat.classes),
            "subgroups": cat.subgroup_count,
            "seconds": time.perf_counter() - start,
        }
        logger.info(
            "catalog %(ambient)s (%(reason)s): %(classes)d classes, %(subgroups)d subgroups "
            "in %(seconds).3f s",
            fields,
            extra=fields,
        )
        if path:
            _write_cache(path, cat)
    _CATALOGS[ambient] = cat
    return cat


def _is_consistent(cat: Catalog) -> bool:
    """Invariants of every table of marks, checked without a rebuild, on a
    catalog from `_assemble` (so its matrix is square and its class fields
    are derived): each representative lies in G, the matrix is
    lower-triangular in catalog order, the diagonal is at least 1 and is
    the gcd of its row (N(H)/H acts freely on the K-fixed cosets, so every
    mark in row H is a multiple of it), column 0 is [G:H], sum [G:N(H)] is
    the subgroup count and at least 1 (a table without classes is refused),
    and the classes are in the order a build gives them (`_class_order`),
    so that derived labels name the classes a build names."""
    for i, (cls, row) in enumerate(zip(cat.classes, cat.matrix)):
        if (
            any(row[i + 1 :])
            or row[i] < 1
            or gcd(*row) != row[i]
            or row[0] != cat.group.order // cls.order
            or not cls.rep.elements <= cat.group.elements
        ):
            return False
    order = cat.group.order
    keys = [(c.order, order // c.norm_order, c.ptype, c.factor_orbits) for c in cat.classes]
    in_order = _class_order(keys, cat.matrix) == list(range(len(keys)))
    return in_order and 0 < subgroup_count_from_classes(cat) == cat.subgroup_count


def _write_cache(path, cat: Catalog):
    """Write through a temporary file of this writer's own, then rename it
    into place, so concurrent writers never share or clobber a partial file.
    A cache that cannot be written is skipped with a warning naming it.
    The file keeps the header, each class's generators and the marks matrix
    of `Catalog.to_json()`; a load derives the rest."""
    data = cat.to_json()
    data["classes"] = [{"generators": c["generators"]} for c in data["classes"]]
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        os.fchmod(fd, 0o644)  # mkstemp makes 0600; the cache stays readable as before
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(data))
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"catalog cache {path} not written: {exc}", stacklevel=3)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def clear_memo():
    """Forget every memoized catalog, every earlier build and every closed
    generating set, and empty each catalog's `identify` and `fusion` memos
    (`_identified`, `_fused`), which elements built before may still reach."""
    for cat in [*_CATALOGS.values(), *_BUILT.values()]:
        cat._identified.clear()
        cat._fused.clear()
    _CATALOGS.clear()
    _BUILT.clear()
    _CLOSURES.clear()


def enumerate_classes(ambient: Ambient) -> list[SubgroupClass]:
    """One representative subgroup per conjugacy class, catalog order."""
    return list(get_catalog(ambient).classes)


def mark(ambient: Ambient, h, k) -> int:
    """Fixed points of (a representative of) K on the coset space G/H."""
    return get_catalog(ambient).mark(h, k)


def identify(ambient: Ambient, h) -> int:
    """Index of the class of h, a PermGroup or its element set:
    `Catalog.identify` on the ambient's catalog; an element set that is
    not a subgroup raises NotASubgroup."""
    return get_catalog(ambient).identify(h)


def table_of_marks(ambient: Ambient) -> Catalog:
    """The ambient's catalog: `.classes` and `.matrix` (row H, column K) are
    its table of marks."""
    return get_catalog(ambient)


def subgroup_count_from_classes(cat: Catalog) -> int:
    """Sum of [G:N(H)] over classes; must equal the direct subgroup count."""
    return sum(cat.group.order // cls.norm_order for cls in cat.classes)
