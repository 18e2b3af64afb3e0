"""Permutations, partitions, and finite permutation groups.

Points are 0-indexed.  A Permutation is the tuple of its images and a
Partition the tuple of its parts: each is validated on construction and
equals and hashes as the plain tuple.  Groups are materialized as full
sets of plain image tuples; the intended scale is symmetric groups of
degree <= 7 and their subgroups, where exhaustive methods are exact and
cheap.  All values are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from operator import index, itemgetter

from .config import check_degree
from .errors import CapExceeded, NotASubgroup

# elements in any closure or direct product
GROUP_CAP = math.factorial(10)


class Partition(tuple):
    """A weakly decreasing tuple of positive integers: the tuple is the
    parts, so it equals, hashes and orders as its plain tuple of parts.
    A part that is not an integer (`operator.index`) raises TypeError."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = sorted(map(index, parts), reverse=True)
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {tuple(parts)}")
        return super().__new__(cls, parts)

    parts = property(tuple, doc="The parts as a plain tuple.")
    n = property(sum, doc="The sum of the parts.")

    def __repr__(self):
        return f"Partition{tuple(self)}"

    def __str__(self):
        return "(" + ",".join(map(str, self)) + ")"

    def multiplicities(self) -> dict[int, int]:
        mult = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def centralizer_order(self) -> int:
        """||pi||: order of the centralizer of a permutation of this type."""
        z = 1
        for part, m in self.multiplicities().items():
            z *= part**m * math.factorial(m)
        return z

    def class_size(self) -> int:
        """|pi|: number of elements of S_n with this cycle type."""
        return math.factorial(self.n) // self.centralizer_order()

    def to_json(self):
        return list(self)


def partitions(n: int):
    """Yield all partitions of n, parts weakly decreasing, largest first."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


class Permutation(tuple):
    """A bijection of {0, ..., d-1}: the tuple is its images, so it
    equals, hashes and orders as its plain image tuple.

    Composition is (p * q)(i) = p(q(i)): q acts first.  An image that is
    not an integer (`operator.index`) raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(map(index, images))
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Permutation:
        """ValueError for a point outside 0..degree-1 or appearing twice."""
        images, seen = list(range(degree)), set()
        for cycle in cycles:
            for a in cycle:
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} is not in 0..{degree - 1}")
                if a in seen:
                    raise ValueError(f"point {a} appears twice in the cycles")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> Permutation:
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" and "" are the
        identity.  ValueError names the text unless it is whitespace and
        unnested (...) groups of integers split by whitespace or commas."""
        if not re.fullmatch(r"(?:\s*\(\s*(?:-?\d+\b[\s,]*)*\))*\s*", text):
            raise ValueError(f"{text!r} is not cycle notation like '(0 1 2)(3 4)'")
        cycles = [tuple(map(int, re.findall(r"-?\d+", chunk))) for chunk in text.split(")")]
        return cls.from_cycles(degree, [c for c in cycles if c])

    images = property(tuple, doc="The image tuple as a plain tuple.")
    degree = property(len)
    __call__ = tuple.__getitem__

    def __mul__(self, other):
        """Composition by a permutation; repetition, as a plain tuple, by an int."""
        if isinstance(other, Permutation):
            return Permutation(_compose(self, other))
        return super().__mul__(other)

    def inverse(self) -> Permutation:
        return Permutation(_inverse(self))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def cycles(self, include_fixed: bool = True) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self[nxt]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        """Cycle lengths, fixed points included; parts sum to the degree."""
        return Partition(len(c) for c in self.cycles())

    def cycle_string(self) -> str:
        moved = self.cycles(include_fixed=False)
        if not moved:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved)

    def __repr__(self):
        return f"Permutation({list(self)})"

    def __str__(self):
        return self.cycle_string()

    def to_json(self):
        return {"degree": self.degree, "images": list(self), "cycles": self.cycle_string()}

    @classmethod
    def from_json(cls, data) -> Permutation:
        if "images" in data:
            return cls(data["images"])
        return cls.parse(data["degree"], data["cycles"])


def _compose(p: tuple, q: tuple) -> tuple:
    """p * q on image tuples (q acts first): one C-level gather of p by q."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return (p[q[0]],) if q else ()


@lru_cache(maxsize=1 << 16)  # room for every element of S_8
def _element_order(p: tuple) -> int:
    """The lcm of the cycle lengths of an image tuple; cached, so that ranking
    the members of every subgroup class computes one order per element."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = p[start]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


@lru_cache(maxsize=None)
def _max_element_order(degree: int) -> int:
    """The largest order of an element of S_degree (Landau's function)."""
    return max(math.lcm(*p) for p in partitions(degree))


def _inverse(p: tuple) -> tuple:
    """The inverse of an image tuple."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _adjoin(members, gens, g: tuple, cap: int) -> set[tuple]:
    """<H, g> for the group H = <gens> whose element set is `members` (image
    tuples): the union of the left cosets y*H that left multiplication by
    gens and g reaches from H (Dimino's algorithm).  Raises CapExceeded once
    it has more than `cap` elements.  The coset y*H is gathered through one
    itemgetter per member h of H, made once per call."""
    grown, gens = set(members), (*gens, g)
    # below degree 2 the identity is the only member, and itemgetter of one
    # index would return a scalar
    getters = [itemgetter(*h) for h in members] if len(g) > 1 else [tuple]
    reps = [tuple(range(len(g)))]
    for r in reps:
        for s in gens:
            y = _compose(s, r)
            if y not in grown:
                grown.update([f(y) for f in getters])
                if len(grown) > cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
                reps.append(y)
    return grown


def _mulclose(degree: int, gens, cap: int) -> set[tuple]:
    """The group generated by gens (image tuples): each generator outside
    the span of those before it is adjoined to it."""
    elements, picked = {tuple(range(degree))}, []
    for g in gens:
        if g not in elements:
            elements = _adjoin(elements, picked, g, cap)
            picked.append(g)
    return elements


def _short_gens(elements, gens=None) -> tuple:
    """A short generating set of the group `elements` (image tuples), which
    `gens` generates when given.  With the elements ranked by decreasing
    order, then by image tuple: the first pair (first, h) that generates the
    group, else the greedy pick of each ranked element outside the span of
    those picked before (one element when the group is cyclic); `gens` when
    that is not shorter.  The greedy pick alone gives 773 generators over the
    34 cache files of degree at most 6 and up to 4 in a class, against 749
    and 3 with the pair search first.  Raises ValueError when `elements` is
    not a group: some span then differs from it."""
    if gens is not None and len(gens) <= 1:
        return gens
    ranked = sorted(sorted(elements), key=_element_order, reverse=True)  # ties keep tuple order
    if not ranked:
        raise ValueError("the empty set is not a group")
    first, span = ranked[0], None
    try:
        span = cyclic = _mulclose(len(first), [first], len(ranked))
        picked = [first] if len(cyclic) > 1 else []  # the greedy pick's first step
        if cyclic != elements:
            for h in ranked:
                if h not in cyclic and _adjoin(cyclic, (first,), h, len(ranked)) == elements:
                    return (first, h)
            for h in ranked:
                if h not in span:
                    span = _adjoin(span, picked, h, len(ranked))
                    picked.append(h)
    except CapExceeded:
        pass  # a span larger than the set: it is not a group
    if span != elements:
        raise ValueError(f"a set of {len(ranked)} permutations that is not a group")
    return tuple(picked) if gens is None or len(picked) < len(gens) else gens


class PermGroup:
    """A finite permutation group with its full element set materialized."""

    __slots__ = ("degree", "generators", "elements", "order")

    def __init__(self, degree: int, generators, elements):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "order", len(self.elements))

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def generate(cls, degree: int, generators, cap: int = GROUP_CAP) -> PermGroup:
        """Closure of the generators under composition; errors past the cap."""
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        elements = _mulclose(degree, gens, cap)
        return cls(degree, gens, elements)

    @classmethod
    def trivial(cls, degree: int = 0) -> PermGroup:
        return cls(degree, (), {tuple(range(degree))})

    @classmethod
    @lru_cache(maxsize=None)
    def symmetric(cls, n: int) -> PermGroup:
        """S_n; cached, since the group is immutable."""
        if n <= 1:
            return cls.trivial(n)
        gens = [Permutation.from_cycles(n, [(0, 1)]), Permutation.from_cycles(n, [tuple(range(n))])]
        if n == 2:
            gens = gens[:1]
        return cls(n, gens, set(itertools.permutations(range(n))))

    @classmethod
    def cyclic(cls, n: int) -> PermGroup:
        if n <= 1:
            return cls.trivial(n)
        g = Permutation.from_cycles(n, [tuple(range(n))])
        return cls.generate(n, [g])

    @classmethod
    def from_elements(cls, degree: int, elements) -> PermGroup:
        """Wrap the element set of a group, with generators picked by
        `_short_gens`, which raises ValueError when the set is not a group."""
        elements = set(map(tuple, elements))
        return cls(degree, [Permutation(g) for g in _short_gens(elements)], elements)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.elements

    def __len__(self):
        return self.order

    def __iter__(self):
        return map(Permutation, sorted(self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=<{gens}>)"

    def is_subgroup_of(self, other: PermGroup) -> bool:
        return self.degree == other.degree and self.elements <= other.elements

    def conjugate(self, g: Permutation) -> PermGroup:
        inv = _inverse(g)
        elements = {_compose(_compose(g, h), inv) for h in self.elements}
        gens = [Permutation(_compose(_compose(g, h), inv)) for h in self.generators]
        return PermGroup(self.degree, gens, elements)

    def is_cyclic(self) -> bool:
        """At most one generator, or some element's order, the lcm of its
        cycle lengths, is |H|; no element of S_degree has order above
        `_max_element_order`."""
        if len(self.generators) <= 1:
            return True
        if self.order > _max_element_order(self.degree):
            return False
        return any(_element_order(e) == self.order for e in self.elements)

    def to_json(self):
        return {"degree": self.degree, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data) -> PermGroup:
        return cls.generate(data["degree"], [Permutation(im) for im in data["generators"]])


def cycle_census(elements, blocks) -> frozenset:
    """How many of the elements (image tuples) have each per-block cycle
    type, as (key, count) pairs whose key is a p-basis monomial of a SymFunc
    of arity len(blocks): a Partition (made once per process), or one per
    block.  For a group H preserving the blocks: |H| times its cycle index."""
    counts: dict[tuple, int] = {}
    for images in elements:
        seen = [False] * len(images)
        key = []
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
            key.append(tuple(sorted(lengths)))
        key = tuple(key)
        counts[key] = counts.get(key, 0) + 1
    if len(blocks) == 1:
        return frozenset((_partition(k), c) for (k,), c in counts.items())
    return frozenset((tuple(map(_partition, k)), c) for k, c in counts.items())


_partition = lru_cache(maxsize=None)(Partition)


def direct_embed(h: PermGroup, k: PermGroup) -> PermGroup:
    """H x K inside S_{p+q}: H on the first p points, K on the last q.  Each
    element is an image tuple of H followed by one of K shifted by p."""
    p, degree = h.degree, h.degree + k.degree
    if h.order * k.order > GROUP_CAP:
        raise CapExceeded(f"|H|*|K| = {h.order * k.order} exceeds the element cap")
    shifted = [tuple(j + p for j in b) for b in k.elements]
    elements = [a + b for a in h.elements for b in shifted]
    gens = [Permutation(g + tuple(range(p, degree))) for g in h.generators]
    gens += [Permutation(tuple(range(p)) + tuple(j + p for j in g)) for g in k.generators]
    return PermGroup(degree, gens, elements)


def wreath(h: PermGroup, k: PermGroup) -> PermGroup:
    """H wr K in S_{a*b}: b blocks of size a, base H^b, K permuting blocks.

    Block j covers points [j*a, (j+1)*a); the element (h_0..h_{b-1}; k)
    maps (j, i) to (k(j), h_j(i)).  Order is |H|^b * |K|.
    """
    return mixed_wreath(k, (k.degree,), [h])


def mixed_wreath(l: PermGroup, parts: tuple[int, ...], inners) -> PermGroup:
    """Block-diagonal prod_i K_i^{p_i} extended by L permuting same-size blocks.

    L must be a subgroup of S_{p_1} x ... x S_{p_r} (block-embedded, so it
    never moves a slot out of its family); slot s of family i becomes a
    block of deg(K_i) points.  Reduces to wreath(K_1, L) when r == 1.
    """
    parts = tuple(parts)
    if sum(parts) != l.degree:
        raise ValueError(f"parts {parts} do not sum to degree {l.degree}")
    inners = list(inners)
    if len(inners) != len(parts):
        raise ValueError("need one inner group per part")
    degree = sum(p * k.degree for p, k in zip(parts, inners))
    check_degree(degree)
    slot_family = []
    for fam, p in enumerate(parts):
        slot_family += [fam] * p
    block_start = []
    pos = 0
    for fam in slot_family:
        block_start.append(pos)
        pos += inners[fam].degree
    for g in l.generators:
        for s, fam in enumerate(slot_family):
            if slot_family[g[s]] != fam:
                raise NotASubgroup("L moves a slot across part families")
    gens = []
    for s, fam in enumerate(slot_family):
        for g in inners[fam].generators:
            images = list(range(degree))
            for i in range(g.degree):
                images[block_start[s] + i] = block_start[s] + g[i]
            gens.append(Permutation(images))
    for g in l.generators:
        images = list(range(degree))
        for s, fam in enumerate(slot_family):
            t = g[s]
            for i in range(inners[fam].degree):
                images[block_start[s] + i] = block_start[t] + i
        gens.append(Permutation(images))
    return PermGroup.generate(degree, gens)


def double_cosets(g: PermGroup, a: PermGroup, b: PermGroup) -> list[Permutation]:
    """Representatives of A\\G/B, in increasing image-tuple order."""
    for sub in (a, b):
        if not sub.is_subgroup_of(g):
            raise NotASubgroup("A and B must be subgroups of G")
    reps = []
    covered = set()
    a_elems = sorted(a.elements)
    b_elems = sorted(b.elements)
    for x in sorted(g.elements):
        if x in covered:
            continue
        reps.append(Permutation(x))
        for p in a_elems:
            px = _compose(p, x)
            for q in b_elems:
                covered.add(_compose(px, q))
    return reps


def normalizer_order(g: PermGroup, h: PermGroup) -> int:
    """|N_G(H)| by scanning all of G; prefilters with the generator test."""
    if not h.is_subgroup_of(g):
        raise NotASubgroup("H must be a subgroup of G")
    count = 0
    for x in g.elements:
        inv = _inverse(x)
        if all(_compose(_compose(x, p), inv) in h.elements for p in h.generators):
            count += 1
    return count


def orbit_partition(h) -> Partition:
    """Orbit sizes of H, a PermGroup or its element set (image tuples), on
    its points; the partition-type of the subgroup."""
    elements = h.elements if isinstance(h, PermGroup) else h
    return Partition(block_orbits(elements, [range(len(next(iter(elements))))])[0])


def block_orbits(elements, blocks) -> tuple:
    """Ascending orbit sizes on each block of points, which every element
    (image tuple) preserves.  The orbit of a point is one column."""
    columns = list(zip(*elements))
    seen, out = set(), []
    for block in blocks:
        sizes = []
        for x in block:
            if x not in seen:
                orbit = set(columns[x])
                seen |= orbit
                sizes.append(len(orbit))
        out.append(tuple(sorted(sizes)))
    return tuple(out)


def are_conjugate(g: PermGroup, h1: PermGroup, h2: PermGroup) -> bool:
    """Exhaustive conjugacy test for subgroups of G."""
    if h1.order != h2.order:
        return False
    if orbit_partition(h1) != orbit_partition(h2):
        return False
    for x in g.elements:
        inv = _inverse(x)
        if all(_compose(_compose(x, p), inv) in h2.elements for p in h1.generators):
            return True
    return False


def all_subgroups(g: PermGroup) -> list[frozenset]:
    """Every subgroup of G as an element set, by join-closure from cyclic ones.

    Independent brute-force oracle; exponential in general, fine for |G|
    up to a few hundred.
    """
    cyclics = {}
    for x in g.elements:
        cyclics.setdefault(frozenset(_mulclose(g.degree, [x], g.order)), x)
    # every subgroup found so far, with the generators `_adjoin` needs
    found = {frozenset([tuple(range(g.degree))]): ()}
    found.update((cyc, (x,)) for cyc, x in cyclics.items())
    frontier = list(cyclics)
    while frontier:
        new = []
        for sub in frontier:
            for x in cyclics.values():
                if x in sub:
                    continue
                joined = frozenset(_adjoin(sub, found[sub], x, g.order))
                if joined not in found:
                    found[joined] = (*found[sub], x)
                    new.append(joined)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))
