"""Permutations, partitions, and finite permutation groups.

Points are 0-indexed.  Groups are materialized as full element sets; the
intended scale is symmetric groups of degree <= 7 and their subgroups,
where exhaustive methods are exact and cheap.  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .config import get_config
from .errors import CapExceeded, DegreeCap, NotASubgroup

# elements in any closure or direct product
GROUP_CAP = math.factorial(10)


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition{self.parts}"

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"

    def multiplicities(self) -> dict[int, int]:
        mult = {}
        for p in self.parts:
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
        return list(self.parts)


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


class Permutation:
    """A bijection of {0, ..., d-1}, stored as its image tuple.

    Composition is (p * q)(i) = p(q(i)): q acts first.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Permutation:
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> Permutation:
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
        cycles = []
        for chunk in text.replace("(", " ").split(")"):
            pts = tuple(int(t) for t in chunk.replace(",", " ").split())
            if pts:
                cycles.append(pts)
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        return Permutation(self.images[i] for i in other.images)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed: bool = True) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        return Partition(len(c) for c in self.cycles())

    def cycle_string(self) -> str:
        moved = self.cycles(include_fixed=False)
        if not moved:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return self.cycle_string()

    def to_json(self):
        return {"degree": self.degree, "images": list(self.images), "cycles": self.cycle_string()}

    @classmethod
    def from_json(cls, data) -> Permutation:
        if "images" in data:
            return cls(data["images"])
        return cls.parse(data["degree"], data["cycles"])


def cycle_type(p: Permutation) -> Partition:
    """Cycle lengths of p, fixed points included; parts sum to the degree."""
    return p.cycle_type()


def _compose(p: tuple, q: tuple) -> tuple:
    """p * q on image tuples (q acts first): one C-level gather of p by q."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[i] for i in q)


def _element_order(p: tuple) -> int:
    """The lcm of the cycle lengths of an image tuple."""
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
    return max(math.lcm(*p.parts) for p in partitions(degree))


def _inverse(p: tuple) -> tuple:
    """The inverse of an image tuple."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _mulclose(degree: int, gens: list[tuple], cap: int) -> set[tuple]:
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in elements:
                    elements.add(y)
                    if len(elements) > cap:
                        raise CapExceeded(f"group order exceeds cap {cap}")
                    new.append(y)
        frontier = new
    return elements


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
        elements = _mulclose(degree, [g.images for g in gens], cap)
        return cls(degree, gens, elements)

    @classmethod
    def trivial(cls, degree: int = 0) -> PermGroup:
        return cls(degree, (), {tuple(range(degree))})

    @classmethod
    def symmetric(cls, n: int) -> PermGroup:
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
    def from_elements(cls, degree: int, elements, generators=None) -> PermGroup:
        """Wrap a known-closed element set, deriving generators if absent."""
        elements = {e.images if isinstance(e, Permutation) else tuple(e) for e in elements}
        if generators is None:
            generators = _small_generating_set(degree, elements)
        return cls(degree, generators, elements)

    def __contains__(self, p) -> bool:
        images = p.images if isinstance(p, Permutation) else tuple(p)
        return images in self.elements

    def __len__(self):
        return self.order

    def __iter__(self):
        for images in sorted(self.elements):
            yield Permutation(images)

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
        ginv = g.images
        inv = [0] * len(ginv)
        for i, j in enumerate(ginv):
            inv[j] = i
        inv = tuple(inv)
        elements = {_compose(_compose(ginv, h), inv) for h in self.elements}
        gens = [Permutation(_compose(_compose(ginv, h.images), inv)) for h in self.generators]
        return PermGroup(self.degree, gens, elements)

    def is_cyclic(self) -> bool:
        """Some element's order, the lcm of its cycle lengths, is |H|; no
        element of S_degree has order above `_max_element_order`."""
        if self.order > _max_element_order(self.degree):
            return False
        return any(_element_order(e) == self.order for e in self.elements)

    def to_json(self):
        return {"degree": self.degree, "generators": [list(g.images) for g in self.generators]}

    @classmethod
    def from_json(cls, data) -> PermGroup:
        return cls.generate(data["degree"], [Permutation(im) for im in data["generators"]])


def cycle_census(elements, blocks) -> frozenset:
    """How many of the elements (image tuples) have each tuple of per-block
    cycle types, one sorted tuple of cycle lengths per block, as a frozenset
    of (key, count) pairs.  For a group preserving the blocks it is a
    conjugacy invariant of its subgroups."""
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
    return frozenset(counts.items())


def _small_generating_set(degree: int, elements: set[tuple]) -> list[Permutation]:
    gens: list[tuple] = []
    have = {tuple(range(degree))}
    for e in sorted(elements):
        if e not in have:
            gens.append(e)
            have = _mulclose(degree, gens, len(elements))
            if len(have) == len(elements):
                break
    return [Permutation(g) for g in gens]


def _shift(images: tuple, offset: int, degree: int) -> list[int]:
    out = list(range(degree))
    for i, j in enumerate(images):
        out[i + offset] = j + offset
    return out


def direct_embed(h: PermGroup, k: PermGroup) -> PermGroup:
    """H x K inside S_{p+q}: H on the first p points, K on the last q."""
    degree = h.degree + k.degree
    if h.order * k.order > GROUP_CAP:
        raise CapExceeded(f"|H|*|K| = {h.order * k.order} exceeds the element cap")
    elements = set()
    for a in h.elements:
        left = _shift(a, 0, degree)
        for b in k.elements:
            e = list(left)
            for i, j in enumerate(b):
                e[i + h.degree] = j + h.degree
            elements.add(tuple(e))
    gens = [Permutation(_shift(g.images, 0, degree)) for g in h.generators]
    gens += [Permutation(_shift(g.images, h.degree, degree)) for g in k.generators]
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
    if degree > get_config().max_degree:
        raise DegreeCap(f"wreath degree {degree} exceeds max {get_config().max_degree}")
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
            if slot_family[g.images[s]] != fam:
                raise NotASubgroup("L moves a slot across part families")
    gens = []
    for s, fam in enumerate(slot_family):
        for g in inners[fam].generators:
            images = list(range(degree))
            for i in range(g.degree):
                images[block_start[s] + i] = block_start[s] + g.images[i]
            gens.append(Permutation(images))
    for g in l.generators:
        images = list(range(degree))
        for s, fam in enumerate(slot_family):
            t = g.images[s]
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
    gen_images = [p.images for p in h.generators] or [tuple(range(h.degree))]
    count = 0
    for x in g.elements:
        inv = [0] * len(x)
        for i, j in enumerate(x):
            inv[j] = i
        inv = tuple(inv)
        if all(_compose(_compose(x, p), inv) in h.elements for p in gen_images):
            count += 1
    return count


def orbit_partition(h: PermGroup) -> Partition:
    """Orbit sizes of H on its points; the partition-type of the subgroup."""
    d = h.degree
    seen = [False] * d
    sizes = []
    gen_images = [p.images for p in h.generators]
    for start in range(d):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            new = []
            for pt in frontier:
                for g in gen_images:
                    q = g[pt]
                    if not seen[q]:
                        seen[q] = True
                        orbit.append(q)
                        new.append(q)
            frontier = new
        sizes.append(len(orbit))
    return Partition(sizes)


def are_conjugate(g: PermGroup, h1: PermGroup, h2: PermGroup) -> bool:
    """Exhaustive conjugacy test for subgroups of G."""
    if h1.order != h2.order:
        return False
    if orbit_partition(h1) != orbit_partition(h2):
        return False
    gen_images = [p.images for p in h1.generators] or [tuple(range(h1.degree))]
    for x in g.elements:
        inv = [0] * len(x)
        for i, j in enumerate(x):
            inv[j] = i
        inv = tuple(inv)
        if all(_compose(_compose(x, p), inv) in h2.elements for p in gen_images):
            return True
    return False


def all_subgroups(g: PermGroup) -> list[frozenset]:
    """Every subgroup of G as an element set, by join-closure from cyclic ones.

    Independent brute-force oracle; exponential in general, fine for |G|
    up to a few hundred.
    """
    identity = tuple(range(g.degree))
    cyclics = set()
    for x in g.elements:
        sub = [x]
        acc = x
        while acc != identity:
            acc = _compose(acc, x)
            sub.append(acc)
        cyclics.add(frozenset(sub))
    trivial = frozenset([identity])
    found = {trivial} | cyclics
    frontier = list(cyclics)
    while frontier:
        new = []
        for sub in frontier:
            for cyc in cyclics:
                if cyc <= sub:
                    continue
                joined = frozenset(_mulclose(g.degree, sorted(sub | cyc), g.order))
                if joined not in found:
                    found.add(joined)
                    new.append(joined)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@lru_cache(maxsize=None)
def symmetric(n: int) -> PermGroup:
    """Cached S_n."""
    return PermGroup.symmetric(n)
