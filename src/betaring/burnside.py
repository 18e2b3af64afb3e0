"""Concrete Burnside rings A(G): G-sets, orbit decomposition, marks, and
the power-quotient operations X^n/H together with their polynomial
extension to virtual elements.

G is any small materialized permutation group; its subgroup-class data
comes from the catalog machinery applied to G itself, so A(G) shares one
code path with the A(S_n) building blocks.

GSet, beta_on_gset, beta2_on_gsets, beta_on_element and orbit_decompose
are the explicit route, an oracle for operations computed from marks, so
none of them reads marks.  `bring.eval_burnside` takes this route, through
`beta_virtual`, only for the terms of a noncyclic G at classes that are
not Young subgroups; for a cyclic G, and for the Young classes on any G,
it reads marks, and this route is the oracle of both.  A G-set's points
are 0..size-1 and it is given by one row of images of the points per
group generator, which the closure over G proves a bijection; a
generator, a Permutation, is itself an image tuple and keys the element
action directly.  X^n/H (and (X^p x Y^q)/L) never builds a tuple of X^n:
a point of a product of G-sets is its integer code in mixed radix (the
itertools.product order), coordinate permutations are flat code-to-code
lists summed from two short lists over the leading and the trailing half
of the coordinates, and the diagonal G-action is read only at orbit
representatives, from two such half lists.  One step labels the orbits
(`_tuple_orbit_labels`): `_tuple_orbit_quotient` builds the G-set X^n/H
from the labels, and `_quotient_classes`, where only its class in A(G) is
needed (beta_on_element), hands them to `_orbit_classes`.

A G-set is its action by element, `elem_action`; rows per generator are
only how it is given, so G-sets over equal groups combine whatever
generators each lists.  `_orbit_classes` is the one reader of stabilizers:
`orbit_decompose` gives it each point as its own label, and it hands each
stabilizer's element set to `Catalog.identify`, which memoizes it per
catalog.
"""

from __future__ import annotations

import itertools
import math

from .catalog import Ambient, SubgroupClass, get_catalog
from .config import get_config
from .errors import IntegralityViolation, NotASubgroup, NotEffective, SizeCap
from .exact import norm_coeff
from .perms import PermGroup, _compose, _inverse


class GSet:
    """A finite left G-set given by the action of each group generator.

    The generator table is closed into a full element-action map on
    construction, which verifies that the table respects every relation
    of the group and that the generators generate it.  It is also the
    bijection check: the row of a generator g of order k composed with the
    action of g^(k-1) must be the identity.  Equal G-sets have equal groups
    and element actions.
    """

    __slots__ = ("group", "size", "gen_action", "elem_action")

    def __init__(self, group: PermGroup, size: int, gen_action):
        gen_action = tuple(tuple(row) for row in gen_action)
        if len(gen_action) != len(group.generators):
            raise ValueError("need one action row per group generator")
        if any(len(row) != size for row in gen_action):
            raise ValueError("generator action is not a bijection of the points")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "gen_action", gen_action)
        try:
            elem_action = self._close()
        except (ValueError, IndexError, TypeError) as exc:
            if isinstance(exc, ValueError) and all(set(row) == set(range(size)) for row in gen_action):
                raise
            raise ValueError("generator action is not a bijection of the points") from None
        object.__setattr__(self, "elem_action", elem_action)

    def __setattr__(self, name, value):
        raise AttributeError("GSet is immutable")

    def _close(self) -> dict:
        identity = tuple(range(self.group.degree))
        action = {identity: tuple(range(self.size))}
        frontier = [identity]
        gens = list(zip(self.group.generators, self.gen_action))
        while frontier:
            new = []
            for elem in frontier:
                act = action[elem]
                for gimg, grow in gens:
                    nelem = _compose(gimg, elem)
                    nact = _compose(grow, act)
                    known = action.get(nelem)
                    if known is None:
                        action[nelem] = nact
                        new.append(nelem)
                    elif known != nact:
                        raise ValueError("action table violates a group relation")
            frontier = new
        if len(action) != self.group.order:
            raise ValueError(f"the generators of {self.group!r} do not generate it")
        return action

    @classmethod
    def empty(cls, group: PermGroup) -> GSet:
        return cls(group, 0, [() for _ in group.generators])

    @classmethod
    def point(cls, group: PermGroup) -> GSet:
        return cls(group, 1, [(0,) for _ in group.generators])

    @classmethod
    def regular(cls, group: PermGroup) -> GSet:
        """G acting on itself by left multiplication: G/e."""
        return cls.coset_space(group, PermGroup.trivial(group.degree))

    @classmethod
    def coset_space(cls, group: PermGroup, sub: PermGroup) -> GSet:
        """Left cosets gH with the left translation action: the point
        induced from H to G."""
        return induce(group, sub, cls.point(sub))

    def act(self, elem, point: int) -> int:
        return self.elem_action[tuple(elem)][point]

    def __add__(self, other: GSet) -> GSet:
        if self.group != other.group:
            raise ValueError("disjoint union needs a common group")
        return _disjoint_union(self.group, [self, other])

    def __mul__(self, other: GSet) -> GSet:
        """Cartesian product with the diagonal action."""
        if self.group != other.group:
            raise ValueError("product needs a common group")
        rows = [
            _code_map([[a * other.size for a in row], orow])
            for row, orow in zip(self.gen_action, other._rows(self.group))
        ]
        return GSet(self.group, self.size * other.size, rows)

    def _rows(self, sub: PermGroup) -> list:
        """The row of each generator of `sub`, a subgroup of (or a group
        equal to) this G-set's group."""
        return [self.elem_action[g] for g in sub.generators]

    def restrict(self, sub: PermGroup) -> GSet:
        """The same points viewed as a U-set for U <= G."""
        if not sub.is_subgroup_of(self.group):
            raise NotASubgroup("restriction needs U <= G")
        return GSet(sub, self.size, self._rows(sub))

    def orbits(self) -> list[list[int]]:
        """The orbits as sorted lists, in the order of their least points."""
        acts = self.elem_action.values()
        out, seen = [], set()
        for p in range(self.size):
            if p not in seen:
                out.append(sorted({act[p] for act in acts}))
                seen.update(out[-1])
        return out

    def stabilizer(self, point: int) -> PermGroup:
        elems = [e for e, act in self.elem_action.items() if act[point] == point]
        return PermGroup.from_elements(self.group.degree, elems)

    def fixed_count(self, sub: PermGroup) -> int:
        if not sub.is_subgroup_of(self.group):
            raise NotASubgroup("fixed points need U <= G")
        rows = self._rows(sub)
        return sum(1 for x in range(self.size) if all(row[x] == x for row in rows))

    def __eq__(self, other):
        return (
            isinstance(other, GSet)
            and self.group == other.group
            and self.elem_action == other.elem_action
        )

    def __repr__(self):
        return f"GSet(|X|={self.size} over group of order {self.group.order})"

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "size": self.size,
            "action": [list(row) for row in self.gen_action],
        }

    @classmethod
    def from_json(cls, data) -> GSet:
        return cls(PermGroup.from_json(data["group"]), data["size"], data["action"])


def _disjoint_union(group: PermGroup, parts) -> GSet:
    """The disjoint union of G-sets over one group, closed once: the points
    of each part follow those of the parts before it.  A single part is
    returned as it is."""
    if len(parts) == 1:
        return parts[0]
    rows = [[] for _ in group.generators]
    size = 0
    for x in parts:
        for row, xrow in zip(rows, x._rows(group)):
            row.extend(p + size for p in xrow)
        size += x.size
    return GSet(group, size, rows)


def induce(group: PermGroup, sub: PermGroup, x: GSet) -> GSet:
    """The induced G-set G x_U X for X a U-set (transfer of G-sets)."""
    if x.group != sub or not sub.is_subgroup_of(group):
        raise NotASubgroup("induction needs X a U-set with U <= G")
    elems = sorted(group.elements)
    coset_of = {}
    reps = []
    for e in elems:
        if e in coset_of:
            continue
        coset_of[e] = len(reps)
        reps.append(e)
        for h in sub.elements:
            coset_of.setdefault(_compose(e, h), coset_of[e])
    if x.size == 1:
        rows = [tuple(coset_of[_compose(g, r)] for r in reps) for g in group.generators]
        return GSet(group, len(reps), rows)
    rep_inv = [_inverse(r) for r in reps]
    # point (i, pt) is indexed i * x.size + pt
    rows = []
    for g in group.generators:
        row = [0] * (len(reps) * x.size)
        for i, r in enumerate(reps):
            t = _compose(g, r)
            j = coset_of[t]
            u = _compose(rep_inv[j], t)
            uact = x.elem_action[u]
            base = i * x.size
            jbase = j * x.size
            for pt in range(x.size):
                row[base + pt] = jbase + uact[pt]
        rows.append(tuple(row))
    return GSet(group, len(reps) * x.size, rows)


def group_catalog(group: PermGroup):
    return get_catalog(Ambient.of_group(group))


class BurnsideElement:
    """An integer vector over the subgroup classes of G (basis [G/H])."""

    __slots__ = ("catalog", "coords")

    def __init__(self, catalog, coords):
        coords = tuple(map(norm_coeff, coords))
        for c in coords:
            if type(c) is not int:
                raise IntegralityViolation(f"A(G) coordinate {c} is not an integer")
        if len(coords) != len(catalog.classes):
            raise ValueError("coordinate length does not match the class count")
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("BurnsideElement is immutable")

    @property
    def group(self) -> PermGroup:
        return self.catalog.group

    @classmethod
    def zero(cls, group: PermGroup) -> BurnsideElement:
        cat = group_catalog(group)
        return cls(cat, [0] * len(cat.classes))

    @classmethod
    def unit(cls, group: PermGroup) -> BurnsideElement:
        """[G/G], the one-point set."""
        cat = group_catalog(group)
        coords = [0] * len(cat.classes)
        coords[-1] = 1
        return cls(cat, coords)

    @classmethod
    def basis(cls, group: PermGroup, spec) -> BurnsideElement:
        cat = group_catalog(group)
        coords = [0] * len(cat.classes)
        coords[cat.class_index(spec)] = 1
        return cls(cat, coords)

    def _same_ring(self, other: BurnsideElement):
        if self.catalog is not other.catalog and self.group != other.group:
            raise ValueError("elements live in different Burnside rings")

    def __add__(self, other: BurnsideElement) -> BurnsideElement:
        self._same_ring(other)
        return BurnsideElement(self.catalog, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: BurnsideElement) -> BurnsideElement:
        self._same_ring(other)
        return BurnsideElement(self.catalog, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> BurnsideElement:
        return BurnsideElement(self.catalog, [-a for a in self.coords])

    def scale(self, k: int) -> BurnsideElement:
        return BurnsideElement(self.catalog, [k * a for a in self.coords])

    def marks(self) -> tuple[int, ...]:
        """Fixed-point counts per class: the ghost coordinates of A(G)."""
        out = [0] * len(self.coords)
        for h, c in enumerate(self.coords):
            if c:
                for k, m in enumerate(self.catalog.matrix[h][: h + 1]):
                    out[k] += c * m
        return tuple(out)

    @classmethod
    def from_marks(cls, catalog, marks) -> BurnsideElement:
        """Invert the lower-triangular marks matrix in integers, visiting only
        the nonzero coordinates; errors if non-integral or of the wrong length."""
        matrix = catalog.matrix
        rest = list(marks)
        coords = [0] * len(catalog.classes)
        if len(rest) != len(coords):
            raise ValueError("marks vector length does not match the class count")
        for k in range(len(coords) - 1, -1, -1):
            if rest[k]:
                coords[k], remainder = divmod(rest[k], matrix[k][k])
                if remainder:
                    raise IntegralityViolation("marks vector is not in the image of A(G)")
                for j, m in enumerate(matrix[k][:k]):
                    if m:
                        rest[j] -= coords[k] * m
        return cls(catalog, coords)

    def __mul__(self, other: BurnsideElement) -> BurnsideElement:
        self._same_ring(other)
        marks = [a * b for a, b in zip(self.marks(), other.marks())]
        return BurnsideElement.from_marks(self.catalog, marks)

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.group, self.coords))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def size(self) -> int:
        """Total number of points of a realizing G-set."""
        g_order = self.group.order
        return sum(
            c * (g_order // cls.order) for c, cls in zip(self.coords, self.catalog.classes)
        )

    def to_gset(self) -> GSet:
        """The disjoint union of c copies of G/H for each coordinate c at H."""
        if not self.is_effective():
            raise NotEffective("only effective elements are realizable")
        cat = self.catalog
        parts = []
        for c, cls in zip(self.coords, cat.classes):
            if c:
                parts += [GSet.coset_space(cat.group, cls.rep)] * c
        return _disjoint_union(cat.group, parts)

    def __repr__(self):
        if not any(self.coords):
            return "0"
        bits = []
        for c, cls in zip(self.coords, self.catalog.classes):
            if c:
                coeff = "" if c == 1 else f"{c}*"
                name = cls.aliases[0] if cls.aliases else cls.label
                bits.append(f"{coeff}[G/{name}]")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "coords": list(self.coords),
            "basis": [cls.label for cls in self.catalog.classes],
        }


def orbit_decompose(x: GSet) -> BurnsideElement:
    """Write a G-set as a nonnegative sum of transitive classes [G/H]:
    `_orbit_classes` with each point its own label and code, and each
    element's row, as it is, the low table of a single coordinate."""
    points, tables = range(x.size), [((0,), row) for row in x.elem_action.values()]
    return _orbit_classes(group_catalog(x.group), list(x.elem_action), points, points, x.size, tables)


def _orbit_classes(cat, elems, orbit_of, reps, low, tables) -> BurnsideElement:
    """The classes [G/H] of the G-orbits on labels 0..len(reps)-1.

    Label l is represented by code reps[l], element elems[i] sends code c
    to hi[c // low] + lo[c % low] for (hi, lo) = tables[i], and orbit_of
    labels the image.  The least label not yet marked starts an orbit:
    every element is read at its representative and marks the label it
    reaches, and the elements that fix the label form one mask, which
    `Catalog.identify` reads once per distinct mask.
    """
    coords = [0] * len(cat.classes)
    class_of = {}
    marked = bytearray(len(reps) + 1)  # the last slot stays 0 and ends the scan
    oid = 0
    while oid < len(reps):
        high, rest = divmod(reps[oid], low)
        images = [orbit_of[hi[high] + lo[rest]] for hi, lo in tables]
        for image in images:
            marked[image] = 1
        mask = tuple(map(oid.__eq__, images))
        idx = class_of.get(mask)
        if idx is None:
            idx = class_of[mask] = cat.identify(itertools.compress(elems, mask))
        coords[idx] += 1
        oid = marked.index(0, oid + 1)
    return BurnsideElement(cat, coords)


def _acting_group(h) -> PermGroup:
    if isinstance(h, SubgroupClass):
        return h.rep
    if isinstance(h, PermGroup):
        return h
    raise TypeError("expected a SubgroupClass or PermGroup")


def _code_map(columns) -> list[int]:
    """The code-to-code list of a map that sends digit d of coordinate j to
    columns[j][d] (already scaled by its target stride), in code order.
    Past two coordinates it is one flat sum of two short tables, the code
    maps of the first len(columns) // 2 coordinates and of the rest."""
    columns = list(columns)
    if len(columns) > 2:
        half = len(columns) // 2
        columns = [_code_map(columns[:half]), _code_map(columns[half:])]
    codes = [0]
    for column in columns:
        codes = [a + x for a in codes for x in column]
    return codes


def _tuple_orbit_labels(factors: list[GSet], w: PermGroup):
    """The orbits of the coordinate-permuting group w on prod factors: the
    strides, the orbit label of each code and the least code of each orbit.

    A tuple t is stored as its integer code sum_j t_j * stride_j, with
    stride_j = prod_{i>j} |X_i|, so codes 0..|X_0 x ... x X_{n-1}| - 1 run in
    itertools.product order.  A generator g of w sends coordinate j to
    position g(j), i.e. digit d of coordinate j to d * stride_{g(j)}, and
    becomes one flat code-to-code list (`_code_map`).  The w-orbits are
    labelled in a flat list in code order, so each orbit is numbered and
    represented by its least code, the first tuple of the product order
    that it contains; list.index jumps over the labelled codes to the
    next start.  For one generator the orbit is the cycle through the
    start, walked with no queue.  For more, a queue from the start labels
    its orbit: each code taken from it walks the cycle of the first
    generator up to a labelled code, and only the other generators
    enqueue.  A w without generators leaves every code its own orbit.
    """
    if not factors:
        raise ValueError("empty factor list")
    sizes = [f.size for f in factors]
    total = math.prod(sizes)
    cap = get_config().gset_cap
    if total > cap:
        raise SizeCap(f"tuple space has {total} points, cap is {cap}")
    n = len(factors)
    if w.degree != n:
        raise ValueError("coordinate group degree must match the factor count")
    if any(sizes[g[j]] != sizes[j] for g in w.generators for j in range(n)):
        raise ValueError("a coordinate permutation moves a factor onto one of another size")
    strides = [1] * n
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    w_maps = [
        _code_map([d * strides[g[j]] for d in range(sizes[j])] for j in range(n))
        for g in w.generators
    ]
    if not w_maps:
        return strides, range(total), range(total)
    first, *rest = w_maps
    orbit_of = [-1] * (total + 1)  # the last slot stays -1 and ends the scan
    reps: list[int] = []
    start = 0
    if not rest:  # one generator: each orbit is its cycle through start
        while start < total:
            oid = len(reps)
            reps.append(start)
            orbit_of[start] = oid
            code = first[start]
            while code != start:
                orbit_of[code] = oid
                code = first[code]
            start = orbit_of.index(-1, start + 1)
    else:
        while start < total:
            oid = len(reps)
            reps.append(start)
            orbit_of[start] = oid
            queue = [start]
            for code in queue:
                while True:  # the cycle of the first generator, until a labelled code
                    for m in rest:
                        image = m[code]
                        if orbit_of[image] < 0:
                            orbit_of[image] = oid
                            queue.append(image)
                    code = first[code]
                    if orbit_of[code] >= 0:
                        break
                    orbit_of[code] = oid
            start = orbit_of.index(-1, start + 1)
    return strides, orbit_of, reps


def _half_tables(factors: list[GSet], strides, elems):
    """The diagonal action of each element of G on the codes, as code maps
    over the leading n // 2 coordinates and over the rest, with low the
    number of codes of the rest: code c goes to hi[c // low] + lo[c % low]."""
    half = len(factors) // 2
    tables = []
    for g in elems:
        columns = [[d * stride for d in f.elem_action[g]] for f, stride in zip(factors, strides)]
        tables.append((_code_map(columns[:half]), _code_map(columns[half:])))
    return math.prod(f.size for f in factors[half:]), tables


def _tuple_orbit_quotient(factors: list[GSet], w: PermGroup) -> GSet:
    """The w-orbits as a G-set whose closure checks them: G's generators are
    read at the representatives."""
    strides, orbit_of, reps = _tuple_orbit_labels(factors, w)
    group = factors[0].group
    low, tables = _half_tables(factors, strides, group.generators)
    return GSet(group, len(reps), [[orbit_of[hi[c // low] + lo[c % low]] for c in reps] for hi, lo in tables])


def _quotient_classes(factors: list[GSet], w: PermGroup) -> BurnsideElement:
    """orbit_decompose(_tuple_orbit_quotient(factors, w)) with no G-set:
    `_orbit_classes` over the w-orbit labels and the half tables of every
    element of G.  No closure checks the labels, so ValueError is raised
    unless the classes' sizes [G : H] add up to the label count.
    """
    strides, orbit_of, reps = _tuple_orbit_labels(factors, w)
    elems = list(factors[0].elem_action)
    low, tables = _half_tables(factors, strides, elems)
    quotient = _orbit_classes(group_catalog(factors[0].group), elems, orbit_of, reps, low, tables)
    if quotient.size() != len(reps):
        raise ValueError("the orbit labels do not carry an action of G")
    return quotient


def beta_on_gset(h, x: GSet) -> GSet:
    """X^n / H for H <= S_n: H permutes coordinates, G acts diagonally."""
    w = _acting_group(h)
    n = w.degree
    if n == 0:
        return GSet.point(x.group)
    return _tuple_orbit_quotient([x] * n, w)


def beta2_on_gsets(l, x: GSet, y: GSet) -> GSet:
    """(X^p x Y^q) / L for L <= S_p x S_q, with the diagonal G-action."""
    if isinstance(l, SubgroupClass):
        p, q = l.ambient.degrees
        w = l.rep
    else:
        raise TypeError("beta2 needs a SubgroupClass of a pair ambient")
    if x.group != y.group:
        raise ValueError("X and Y must be sets over the same group")
    if p + q == 0:
        return GSet.point(x.group)
    return _tuple_orbit_quotient([x] * p + [y] * q, w)


def beta_on_element(h, x: BurnsideElement) -> BurnsideElement:
    """Effective-argument beta: realize, label the power's orbits, read off the classes."""
    w = _acting_group(h)
    if w.degree == 0:
        return BurnsideElement.unit(x.group)
    return _quotient_classes([x.to_gset()] * w.degree, w)


def beta_virtual(h, x: BurnsideElement) -> BurnsideElement:
    """The unique degree-n polynomial extension of X -> X^n/H to all of A(G).

    Effective arguments take the direct route.  Otherwise write
    x = plus - minus with both parts effective, evaluate
    g(k) = beta(plus + k*minus) at k = 0..n, and extrapolate the
    degree-<=n polynomial to k = -1 by Newton forward differences.
    """
    w = _acting_group(h)
    n = w.degree
    if x.is_effective():
        return beta_on_element(w, x)
    plus = BurnsideElement(x.catalog, [max(c, 0) for c in x.coords])
    minus = BurnsideElement(x.catalog, [max(-c, 0) for c in x.coords])
    values = [beta_on_element(w, plus + minus.scale(k)) for k in range(n + 1)]
    return extrapolate_to_minus_one(values)


def extrapolate_to_minus_one(values):
    """g(-1) for the polynomial g of degree < len(values) with g(k) = values[k].

    Newton forward differences: g(-1) = sum_j (-1)^j (Delta^j g)(0).  The
    values may be any elements with +, - and an integer scale().
    """
    result = values[0]
    diffs = values
    sign = -1
    for _ in range(len(values) - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        result = result + diffs[0].scale(sign)
        sign = -sign
    return result
