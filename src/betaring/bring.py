"""The graded ring of symmetric-group Burnside classes and its tensor
powers: products, the restriction diagonal, composition, and the
evaluation homomorphisms into A(G) and the integers.

Basis elements are subgroup classes beta_H, H <= S_{n_1} x ... x S_{n_r},
indexed by (degrees, catalog index); r = 1 is the graded ring and the
diagonal lands in r = 2.  The product embeds H x K block-diagonally, one
factor at a time.  The diagonal restricts coset spaces along S_p x S_q by
the Mackey formula, reading the double cosets S_p x S_q \\ S_n / H off as
the orbits of H on ordered set partitions of type (p, q), so no Cayley
table of S_n is built.  The composition sends (beta_H, beta_K) to the
class of the wreath product with H permuting deg(H) blocks and K acting
inside each block, extended to sums by splitting H over the summands and
to virtual arguments by Newton extrapolation in each degree.  The
diagonal, composition and evaluations take one-factor classes: unpacking
`(n,) = degrees` raises ValueError for any other arity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .burnside import BurnsideElement, beta_virtual, extrapolate_to_minus_one
from .catalog import Ambient, Catalog, get_catalog
from .config import get_config
from .errors import DegreeCap, IntegralityViolation, NotEffective
from .perms import PermGroup, Permutation, direct_embed, mixed_wreath, wreath


def sym_catalog(n: int) -> Catalog:
    return get_catalog(Ambient.sym(n))


def _catalog(degrees) -> Catalog:
    return get_catalog(Ambient.prod(degrees))


def _check_degree(n: int):
    if n > get_config().max_degree:
        raise DegreeCap(f"degree {n} exceeds max_degree {get_config().max_degree}")


def _norm_coeff(c):
    c = Fraction(c)
    return int(c) if c.denominator == 1 else c


class BElement:
    """A finitely supported combination of classes (degrees, class index).

    `degrees` is a composition (n_1, ..., n_r) and the index points into
    the Ambient.prod(degrees) catalog of subgroup classes of
    S_{n_1} x ... x S_{n_r}.  Arity r = 1 is the graded ring itself;
    the diagonal lands in arity 2.  Sums may mix arities (a vector of
    the direct sum over r); products need equal arities.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (degrees, idx), c in (terms or {}).items():
            c = _norm_coeff(c)
            if c:
                clean[(tuple(degrees), idx)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BElement is immutable")

    @classmethod
    def zero(cls) -> BElement:
        return cls()

    @classmethod
    def one(cls) -> BElement:
        return cls({((0,), 0): 1})

    @classmethod
    def basis(cls, n, spec) -> BElement:
        """The class `spec` (index, label or alias) of S_n, or of
        S_{n_1} x ... x S_{n_r} when n is the tuple of degrees."""
        degrees = (n,) if isinstance(n, int) else tuple(n)
        _check_degree(sum(degrees))
        return cls({(degrees, _catalog(degrees).class_index(spec)): 1})

    @property
    def arity(self) -> int:
        """The number of factors shared by every term (1 for zero)."""
        arities = {len(degrees) for degrees, _ in self.terms}
        if len(arities) > 1:
            raise ValueError(f"terms of arities {sorted(arities)} have no common arity")
        return arities.pop() if arities else 1

    def __add__(self, other: BElement) -> BElement:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return BElement(out)

    def __sub__(self, other: BElement) -> BElement:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return BElement(out)

    def __neg__(self) -> BElement:
        return BElement({k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> BElement:
        return BElement({k: c * Fraction(scalar) for k, c in self.terms.items()})

    def __mul__(self, other: BElement) -> BElement:
        return product(self, other)

    def __eq__(self, other):
        return isinstance(other, BElement) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_effective(self) -> bool:
        return all(isinstance(c, int) and c >= 0 for c in self.terms.values())

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def degrees(self) -> set[int]:
        """Total degrees n_1 + ... + n_r of the terms."""
        return {sum(degrees) for degrees, _ in self.terms}

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def component(self, n: int) -> BElement:
        return BElement({k: c for k, c in self.terms.items() if sum(k[0]) == n})

    def label_of(self, key) -> str:
        degrees, idx = key
        cls = _catalog(degrees).classes[idx]
        name = cls.aliases[0] if cls.aliases else cls.label
        return f"{cls.ambient.descriptor()}:{name}"

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            if not sum(key[0]):
                bits.append(f"{c}")
            elif c == 1:
                bits.append(f"b[{self.label_of(key)}]")
            else:
                bits.append(f"{c}*b[{self.label_of(key)}]")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self):
        out = []
        for (degrees, idx) in sorted(self.terms):
            c = self.terms[(degrees, idx)]
            cls = _catalog(degrees).classes[idx]
            entry = {"degrees": list(degrees), "class_index": idx, "class_label": cls.label}
            if isinstance(c, Fraction):
                entry["coeff"] = [c.numerator, c.denominator]
            else:
                entry["coeff"] = c
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data) -> BElement:
        terms = {}
        for entry in data:
            c = entry["coeff"]
            if isinstance(c, list):
                c = Fraction(c[0], c[1])
            terms[(tuple(entry["degrees"]), entry["class_index"])] = c
        return cls(terms)


def beta_upper(n: int) -> BElement:
    """beta^n: the class of the full group S_n (the trivial S_n-set)."""
    _check_degree(n)
    cat = sym_catalog(n)
    return BElement({((n,), len(cat.classes) - 1): 1})


def beta_regular(n: int) -> BElement:
    """The class of the trivial subgroup of S_n (the free S_n-set)."""
    return BElement.basis(n, "e")


def product(a: BElement, b: BElement) -> BElement:
    """Bilinear extension of beta_H * beta_K = beta_{H x K}, factor by factor."""
    out = {}
    for (da, i), ca in a.terms.items():
        for (db, j), cb in b.terms.items():
            key = _basis_product(da, i, db, j)
            out[key] = out.get(key, 0) + ca * cb
    return BElement(out)


@lru_cache(maxsize=None)
def _basis_product(da: tuple, i: int, db: tuple, j: int) -> tuple[tuple, int]:
    """H x K with factor k of H next to factor k of K, in prod(a_k + b_k)."""
    if len(da) != len(db):
        raise ValueError(
            f"cannot multiply classes of {Ambient.prod(da).descriptor()}"
            f" and {Ambient.prod(db).descriptor()}"
        )
    degrees = tuple(a + b for a, b in zip(da, db))
    _check_degree(sum(degrees))
    h = _catalog(da).classes[i].rep
    k = _catalog(db).classes[j].rep
    embedded = direct_embed(h, k).conjugate(_interleave(da, db))
    return (degrees, _catalog(degrees).identify(embedded))


def _interleave(da: tuple, db: tuple) -> Permutation:
    """Send the points of direct_embed(H, K) (H's blocks, then K's) to
    prod(a_k + b_k), whose block k holds H's block k followed by K's.
    For one factor this is the identity."""
    left, right, start = [], [], 0
    for a, b in zip(da, db):
        left += range(start, start + a)
        right += range(start + a, start + a + b)
        start += a + b
    return Permutation(left + right)


@lru_cache(maxsize=None)
def _refine_terms(ambient: Ambient, idx: int, flat_parts: tuple[int, ...]):
    """Restrict a subgroup class H of G = prod(degrees) along the Young
    subgroup P = prod(flat_parts), by the Mackey formula.

    flat_parts must refine the ambient's factor degrees consecutively.
    Returns ((class index in the prod(flat_parts) catalog, multiplicity), ...).
    A double coset P g H is an H-orbit on the labelings l = block o g, where
    block sends each point to its part of flat_parts: the ordered set
    partitions of type flat_parts that refine the factors of G, with h in H
    acting by l -> l o h.  The class of P meet g H g^-1 is that of the
    stabilizer of l in H, conjugated into P by the order-preserving g with
    block o g = l.
    """
    cat = get_catalog(ambient)
    cuts = set()
    acc = 0
    for d in cat.ambient.degrees:
        acc += d
        cuts.add(acc)
    running = {0}
    starts = []
    total = 0
    for part in flat_parts:
        starts.append(total)
        total += part
        running.add(total)
    if total != cat.group.degree or not cuts <= running:
        raise ValueError(f"refinement {flat_parts} does not respect {cat.ambient.degrees}")
    rep = cat.classes[idx].rep
    sub_cat = get_catalog(Ambient.prod(flat_parts))
    seen = set()
    out: dict[int, int] = {}
    for labeling in _labelings(cat.ambient.blocks(), flat_parts, starts):
        if labeling in seen:
            continue
        place = []  # the order-preserving g, sending part j's points to block j
        free = list(starts)
        for part in labeling:
            place.append(free[part])
            free[part] += 1
        conj = set()
        for h in rep.elements:
            moved = tuple(labeling[x] for x in h)
            seen.add(moved)
            if moved == labeling:
                image = [0] * total
                for x, y in enumerate(h):
                    image[place[x]] = place[y]
                conj.add(tuple(image))
        cidx = sub_cat.identify(PermGroup.from_elements(total, conj))
        out[cidx] = out.get(cidx, 0) + 1
    return tuple(sorted(out.items()))


def _labelings(blocks, flat_parts, starts):
    """Every point -> part map of type flat_parts that keeps each part inside
    the block of G holding its points, as a tuple over the points."""
    per_block = []
    for block in blocks:
        word = [j for j, size in enumerate(flat_parts) if starts[j] in block for _ in range(size)]
        per_block.append(sorted(set(itertools.permutations(word))))
    for pieces in itertools.product(*per_block):
        yield sum(pieces, ())


def diagonal(a: BElement) -> BElement:
    """Restriction along all S_p x S_q <= S_n, by double cosets: arity 2."""
    out = {}
    for (degrees, i), c in a.terms.items():
        (n,) = degrees
        for p in range(n + 1):
            for cidx, mult in _refine_terms(Ambient.sym(n), i, (p, n - p)):
                key = ((p, n - p), cidx)
                out[key] = out.get(key, 0) + c * mult
    return BElement(out)


def _compositions(n: int, r: int):
    if r == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _star_basis_key(m: int, i: int, n: int, j: int) -> tuple[tuple[int], int]:
    _check_degree(m * n)
    h = sym_catalog(m).classes[i].rep
    k = sym_catalog(n).classes[j].rep
    w = wreath(k, h)  # h permutes m blocks, k acts inside each block of size n
    return ((w.degree,), sym_catalog(w.degree).identify(w))


def star_basis(h_spec, k_spec) -> BElement:
    """The composition on basis classes: the class of the wreath product."""
    (m, i) = _as_key(h_spec)
    (n, j) = _as_key(k_spec)
    return BElement({_star_basis_key(m, i, n, j): 1})


def _as_key(spec) -> tuple[int, int]:
    """(n, class index) of a coefficient-one basis class of S_n, given as a
    BElement or as (n, index/label/alias)."""
    if isinstance(spec, BElement):
        if len(spec.terms) != 1:
            raise ValueError("expected a single basis class")
        ((n,), idx), c = next(iter(spec.terms.items()))
        if c != 1:
            raise ValueError("expected a coefficient-one basis class")
        return (n, idx)
    n, rest = spec
    return (n, sym_catalog(n).class_index(rest))


def star_effective(a: BElement, b: BElement) -> BElement:
    """a * b for b a genuine sum of classes (nonnegative coefficients).

    Splits each beta_H over the list of summands of b with the iterated
    diagonal, then assembles each term as a mixed wreath product: the
    restricted class permutes same-size blocks and each summand acts
    inside its own blocks.
    """
    if not b.is_effective():
        raise NotEffective("second argument must have nonnegative integer coefficients")
    summands = []
    for key in sorted(b.terms):
        ((m,), j) = key
        summands.extend([(m, j)] * b.terms[key])
    r = len(summands)
    out = BElement.zero()
    for ((n,), i), c in a.terms.items():
        if r == 0:
            if n == 0:
                out = out + BElement.one().scale(c)
            continue
        for comp in _compositions(n, r):
            positions = [t for t, p in enumerate(comp) if p > 0]
            sub_parts = tuple(comp[t] for t in positions)
            inners = [sym_catalog(summands[t][0]).classes[summands[t][1]].rep for t in positions]
            if not positions:
                if n == 0:
                    out = out + BElement.one().scale(c)
                continue
            for cidx, mult in _refine_terms(Ambient.sym(n), i, sub_parts):
                l_rep = _catalog(sub_parts).classes[cidx].rep
                grown = mixed_wreath(l_rep, sub_parts, inners)
                key = ((grown.degree,), sym_catalog(grown.degree).identify(grown))
                out = out + BElement({key: c * mult})
    return out


def star(a: BElement, b: BElement) -> BElement:
    """Composition, extended to virtual b by per-degree Newton extrapolation."""
    if b.is_effective():
        return star_effective(a, b)
    if not b.is_integral():
        raise NotEffective("composition needs integer coefficients in b")
    plus = BElement({k: c for k, c in b.terms.items() if c > 0})
    minus = BElement({k: -c for k, c in b.terms.items() if c < 0})
    out = BElement.zero()
    for key, c in a.terms.items():
        ((n,), _) = key
        basis = BElement({key: 1})
        values = [star_effective(basis, plus + minus.scale(k)) for k in range(n + 1)]
        out = out + extrapolate_to_minus_one(values).scale(c)
    return out


@lru_cache(maxsize=None)
def _cycle_count_census(n: int, i: int) -> tuple[tuple[int, int], ...]:
    """((k, c_k), ...): c_k elements of the class representative have k cycles."""
    rep = sym_catalog(n).classes[i].rep
    census: dict[int, int] = {}
    for g in rep:
        k = len(g.cycles())
        census[k] = census.get(k, 0) + 1
    return tuple(sorted(census.items()))


def eval_z(a: BElement, r: int):
    """The ring map to Z: beta_H(r) = (1/|H|) sum_k c_k r^k."""
    total = Fraction(0)
    for ((n,), i), c in a.terms.items():
        order = sym_catalog(n).classes[i].order
        census = _cycle_count_census(n, i)
        total += Fraction(c) * Fraction(sum(ck * r**k for k, ck in census), order)
    if total.denominator != 1:
        raise IntegralityViolation(f"eval_z produced {total}")
    return int(total)


def eval_burnside(a: BElement, x: BurnsideElement) -> BurnsideElement:
    """Act on A(G) through the polynomial beta operations."""
    if not a.is_integral():
        raise IntegralityViolation("eval on A(G) needs integer coefficients")
    out = BurnsideElement.zero(x.group)
    for ((n,), i), c in a.terms.items():
        cls = sym_catalog(n).classes[i]
        out = out + beta_virtual(cls, x).scale(c)
    return out
