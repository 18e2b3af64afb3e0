"""The graded ring of symmetric-group Burnside classes and its tensor
powers: products, the restriction diagonal, composition, and the
evaluation homomorphisms into A(G) and the integers.

Basis elements are subgroup classes beta_H, H <= S_{n_1} x ... x S_{n_r},
indexed by (degrees, catalog index); r = 1 is the graded ring and the
diagonal lands in r = 2.  The product embeds H x K block-diagonally, one
factor at a time.  The diagonal restricts coset spaces along S_p x S_q
through the table of marks: the marks of Res(S_n/H) are row H of the
table of S_n read at the class fusion of S_p x S_q (`Catalog.fusion`),
and `BurnsideElement.from_marks` solves them over the table of S_p x S_q.
The composition sends (beta_H, beta_K) to the class of the wreath product
with H permuting deg(H) blocks and K acting inside each block.  For any
integral b, effective or virtual, the marks of beta_H * b are sums over
block systems of products of marks of beta_H and of b (the cycle-index
composition of species; see `star`), solved by `from_marks`.  Evaluation
on A(G) of a cyclic G reads marks too: the mark at <g> of X^n/H is H's
cycle index at the marks of X at the powers of g (see `eval_burnside`);
`eval_z` is the same Polya sum (`_polya`) at p_l -> r.  On a noncyclic
G the Young classes S_lambda (`_young_partition`, read off the class of
S_n alone), which span Psi^k and every Sym^n, read marks from the orbit
sizes of X at each class K (`_orbit_sizes`, X's marks at the fusion of
K's catalog); only the other terms take the explicit route,
`burnside.beta_virtual`, also the oracle of both mark routes.  The
diagonal, composition and evaluations take one-factor classes: unpacking
`(n,) = degrees` raises ValueError for any other arity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .burnside import BurnsideElement, beta_virtual, group_catalog
from .catalog import Ambient, Catalog, get_catalog
from .config import check_degree
from .errors import IntegralityViolation, NotEffective
from .exact import norm_coeff, quotient
from .perms import Permutation, _compose, direct_embed, wreath


def sym_catalog(n: int) -> Catalog:
    return get_catalog(Ambient.sym(n))


def _catalog(degrees) -> Catalog:
    return get_catalog(Ambient.prod(degrees))


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
            c = norm_coeff(c)
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
        scalar = norm_coeff(scalar)
        return BElement({k: c * scalar for k, c in self.terms.items()})

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
            check_degree(sum(key[0]))
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
    subgroup P = prod(flat_parts), through the table of marks.

    flat_parts must refine the ambient's factor degrees consecutively.
    Returns ((class index in the prod(flat_parts) catalog, multiplicity), ...).
    Restriction commutes with marks: the mark of Res(G/H) at L <= P is the
    mark of G/H at the G-class of L.  So row idx of G's table, read at
    `Catalog.fusion` of P, is the marks vector of the restriction, and
    `from_marks` solves it over P's table (raising on a vector outside the
    image, which only an inconsistent catalog gives).  A refinement across
    factors puts a representative of P outside G: NotASubgroup.
    """
    cat, sub = get_catalog(ambient), _catalog(flat_parts)
    marks = [cat.matrix[idx][j] for j in cat.fusion(sub)]
    coords = BurnsideElement.from_marks(sub, marks).coords
    return tuple((k, c) for k, c in enumerate(coords) if c)


def diagonal(a: BElement) -> BElement:
    """Restriction along all S_p x S_q <= S_n, through marks: arity 2."""
    out = {}
    for (degrees, i), c in a.terms.items():
        (n,) = degrees
        check_degree(n)
        for p in range(n + 1):
            for cidx, mult in _refine_terms(Ambient.sym(n), i, (p, n - p)):
                key = ((p, n - p), cidx)
                out[key] = out.get(key, 0) + c * mult
    return BElement(out)


@lru_cache(maxsize=None)
def _wreath_key(m: int, h: int, n: int, k: int) -> int:
    """The S_mn-class of the wreath product of class k of S_n by class h of S_m."""
    grown = wreath(sym_catalog(n).classes[k].rep, sym_catalog(m).classes[h].rep)
    return sym_catalog(m * n).identify(grown)


def star_basis(h_spec, k_spec) -> BElement:
    """The composition on basis classes, each given as (n, index/label/alias)
    of S_n: the class of the wreath product, the definition of the
    composition and the oracle for the marks formula of `star`."""
    (m, h), (n, k) = h_spec, k_spec
    check_degree(m * n)
    idx = _wreath_key(m, sym_catalog(m).class_index(h), n, sym_catalog(n).class_index(k))
    return BElement({((m * n,), idx): 1})


def _set_partitions(points: tuple, sizes: tuple):
    """Each partition of `points` into blocks of the multiset `sizes`, once."""
    if not points:
        yield ()
    for s in set(sizes):  # the size of the block of the first point
        left = sizes[: sizes.index(s)] + sizes[sizes.index(s) + 1 :]
        for others in itertools.combinations(points[1:], s - 1):
            rest = tuple(p for p in points[1:] if p not in others)
            yield from (((points[0], *others), *tail) for tail in _set_partitions(rest, left))


@lru_cache(maxsize=None)
def _block_systems(sizes: tuple[int, ...]) -> tuple:
    """For each class K of S_N, N = sum(sizes): the K-invariant partitions of
    {0..N-1} into blocks of these sizes (sorted), counted by (class of K^pi,
    K acting on the blocks; ((|B|, class of K_B, the stabilizer of B acting
    on B), ... one per K-orbit of blocks)).  Each class is found by
    `Catalog.identify` of an element set.  S_N permutes the partitions
    transitively, so K is skipped unless |K| divides N! / #partitions."""
    degree, table, systems = sum(sizes), [], []
    on_blocks, inner = sym_catalog(len(sizes)), {s: sym_catalog(s) for s in sizes}
    for blocks in _set_partitions(tuple(range(degree)), sizes):
        block_of = tuple(b for x in range(degree) for b, block in enumerate(blocks) if x in block)
        pos = tuple(block.index(x) for x in range(degree) for block in blocks if x in block)
        systems.append((blocks, block_of, pos, tuple(block[0] for block in blocks)))
    bound = math.factorial(degree) // len(systems)
    for cls in sym_catalog(degree).classes:
        counts: dict = {}
        gens = cls.rep.generators
        for blocks, block_of, pos, firsts in systems if bound % cls.order == 0 else ():
            # g preserves the partition iff block_of(x) determines block_of(g(x))
            if any(len(set(zip(block_of, _compose(block_of, g)))) > len(blocks) for g in gens):
                continue
            moves = [(g, _compose(block_of, _compose(g, firsts))) for g in cls.rep.elements]
            orbits = []
            for b, block in enumerate(blocks):
                if all(q[b] >= b for _, q in moves):  # the first block of its orbit
                    stab = frozenset(_compose(pos, _compose(g, block)) for g, q in moves if q[b] == b)
                    orbits.append((len(block), inner[len(block)].identify(stab)))
            key = (on_blocks.identify(q for _, q in moves), tuple(orbits))
            counts[key] = counts.get(key, 0) + 1
        table.append(tuple(counts.items()))
    return tuple(table)


def _component_marks(x: BElement) -> dict[int, tuple[int, ...]]:
    """The marks of each degree-n part of an integral one-factor x, over S_n."""
    coords: dict[int, list] = {}
    for ((n,), i), c in x.terms.items():
        coords.setdefault(n, [0] * len(sym_catalog(n).classes))[i] = c
    return {n: BurnsideElement(sym_catalog(n), v).marks() for n, v in coords.items()}


def star(a: BElement, b: BElement) -> BElement:
    """The composition a * b for an integral b, through marks: for a of degree
    n and b without a constant term, the mark at K <= S_N sums, over the
    K-invariant partitions pi of N points into n blocks with sizes among b's
    degrees, the mark of a at K^pi times, per K-orbit of blocks B, the mark
    of b_|B| at K_B.  A constant b = c gives eval_z(a, c); a constant beside
    terms of positive degree is refused (blocks could then be empty)."""
    if not b.is_integral():
        raise NotEffective("composition needs integer coefficients in b")
    den = math.lcm(*(c.denominator for c in a.terms.values()))
    if den > 1:  # a * b is linear in a
        return star(a.scale(den), b).scale(Fraction(1, den))
    b_marks = _component_marks(b)
    if 0 in b_marks:
        if len(b_marks) > 1:
            raise ValueError("composition with a constant term beside terms of positive degree")
        return BElement.one().scale(eval_z(a, b_marks[0][0]))
    marks: dict[int, list] = {}
    for n, a_marks in _component_marks(a).items():
        for sizes in itertools.combinations_with_replacement(sorted(b_marks), n):
            vector = marks.setdefault(sum(sizes), [0] * len(sym_catalog(sum(sizes)).classes))
            for k, systems in enumerate(_block_systems(sizes)):
                for (q, orbits), count in systems:
                    vector[k] += count * a_marks[q] * math.prod(b_marks[s][j] for s, j in orbits)
    solved = {d: BurnsideElement.from_marks(sym_catalog(d), v).coords for d, v in marks.items()}
    return BElement({((d,), i): c for d, coords in solved.items() for i, c in enumerate(coords)})


def star_effective(a: BElement, b: BElement) -> BElement:
    """a * b for b a genuine sum of classes (nonnegative coefficients)."""
    if not b.is_effective():
        raise NotEffective("second argument must have nonnegative integer coefficients")
    return star(a, b)


def _polya(a: BElement, *values) -> list:
    """Polya's sum for each monomial value v in `values`: over the terms
    c*beta_H of a one-factor a, c/|H| times the sum of count * v(pi) over H's
    cycle census, H's cycle index at p_pi -> v(pi).  One lookup per term."""
    totals = [0] * len(values)
    for ((n,), i), c in a.terms.items():
        cat = sym_catalog(n)
        census, order = cat.census(i), cat.classes[i].order
        for k, value in enumerate(values):
            totals[k] += c * quotient(sum([m * value(pi) for pi, m in census]), order)
    return totals


def eval_z(a: BElement, r: int):
    """The ring map to Z: beta_H(r) = (1/|H|) sum over h in H of r^(cycles of h),
    Polya's sum at p_l -> r.  That sum counts the orbits of H on
    r-colourings, so each class's value is an integer."""
    total = norm_coeff(_polya(a, lambda pi: r ** len(pi))[0])
    if type(total) is not int:
        raise IntegralityViolation(f"eval_z produced {total}")
    return total


def eval_burnside(a: BElement, x: BurnsideElement) -> BurnsideElement:
    """Act on A(G) through the polynomial beta operations.

    A cyclic G goes through marks, which are ring maps: every K <= G is
    cyclic, K = <g>, and phi_K(X^n/H) is H's cycle index at
    p_l -> phi_<g^l>(X) (Polya), with <g^l> the subgroup of order
    |K| / gcd(|K|, l).  So the marks of a(x) are Polya sums, one per K,
    for an effective or a virtual x alike, and `from_marks` solves them:
    no G-set is built and `gset_cap` does not apply.

    On any other G, the terms at Young classes S_lambda (which span
    Psi^k and every b^n = Sym^n) read marks as well: a K-fixed point of
    X^n/S_lambda is a tuple of multisets of sizes lambda_i, each constant
    on K-orbits, so phi_K(beta_lambda X) = prod_i [t^lambda_i]
    prod_s (1 - t^s)^(-N_s), with N_s the number of K-orbits of size s in
    Res_K X (`_orbit_sizes`).  N_s is linear in X, so a virtual x takes the
    same path.  Only the terms at other classes take the explicit route,
    `beta_virtual`.
    """
    if not a.is_integral():
        raise IntegralityViolation("eval on A(G) needs integer coefficients")
    cat = x.catalog
    if cat.group.is_cyclic():
        at = {cls.order: m for cls, m in zip(cat.classes, x.marks())}  # one subgroup per order
        values = [lambda pi, d=cls.order: math.prod(at[d // math.gcd(d, l)] for l in pi)
                  for cls in cat.classes]
        return BurnsideElement.from_marks(cat, _polya(a, *values))
    young, coords = [], [0] * len(cat.classes)
    for ((n,), i), c in a.terms.items():
        cls = sym_catalog(n).classes[i]
        if (lam := _young_partition(cls)) is not None:
            young.append((lam, c))
        else:
            coords = [s + c * t for s, t in zip(coords, beta_virtual(cls, x).coords)]
    if young:
        top = max(max(lam, default=0) for lam, _ in young)
        x_marks, marks = x.marks(), []
        for k in range(len(cat.classes)):
            series = _sym_series(_orbit_sizes(cat, k, x_marks), top)
            marks.append(sum(c * math.prod(series[part] for part in lam) for lam, c in young))
        term = BurnsideElement.from_marks(cat, marks).coords
        coords = [s + t for s, t in zip(coords, term)]
    return BurnsideElement(cat, coords)


def _young_partition(cls) -> tuple[int, ...] | None:
    """lambda = cls.ptype if class H is S_lambda, else None: H <= S_lambda, so iff |H| = prod lambda_i!."""
    return cls.ptype if cls.order == math.prod(map(math.factorial, cls.ptype)) else None


def _orbit_sizes(cat: Catalog, k: int, x_marks) -> dict[int, int]:
    """{s: N_s}, the number of K-orbits of size s in Res_K X for K = class
    k of G, from the marks of X: Res_K X has the marks of X at
    `Catalog.fusion` of K's catalog, and `from_marks` over it solves them."""
    sub = group_catalog(cat.classes[k].rep)
    marks = [x_marks[j] for j in cat.fusion(sub)]
    order, counts = cat.classes[k].order, {}
    for cls, c in zip(sub.classes, BurnsideElement.from_marks(sub, marks).coords):
        if c:
            counts[order // cls.order] = counts.get(order // cls.order, 0) + c
    return counts


def _sym_series(counts: dict[int, int], top: int) -> list[int]:
    """The coefficients of t^0..t^top in prod_s (1 - t^s)^(-N_s), N_s =
    counts[s] of any sign: the factor at s is sum_j C(N_s + j - 1, j) t^(sj)."""
    series = [1] + [0] * top
    for s, count in counts.items():
        factor, coeff = [], 1
        for j in range(top // s + 1):
            factor.append(coeff)
            coeff = coeff * (count + j) // (j + 1)
        series = [sum(f * series[d - s * j] for j, f in enumerate(factor[: d // s + 1]))
                  for d in range(top + 1)]
    return series
