"""Symmetric functions over exact rationals in the e / h / p bases, and
their tensor powers.

An element is a finitely supported map from partitions to exact
rationals, tagged with its basis and its arity r: an arity-1 key is a
Partition, an arity-r key an r-tuple of Partitions (one per tensor factor,
all in the same basis).  Coefficients follow `exact.norm_coeff`: an int
when integral, a Fraction only after an inexact division (a 1/z_pi of the
h -> p expansion, a 1/|H| of a cycle index), so integer arithmetic stays
in ints.  The basis elements b_pi = prod_i b_{pi_i} are multiplicative,
so products just merge partitions, factor by factor.  Conversions run
through the Newton identities and round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .catalog import Ambient, get_catalog
from .errors import IntegralityViolation
from .exact import norm_coeff, quotient
from .perms import Partition, PermGroup, cycle_census, partitions

BASES = ("e", "h", "p")


def _merge(a: Partition, b: Partition) -> Partition:
    return Partition(a + b)


def _poly_add(acc: dict, other: dict, scale=1):
    for key, c in other.items():
        v = acc.get(key, 0) + c * scale
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


def _merge_factors(a: tuple, b: tuple) -> tuple:
    return tuple(Partition(x + y) for x, y in zip(a, b))


def _poly_mul(a: dict, b: dict, merge=_merge) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = merge(ka, kb)
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _tensor(factors) -> dict:
    """The tuple-keyed product of coefficient maps, one map per factor."""
    out = {(): 1}
    for coeffs in factors:
        out = {key + (pi,): c * w for key, c in out.items() for pi, w in coeffs.items()}
    return out


_EMPTY = Partition()


def _single(n: int, basis_from: str, basis_to: str) -> dict:
    return dict(_single_cached(n, basis_from, basis_to))


@lru_cache(maxsize=None)
def _single_cached(n: int, basis_from: str, basis_to: str):
    """Expansion of the degree-n generator of one basis in another basis."""
    if n == 0:
        return ((_EMPTY, 1),)
    if basis_from == basis_to:
        return ((Partition([n]), 1),)
    out: dict = {}
    if basis_to == "p":
        # h_n = sum_pi p_pi / z_pi ; e_n gets the sign (-1)^(n - length)
        for pi in partitions(n):
            sign = 1 if basis_from == "h" else (-1) ** (n - len(pi))
            _poly_add(out, {pi: quotient(sign, pi.centralizer_order())})
    elif basis_from == "p":
        # Newton: p_n = n b_n - sum_{i<n} (+-) p_i b_{n-i}, b in {h, e}
        sign = 1 if basis_to == "h" else (-1) ** (n - 1)
        out = {Partition([n]): n * sign}
        for i in range(1, n):
            term = _poly_mul(_single(i, "p", basis_to), {Partition([n - i]): 1})
            step = 1 if basis_to == "h" else (-1) ** (i - 1)
            _poly_add(out, term, scale=-sign * step)
    else:
        # h<->e: b_n = sum_{i=1..n} (-1)^(i-1) c_i b_{n-i}
        out = {}
        for i in range(1, n + 1):
            term = _poly_mul({Partition([i]): 1}, _single(n - i, basis_from, basis_to))
            _poly_add(out, term, scale=(-1) ** (i - 1))
    return tuple(sorted(out.items()))


class SymFunc:
    """A symmetric function, or an element of the r-th tensor power for
    arity r, committed to one of the e / h / p bases."""

    __slots__ = ("basis", "coeffs", "arity")

    def __init__(self, basis: str, coeffs=None, arity: int = 1):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        clean = {}
        for key, c in (coeffs or {}).items():
            c = norm_coeff(c)
            if c:
                clean[_as_key(key, arity)] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    @classmethod
    def zero(cls, basis: str = "p", arity: int = 1) -> SymFunc:
        return cls(basis, arity=arity)

    @classmethod
    def one(cls, basis: str = "p") -> SymFunc:
        return cls(basis, {_EMPTY: 1})

    @classmethod
    def generator(cls, basis: str, n: int) -> SymFunc:
        if n == 0:
            return cls.one(basis)
        return cls(basis, {Partition([n]): 1})

    @classmethod
    def monomial(cls, basis: str, pi, coeff=1) -> SymFunc:
        return cls(basis, {Partition(pi): coeff})

    @classmethod
    def tensor(cls, *factors: SymFunc) -> SymFunc:
        """f_1 (x) ... (x) f_r of r >= 2 arity-1 functions, in the p basis."""
        return cls("p", _tensor(f.convert("p").coeffs for f in factors), arity=len(factors))

    def _same_arity(self, other: SymFunc) -> SymFunc:
        """other in this basis; ValueError when the arities differ."""
        if other.arity != self.arity:
            raise ValueError(f"arity {self.arity} and arity {other.arity} do not combine")
        return other.convert(self.basis)

    def __add__(self, other: SymFunc) -> SymFunc:
        other = self._same_arity(other)
        return SymFunc(self.basis, _poly_add(dict(self.coeffs), other.coeffs), self.arity)

    def __sub__(self, other: SymFunc) -> SymFunc:
        other = self._same_arity(other)
        return SymFunc(self.basis, _poly_add(dict(self.coeffs), other.coeffs, scale=-1), self.arity)

    def __neg__(self) -> SymFunc:
        return SymFunc(self.basis, {k: -c for k, c in self.coeffs.items()}, self.arity)

    def scale(self, scalar) -> SymFunc:
        scalar = norm_coeff(scalar)
        return SymFunc(self.basis, {k: c * scalar for k, c in self.coeffs.items()}, self.arity)

    def __mul__(self, other: SymFunc) -> SymFunc:
        other = self._same_arity(other)
        merge = _merge if self.arity == 1 else _merge_factors
        return SymFunc(self.basis, _poly_mul(self.coeffs, other.coeffs, merge), self.arity)

    def convert(self, target: str) -> SymFunc:
        """Rewrite in the target basis, factor by factor; exact, and a round
        trip is the identity."""
        if target == self.basis:
            return self
        out: dict = {}
        for key, c in self.coeffs.items():
            if self.arity == 1:
                term = _expand(key, self.basis, target)
            else:
                term = _tensor(_expand(pi, self.basis, target) for pi in key)
            _poly_add(out, term, scale=c)
        return SymFunc(target, out, self.arity)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.arity == other.arity and self.convert("p").coeffs == other.convert("p").coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def _factors(self, key) -> tuple[Partition, ...]:
        return (key,) if self.arity == 1 else key

    def _degree(self, key) -> int:
        """The total degree of a key over its factors."""
        return sum(pi.n for pi in self._factors(key))

    def _sort_key(self, key):
        """Degree and parts, factor by factor: the repr and to_json order."""
        return tuple((pi.n, pi) for pi in self._factors(key))

    def degrees(self) -> set[int]:
        return {self._degree(key) for key in self.coeffs}

    def component(self, n: int) -> SymFunc:
        """The terms of total degree n, with the same arity."""
        terms = {key: c for key, c in self.coeffs.items() if self._degree(key) == n}
        return SymFunc(self.basis, terms, self.arity)

    def coefficient(self, key) -> int | Fraction:
        """The coefficient of a partition, or of an r-tuple of partitions
        for arity r: an int when integral (0 when absent), else a Fraction."""
        return self.coeffs.get(_as_key(key, self.arity), 0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for key, c in sorted(self.coeffs.items(), key=lambda kv: self._sort_key(kv[0])):
            name = "(x)".join(
                f"{self.basis}[{','.join(map(str, pi))}]" if pi else "1"
                for pi in self._factors(key)
            )
            bits.append(f"({c})*{name}" if c != 1 else name)
        return " + ".join(bits)

    def to_json(self):
        """Arity 1 writes a "partition" per term; arity r >= 2 writes
        "arity" and a list of r "partitions" per term."""
        terms = []
        for key, c in sorted(self.coeffs.items(), key=lambda kv: self._sort_key(kv[0])):
            if self.arity == 1:
                term = {"partition": list(key)}
            else:
                term = {"partitions": [list(pi) for pi in key]}
            terms.append({**term, "numerator": c.numerator, "denominator": c.denominator})
        out = {"basis": self.basis, "terms": terms}
        if self.arity != 1:
            out["arity"] = self.arity
        return out

    @classmethod
    def from_json(cls, data) -> SymFunc:
        arity = data.get("arity", 1)
        name = "partition" if arity == 1 else "partitions"
        coeffs = {}
        for t in data["terms"]:
            coeffs[_as_key(t[name], arity)] = quotient(t["numerator"], t["denominator"])
        return cls(data["basis"], coeffs, arity)


def _as_key(key, arity: int):
    """A coefficient key: a Partition for arity 1, an r-tuple of Partitions
    for arity r; ValueError when the factor count is wrong or a factor is
    an integer rather than a partition."""
    if arity == 1:
        return key if isinstance(key, Partition) else Partition(key)
    if not isinstance(key, (tuple, list)) or len(key) != arity:
        raise ValueError(f"key {key!r} does not have {arity} factors")
    if any(isinstance(pi, int) for pi in key):
        raise ValueError(f"key {key!r} has an integer factor, not a partition")
    return tuple(pi if isinstance(pi, Partition) else Partition(pi) for pi in key)


def _expand(pi: Partition, basis_from: str, basis_to: str) -> dict:
    """b_pi = prod_i b_{pi_i} of one basis, written in another."""
    term = {_EMPTY: 1}
    for part in pi:
        term = _poly_mul(term, _single(part, basis_from, basis_to))
    return term


def e_(n: int) -> SymFunc:
    return SymFunc.generator("e", n)


def h_(n: int) -> SymFunc:
    return SymFunc.generator("h", n)


def p_(n: int) -> SymFunc:
    return SymFunc.generator("p", n)


def coproduct(f: SymFunc) -> SymFunc:
    """The diagonal with every p_k primitive: arity 2, in f's basis;
    ValueError for f of another arity."""
    if f.arity != 1:
        raise ValueError(f"coproduct takes an arity-1 function, not arity {f.arity}")
    fp = f.convert("p")
    out: dict = {}
    for pi, c in fp.coeffs.items():
        splits = {(_EMPTY, _EMPTY): 1}
        for part, m in pi.multiplicities().items():
            step: dict = {}
            for (left, right), w in splits.items():
                for j in range(m + 1):
                    key = (
                        Partition(left + (part,) * j),
                        Partition(right + (part,) * (m - j)),
                    )
                    step[key] = step.get(key, 0) + w * comb(m, j)
            splits = step
        _poly_add(out, splits, scale=c)
    return SymFunc("p", out, arity=2).convert(f.basis)


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Composition f o g: an algebra map in f with p_k o g scaling parts by k.
    ValueError unless f and g both have arity 1."""
    if f.arity != 1 or g.arity != 1:
        raise ValueError(f"plethysm takes arity-1 functions, not arity {f.arity} and arity {g.arity}")
    fnum, fden = _numerators(f.convert("p").coeffs)
    gnum, gden = _numerators(g.convert("p").coeffs)
    # in integers over the one denominator fden * gden^top
    top = max(map(len, fnum), default=0)
    out: dict = {}
    for pi, c in fnum.items():
        term = {_EMPTY: c * gden ** (top - len(pi))}
        for part in pi:
            scaled = {Partition(part * q for q in mu): w for mu, w in gnum.items()}
            term = _poly_mul(term, scaled)
        _poly_add(out, term)
    den = fden * gden**top
    return SymFunc("p", {key: quotient(v, den) for key, v in out.items()})


def _numerators(coeffs: dict):
    """Coefficients as integers over one common denominator: (numerators, den)."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den


def cycle_index(group: PermGroup, degrees=None) -> SymFunc:
    """(1/|H|) sum of p_{cycle type} over the group, in the p basis.

    For H <= S_{n_1} x ... x S_{n_r} given by `degrees`, each cycle is
    counted in the variable family of the block holding it: an arity-r
    function.  The default is the single block S_{deg H}.
    """
    degrees = (group.degree,) if degrees is None else tuple(degrees)
    if sum(degrees) != group.degree:
        raise ValueError(f"degrees {degrees} do not sum to the group degree {group.degree}")
    census = cycle_census(group.elements, Ambient.prod(degrees).blocks())
    return _cycle_indices([(1, census, group.order)], len(degrees))


def _cycle_indices(terms, arity: int) -> SymFunc:
    """sum of c * Z(H) over (c, cycle census of H, |H|), in the p basis.

    Integer arithmetic up to one division per key: each count is weighted
    by c * D / |H|, with D the lcm of the orders, and each key's total is
    divided by D once.
    """
    den = lcm(*(order for _, _, order in terms))
    acc: dict = {}
    for c, census, order in terms:
        weight = c * (den // order)
        for key, count in census:
            acc[key] = acc.get(key, 0) + weight * count
    return SymFunc("p", {key: quotient(v, den) for key, v in acc.items()}, arity)


def _lin(a, arity: int) -> SymFunc:
    cats = [(get_catalog(Ambient.prod(degrees)), i, c) for (degrees, i), c in a.terms.items()]
    return _cycle_indices([(c, cat.census(i), cat.classes[i].order) for cat, i, c in cats], arity)


def lin(a) -> SymFunc:
    """The linearization map from the Burnside-class ring and its tensor
    powers: each class goes to the cycle index of a representative
    subgroup, one variable family per factor."""
    return _lin(a, a.arity)


def lin2(b) -> SymFunc:
    """lin of an arity-2 element, such as a diagonal; ValueError for any
    other arity."""
    if any(len(degrees) != 2 for degrees, _ in b.terms):
        raise ValueError("lin2 needs an element whose terms all have two factors")
    return _lin(b, 2)


def _det(rows):
    """Exact determinant by Bareiss elimination.  Each division is exact,
    so a matrix of ints keeps int entries throughout."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = quotient(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def generator_check(n: int) -> dict:
    """Unimodularity of the degree-n e<->h transition matrices."""
    pis = sorted(partitions(n))
    col = {pi: i for i, pi in enumerate(pis)}

    def matrix(src, dst):
        rows = []
        for pi in pis:
            vec = [Fraction(0)] * len(pis)
            expanded = SymFunc.monomial(src, pi).convert(dst)
            for mu, c in expanded.coeffs.items():
                vec[col[mu]] = c
            rows.append(vec)
        return rows

    det_eh = _det(matrix("e", "h"))
    det_he = _det(matrix("h", "e"))
    return {
        "n": n,
        "det_e_in_h": det_eh,
        "det_h_in_e": det_he,
        "unimodular": abs(det_eh) == 1 and abs(det_he) == 1,
    }


def power_sum_mod2_congruence(r: int) -> bool:
    """p_{2^r} == p_1^(2^r) mod 2 in integer h coordinates."""
    n = 2**r
    lhs = p_(n).convert("h")
    rhs = SymFunc.monomial("h", [1] * n)
    if not lhs.is_integral():
        raise IntegralityViolation("power sum has non-integer h expansion")
    diff = lhs - rhs
    return all(c.numerator % 2 == 0 for c in diff.coeffs.values())
