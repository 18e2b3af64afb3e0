"""The names the benchmark traces still exist, every demo runs, the
query path never enumerates subgroups, the explicit G-set route
never reads marks, evaluation on a cyclic group builds no G-set, nor
does that of the Young classes and the Adams elements on A(S3), A(V4)
and A(S4), which opens no product catalog either, the Adams elements
never multiply classes, the diagonal and
composition restrict without building stabilizers, the composition neither
extrapolates nor builds mixed wreath products, identification builds
no group or permutation, and integer arithmetic
builds no Fraction, Polya's sum looks up each term's catalog once, the
Witt dual-route proof evaluates one ghost product per lower-set point
pair, and lin, eval_z, cycle_index, plethysm, coproduct, convert, the S4
representatives' reprs, the demos and one axioms-AG run's tuple quotients
give the pinned outputs.  Every module import and every private
definition of the package is used."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betaring.checks  # noqa: F401  (spans.FUNCTIONS names functions in it)
from betaring import adams, bring, burnside, catalog, perms, witt
from betaring.adams import psi_upper, solve_psi_K
from betaring.bring import BElement, diagonal, eval_z, product, star, star_basis, star_effective
from betaring.burnside import BurnsideElement, GSet, beta2_on_gsets, beta_on_gset, orbit_decompose
from betaring.catalog import Ambient
from betaring.checks import klein_group
from betaring.config import get_config
from betaring.perms import PermGroup, Permutation
from betaring.symfunc import coproduct, cycle_index, e_, h_, lin, lin2, p_, plethysm

ROOT = Path(__file__).resolve().parents[1]
# sha256 digests of `_pinned_outputs`, written from the commit before the
# cycle census took symmetric-function keys; the symfunc, S4 and demo
# digests from the commit before Permutation and Partition became tuples.
# Regenerate with
#   PYTHONPATH=src:tests python -c "import json, test_tooling as t; \
#     print(json.dumps(t._pinned_outputs(), indent=1))" > tests/pinned_outputs.json
PINNED_OUTPUTS = ROOT / "tests" / "pinned_outputs.json"
# The digest of one axioms-AG run's tuple quotients (orbit count and
# decomposition of each), written from the commit before the classes were
# read off the orbit labels.  The regeneration above leaves it out (copy it
# back); `test_axioms_count_their_tuple_quotients` checks it.
QUOTIENTS_PIN = "axioms-AG tuple quotients"


def _clear_caches(module):
    """Empty every `lru_cache` that `module` binds, so that a memoized
    answer does not hide the route a test checks."""
    for value in vars(module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


# METHODS entries that are classmethods: the tracer rewraps them as such.
CLASSMETHODS = {
    ("catalog", "Catalog", "from_json"),
    ("perms", "PermGroup", "generate"),
    ("perms", "PermGroup", "from_elements"),
    ("bring", "BElement", "basis"),
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    """Every unresolved name is listed, with the span it feeds."""
    spans = load_perfbench("spans")
    missing = [
        f"betaring.{modname}.{attr} (span {span})"
        for modname, attr, span in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"betaring.{modname}"), attr, None))
    ]
    assert not missing, "traced functions that do not resolve: " + ", ".join(missing)


def test_traced_methods_resolve():
    """Every missing method, and every one whose classmethod kind differs
    from CLASSMETHODS, is listed, with the span it feeds."""
    spans = load_perfbench("spans")
    missing = []
    for modname, clsname, attr, span in spans.METHODS:
        cls = getattr(importlib.import_module(f"betaring.{modname}"), clsname, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(f"betaring.{modname}.{clsname}.{attr} (span {span}): missing")
        elif isinstance(cls.__dict__[attr], classmethod) != ((modname, clsname, attr) in CLASSMETHODS):
            missing.append(f"betaring.{modname}.{clsname}.{attr} (span {span}): classmethod kind differs")
    assert not missing, "traced methods that do not resolve: " + "; ".join(missing)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    _demo_stdout(demo)


def _query_results():
    klein = klein_group()
    swap = PermGroup.generate(4, [Permutation.parse(4, "(2 3)")])
    rotations = PermGroup.generate(6, [Permutation.parse(6, "(0 1 2 3 4 5)")])
    b3, b4 = BElement.basis(3, "C3"), BElement.basis(4, 5)
    virtual = BElement.basis(2, "S2") - BElement.basis(1, "e")
    return {
        "identify": catalog.identify(Ambient.sym(6), rotations),
        "identify_klein": catalog.identify(Ambient.of_group(klein), swap),
        "product": product(b3, BElement.basis(3, "S3")),
        "diagonal": [diagonal(BElement.basis(6, i)) for i in (0, 9, 30, 55)],
        "star": star(BElement.basis(2, "S2"), virtual),
        "star_basis": star_basis((2, "S2"), (3, "C3")),
        "psi": solve_psi_K(6).psi,
        "orbits": orbit_decompose(GSet.coset_space(klein, swap) * GSet.coset_space(klein, swap)),
        "lin": (lin(b4), lin2(diagonal(b4)), coproduct(lin(b4))),
    }


def test_queries_build_no_cayley_table(monkeypatch):
    """With catalogs loaded from the cache, every query answers without
    enumerating subgroups, and answers as before."""
    expected = _query_results()
    assert expected["lin"][1] == expected["lin"][2]
    six = catalog.get_catalog(Ambient.sym(6)).classes[expected["identify"]]
    assert (six.order, six.ptype.parts) == (6, (6,))
    (((deg,), idx), coeff), = expected["star_basis"].terms.items()
    assert catalog.get_catalog(Ambient.sym(6)).classes[idx].order == 18 and coeff == 1
    klein = catalog.get_catalog(Ambient.of_group(klein_group()))
    assert sum(c * 4 // cls.order for c, cls in zip(expected["orbits"].coords, klein.classes)) == 4
    kept = {a: c for a, c in catalog._CATALOGS.items() if not a.cacheable}
    monkeypatch.setattr(catalog, "_CATALOGS", kept)
    _clear_caches(bring)

    def refuse(group):
        raise AssertionError("subgroups were enumerated on the query path")

    monkeypatch.setattr(catalog, "_enumerate_raw", refuse)
    assert _query_results() == expected
    assert any(a.cacheable for a in catalog._CATALOGS)


def _explicit_results():
    klein = klein_group()
    sets = [GSet.coset_space(klein, cls.rep) for cls in catalog.get_catalog(Ambient.of_group(klein)).classes]
    c3 = PermGroup.cyclic(3)
    x, y = GSet.regular(c3), GSet.coset_space(c3, c3)
    pair = catalog.get_catalog(Ambient.pair(2, 1))
    out = []
    for cls in catalog.get_catalog(Ambient.sym(3)).classes:
        for z in sets:
            quotient = beta_on_gset(cls, z)
            out.append((quotient.size, quotient.gen_action, orbit_decompose(quotient).coords))
            out.append(burnside._quotient_classes([z] * cls.rep.degree, cls.rep).coords)
    for cls in pair.classes:
        quotient = beta2_on_gsets(cls, x, y)
        out.append((quotient.size, quotient.gen_action, orbit_decompose(quotient).coords))
    built = (sets[0] * sets[1] + GSet.regular(klein), GSet(c3, 3, [(1, 2, 0)]))
    out.append(tuple((z.size, z.gen_action, len(z.elem_action)) for z in built))
    return out


def test_explicit_gset_route_reads_no_marks(monkeypatch):
    """beta_on_gset, beta2_on_gsets, G-set construction and orbit
    decomposition are the oracle the mark-level operations are checked
    against, so they must answer the same with the marks code disabled."""
    expected = _explicit_results()

    def refuse(*args, **kwargs):
        raise AssertionError("the explicit G-set route called marks code")

    monkeypatch.setattr(BurnsideElement, "marks", refuse)
    monkeypatch.setattr(BurnsideElement, "from_marks", refuse)
    monkeypatch.setattr(bring, "eval_burnside", refuse)
    assert _explicit_results() == expected


def _refuse_gsets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_burnside built a G-set")

    monkeypatch.setattr(burnside, "_tuple_orbit_labels", refuse)
    monkeypatch.setattr(GSet, "__init__", refuse)


def test_eval_on_cyclic_groups_builds_no_gset(monkeypatch):
    """eval_burnside on a cyclic G reads marks only: with the tuple quotient
    and G-set construction disabled, every class of S1..S6 still evaluates
    on every basis element of A(C2..C6).  On A(S3) and A(V4) a class that
    is not a Young subgroup, such as C3 <= S3, takes the explicit route, so
    there the disabled code is hit."""
    _refuse_gsets(monkeypatch)
    classes = [BElement.basis(n, i) for n in range(1, 7) for i in range(len(bring.sym_catalog(n)))]
    for k in range(2, 7):
        g = PermGroup.cyclic(k)
        for i in range(len(burnside.group_catalog(g))):
            x = BurnsideElement.basis(g, i)
            for a in classes:
                bring.eval_burnside(a, x)
    for g in (PermGroup.symmetric(3), klein_group()):
        with pytest.raises(AssertionError, match="built a G-set"):
            bring.eval_burnside(BElement.basis(3, "C3"), BurnsideElement.basis(g, "e"))


def test_eval_of_young_classes_builds_no_gset(monkeypatch, young_classes):
    """On a noncyclic G, the Young classes S_lambda and Psi^k read marks
    only: with the tuple quotient and G-set construction disabled, every
    Young class of S1..S6 and Psi^1..Psi^6 evaluate on every [G/H] and
    [G/H] - [G/G] of A(S3), A(V4) and A(S4), and each value has the size
    that eval_z gives at |X|, past the cap as well."""
    elements = _young_and_adams_elements(young_classes)
    cases = list(betaring.checks.young_eval_cases())
    _refuse_gsets(monkeypatch)
    assert len(elements) == 35 and len(cases) == 37
    for _, x in cases:
        for a in elements:
            assert bring.eval_burnside(a, x).size() == eval_z(a, x.size())


def _young_and_adams_elements(young_classes):
    """Each Young class of S1..S6, then Psi^1..Psi^6."""
    elements = [BElement.basis(n, cls.index) for n in range(1, 7) for cls in young_classes[n]]
    return elements + [psi_upper(k) for k in range(1, 7)]


def test_eval_of_young_classes_opens_no_product_catalog(young_classes):
    """A Young class is read off S_n's own catalog: with every catalog and
    every memo of `bring` forgotten, the Young classes of S1..S6 and
    Psi^1..Psi^6 evaluate on every [G/H] and [G/H] - [G/G] of A(S3), A(V4)
    and A(S4) without opening the catalog of an ambient of two or more
    factors."""
    catalog.clear_memo()
    for memoized in vars(bring).values():
        if hasattr(memoized, "cache_clear"):
            memoized.cache_clear()
    elements = _young_and_adams_elements(young_classes)
    for _, x in betaring.checks.young_eval_cases():
        for a in elements:
            bring.eval_burnside(a, x)
    products = [a.descriptor() for a in catalog._CATALOGS if a.degrees and len(a.degrees) > 1]
    assert products == []


def _statuses(reports, prefix):
    return {r["identity"]: r["status"] for r in reports if r["identity"].startswith(prefix)}


def test_beta_z_gates_the_orbit_size_route(monkeypatch):
    """The beta-z suite compares the orbit-size route with the explicit one
    on 222 cases and with eval_z on 380 cases past the cap; both lines
    fail when S_n and S_(n-1) x S_1 trade partitions in the Young rule."""
    lines = ("Young classes on", "size of eval")
    reports = betaring.checks.check_beta_z()
    assert [r["witness"] for r in reports if r["identity"].startswith(lines)] == ["222 cases", "380 cases"]
    assert all(r["status"] == "pass" for r in reports)
    real = bring._young_partition

    def swapped(cls):
        lam, n = real(cls), sum(cls.ptype)
        trade = {(n,): (n - 1, 1), (n - 1, 1): (n,)} if n > 1 else {}
        return trade.get(lam, lam)

    monkeypatch.setattr(bring, "_young_partition", swapped)
    statuses = _statuses(betaring.checks.check_beta_z(), lines)
    assert sorted(statuses.values()) == ["fail", "fail"]


def test_composition_checks_see_a_wrong_wreath_class(monkeypatch):
    """With the wreath class of S2 composed with S2 replaced by another
    class of S4, the composition axiom on A(S3) and the plethysm line of
    the polya suite fail: the memoized explicit values hide no mutation."""
    s2 = bring.sym_catalog(2).class_index("S2")
    wrong = bring.sym_catalog(4).class_index("C4")
    real = bring._wreath_key

    def mutated(m, h, n, k):
        return wrong if (m, h, n, k) == (2, s2, 2, s2) else real(m, h, n, k)

    monkeypatch.setattr(bring, "_wreath_key", mutated)
    assert wrong != real(2, s2, 2, s2)
    axioms = _statuses(betaring.checks.check_ag_axioms(), "composition axiom")
    assert axioms["composition axiom deg<= 3 on A(S3)"] == "fail"
    polya = _statuses(betaring.checks.check_polya(), "lin(beta_H * beta_K composition) = plethysm")
    assert list(polya.values()) == ["fail"]


def test_addition_axiom_sees_a_dropped_diagonal_term(monkeypatch):
    """With one term dropped from the diagonal of the S2 class, its addition
    axiom lines fail and the other addition lines still pass."""
    s2 = bring.sym_catalog(2).class_of("S2")
    target = BElement.basis(2, "S2")

    def dropped(a):
        terms = dict(diagonal(a).terms)
        if a == target:
            terms.popitem()
        return BElement(terms)

    monkeypatch.setattr(betaring.checks, "diagonal", dropped)
    statuses = _statuses(betaring.checks.check_ag_axioms(), "addition axiom")
    failed = {identity for identity, status in statuses.items() if status == "fail"}
    assert failed == {f"addition axiom S2:{s2.label} on A({g})" for g in ("C2", "C3", "C4", "S3")}


def test_axioms_count_their_tuple_quotients(monkeypatch):
    """One axioms-AG run labels the orbits of 1,659 tuple quotients, where
    computing every value where it is used took 2,373.  Each quotient's
    number of orbits and decomposition (of the G-set, where one is built),
    in call order, hash to the pinned digest."""
    labels, quotient, classes = (
        burnside._tuple_orbit_labels, burnside._tuple_orbit_quotient, burnside._quotient_classes
    )
    sizes, coords = [], []

    def counted_labels(factors, w):
        out = labels(factors, w)
        sizes.append(len(out[2]))
        return out

    def counted_quotient(factors, w):
        out = quotient(factors, w)
        coords.append(orbit_decompose(out).coords)
        return out

    def counted_classes(factors, w):
        out = classes(factors, w)
        coords.append(out.coords)
        return out

    monkeypatch.setattr(burnside, "_tuple_orbit_labels", counted_labels)
    monkeypatch.setattr(burnside, "_tuple_orbit_quotient", counted_quotient)
    for module in (burnside, betaring.checks):
        monkeypatch.setattr(module, "_quotient_classes", counted_classes)
    reports = betaring.checks.check_ag_axioms()
    assert all(r["status"] == "pass" for r in reports)
    assert len(sizes) == len(coords) == 1659
    digest = hashlib.sha256()
    for call in zip(sizes, coords):
        digest.update(json.dumps(call).encode())
    assert digest.hexdigest() == json.loads(PINNED_OUTPUTS.read_text())[QUOTIENTS_PIN]


def _adams_results():
    return [psi_upper(k) for k in range(7)], [solve_psi_K(n).psi for n in range(1, 7)]


def test_adams_elements_multiply_no_classes(monkeypatch):
    """Psi^k and Psi_K are read off their marks, so they answer the same
    with the graded product disabled."""
    expected = _adams_results()

    def refuse(*args, **kwargs):
        raise AssertionError("an Adams element was built from graded products")

    for module in (bring, adams):
        monkeypatch.setattr(module, "product", refuse)
    monkeypatch.setattr(bring, "_basis_product", refuse)
    _clear_caches(adams)
    assert _adams_results() == expected


def _restriction_results():
    diagonals = [
        diagonal(BElement.basis(n, i))
        for n in range(1, 7)
        for i in range(len(catalog.get_catalog(Ambient.sym(n)).classes))
    ]
    pairs = [
        ((2, "S2"), (2, "e")), ((3, "C3"), (1, "e")), ((2, "e"), (3, "S3")), ((3, "S3"), (2, "S2")),
    ]
    stars = [
        star_effective(BElement.basis(*a), BElement.basis(*b) + BElement.basis(1, "e"))
        for a, b in pairs
    ]
    return diagonals, stars


def test_restriction_builds_no_stabilizers(monkeypatch):
    """The diagonal reads restrictions off the table of marks and the
    composition reads marks, so they answer the same with
    PermGroup.from_elements disabled."""
    expected = _restriction_results()

    def refuse(*args, **kwargs):
        raise AssertionError("a restriction built a stabilizer subgroup")

    monkeypatch.setattr(PermGroup, "from_elements", classmethod(refuse))
    _clear_caches(bring)
    assert _restriction_results() == expected


def _virtual_star_results():
    workloads = load_perfbench("workloads")
    out = []
    for n, name in workloads.MIX["star"][1]:
        b = BElement({((d,), i): c for d, i, c in workloads.VIRTUAL[name]})
        out += [star(BElement.basis(n, i), b) for i in range(workloads.CLASS_COUNTS[n])]
    return out


def test_star_takes_no_newton_or_mixed_wreath_route(monkeypatch):
    """star composes every class of each degree the warm-mix workload draws
    with its virtual second arguments through marks alone: with Newton
    extrapolation and mixed wreath products disabled in every module that
    binds them, and the bring caches cleared, it answers as before."""
    expected = _virtual_star_results()

    def refuse(*args, **kwargs):
        raise AssertionError("star extrapolated or built a mixed wreath product")

    for module in (bring, burnside, perms):
        for name in ("extrapolate_to_minus_one", "mixed_wreath"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    _clear_caches(bring)
    assert _virtual_star_results() == expected


def _identification_results(products):
    diagonals = [
        diagonal(BElement.basis(n, i))
        for n in range(1, 7)
        for i in range(len(catalog.get_catalog(Ambient.sym(n)).classes))
    ]
    b = BElement.basis(2, "S2") - BElement.basis(1, "e")
    stars = [
        star(BElement.basis(n, i), b)
        for n in range(1, 4)
        for i in range(len(catalog.get_catalog(Ambient.sym(n)).classes))
    ]
    return diagonals, stars, [orbit_decompose(x) for x in products]


def test_identification_builds_no_group_or_permutation(monkeypatch):
    """Catalog.identify reads element sets: with the catalogs memoized but
    the bring caches and every catalog's identify memo emptied, the
    diagonal of every class of S1..S6, the composition of every class of
    S1..S3 with b[S2:S2] - b^1 and the orbit decomposition of every product
    of two transitive V4-sets answer as before with PermGroup and
    Permutation construction disabled."""
    klein = klein_group()
    sets = [GSet.coset_space(klein, cls.rep) for cls in catalog.get_catalog(Ambient.of_group(klein)).classes]
    products = [x * y for x in sets for y in sets]
    expected = _identification_results(products)
    _clear_caches(bring)
    for cat in [*catalog._CATALOGS.values(), *catalog._BUILT.values()]:
        cat._identified.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("identification built a group or a permutation")

    monkeypatch.setattr(PermGroup, "__init__", refuse)
    monkeypatch.setattr(Permutation, "__init__", refuse)
    assert _identification_results(products) == expected


def _integer_results():
    elements = []
    for n in range(1, 7):
        count = len(catalog.get_catalog(Ambient.sym(n)).classes)
        elements += [BElement.basis(n, i) for i in range(count)]
        elements.append(BElement.basis(n, 0).scale(3) - BElement.basis(n, count - 1).scale(2))
    f, g = p_(2) + p_(1) * p_(1), p_(3) - p_(1) * p_(2) * p_(2)
    return [[eval_z(a, r) for r in range(4)] for a in elements], [f + g, f * g, plethysm(f, g), plethysm(g, f)]


def test_integer_arithmetic_builds_no_fraction(monkeypatch):
    """eval_z of integer elements, BElement.scale by an int, and +, * and
    plethysm of integer p-basis functions stay in ints: they answer the
    same with Fraction construction disabled."""
    expected = _integer_results()

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built from integer arguments")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert _integer_results() == expected


def _demo_stdout(demo: Path) -> str:
    """The standard output of one demo, run in a fresh interpreter on the
    session's catalog directory; fails the test when the demo fails."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(
        os.environ,
        BETARING_CATALOG_DIR=str(get_config().resolved_catalog_dir()),
        PYTHONPATH=os.pathsep.join(paths),
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _pinned_outputs() -> dict:
    """sha256 of the JSON of lin in the p, e and h bases and of eval_z at
    r = -3..4, over every class of S0..S6 and over Psi^1..Psi^6, and of the
    cycle index over the factors (2, 3) of every class of S2 x S3; of the
    JSON and repr of plethysm, coproduct and convert over a grid of five
    functions; of the repr of each S4 class representative's generators
    and orbit partition; and of the standard output of every demo."""
    inputs = {f"S{n}": [BElement.basis(n, i) for i in range(len(bring.sym_catalog(n)))] for n in range(7)}
    inputs["Psi"] = [psi_upper(k) for k in range(1, 7)]
    outputs = {}
    for name, elements in inputs.items():
        for basis in ("p", "e", "h"):
            outputs[f"lin {name} {basis}"] = [lin(a).convert(basis).to_json() for a in elements]
        outputs[f"eval_z {name}"] = [[eval_z(a, r) for r in range(-3, 5)] for a in elements]
    s2s3 = catalog.get_catalog(Ambient.pair(2, 3)).classes
    outputs["cycle_index S2xS3"] = [cycle_index(cls.rep, (2, 3)).to_json() for cls in s2s3]
    grid = [p_(1), p_(2) + p_(1) * p_(1), h_(2), e_(3), h_(2) * e_(1) - p_(3).scale(Fraction(1, 2))]
    images = {
        "plethysm": [plethysm(f, g) for f in grid for g in grid],
        "coproduct": [coproduct(f) for f in grid],
        "convert": [f.convert(basis) for f in grid for basis in ("e", "h", "p")],
    }
    for name, values in images.items():
        outputs[name] = [f.to_json() for f in values]
        outputs[f"repr {name}"] = [repr(f) for f in values]
    s4 = catalog.get_catalog(Ambient.sym(4)).classes
    outputs["repr S4 classes"] = [[repr(cls.rep.generators), repr(cls.ptype)] for cls in s4]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        outputs[f"demo {demo.name}"] = _demo_stdout(demo)
    return {key: hashlib.sha256(json.dumps(v).encode()).hexdigest() for key, v in outputs.items()}


def test_outputs_are_the_pinned_ones():
    pinned = json.loads(PINNED_OUTPUTS.read_text())
    del pinned[QUOTIENTS_PIN]
    assert _pinned_outputs() == pinned


def test_polya_sum_looks_up_each_term_once(monkeypatch):
    """eval_z and eval_burnside on a cyclic G look up one S_n catalog per
    term of a, however many classes G has."""
    a = BElement.basis(2, "S2") + BElement.basis(3, "e").scale(2)
    x = BurnsideElement.basis(PermGroup.cyclic(4), 0)
    lookups, real = [], bring.get_catalog
    monkeypatch.setattr(bring, "get_catalog", lambda ambient: lookups.append(ambient) or real(ambient))
    bring.eval_burnside(a, x)
    assert lookups == [Ambient.sym(2), Ambient.sym(3)]
    eval_z(a, 3)
    assert len(lookups) == 4


def test_witt_dual_route_evaluates_the_lower_set_pairs(monkeypatch):
    """delta_m_dual_route_agrees(5) inverts one ghost product per pair of
    the 19 points of S_5: 361, where the 144 x 144 tensor grid took 20,736."""
    calls, real = [], witt.eps_from_ghost
    monkeypatch.setattr(witt, "eps_from_ghost", lambda ghost: calls.append(1) or real(ghost))
    assert witt.delta_m_dual_route_agrees(5)
    assert len(calls) == 19 * 19 == 361


def test_every_module_import_is_used():
    """No linter runs in tier-1, so a deletion can leave an import behind:
    each name a module of the package imports at module level (the
    package's __init__ and __future__ features aside) is read in it."""
    unused = []
    for path in sorted((ROOT / "src" / "betaring").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_definition_is_used():
    """A deletion can leave a private helper behind too: each function,
    method or class of the package whose name has one leading underscore
    is referenced somewhere in the package, as a name, an attribute or an
    imported name."""
    defined, referenced = [], set()
    for path in sorted((ROOT / "src" / "betaring").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert len(defined) > 50
    unused = [f"{module}: {name}" for module, name in defined if name not in referenced]
    assert not unused, "unused private definitions: " + ", ".join(unused)
