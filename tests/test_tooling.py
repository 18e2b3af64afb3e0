"""The names the benchmark traces still exist, every demo runs, and the
query path never builds a Cayley table."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betaring.checks  # noqa: F401  (spans.FUNCTIONS names functions in it)
from betaring import bring, catalog
from betaring.adams import solve_psi_K
from betaring.bring import BElement, diagonal, product, star, star_basis
from betaring.burnside import GSet, orbit_decompose
from betaring.catalog import Ambient
from betaring.checks import klein_group
from betaring.config import get_config
from betaring.perms import PermGroup, Permutation
from betaring.symfunc import coproduct, lin, lin2

ROOT = Path(__file__).resolve().parents[1]

# METHODS entries that are classmethods: the tracer rewraps them as such.
CLASSMETHODS = {
    ("catalog", "Catalog", "from_json"),
    ("perms", "PermGroup", "generate"),
    ("perms", "PermGroup", "from_elements"),
    ("bring", "BElement", "basis"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for modname, attr, _ in spans.FUNCTIONS:
        module = importlib.import_module(f"betaring.{modname}")
        assert callable(getattr(module, attr, None)), f"betaring.{modname}.{attr}"


def test_traced_methods_resolve():
    spans = load_spans()
    for modname, clsname, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"betaring.{modname}"), clsname)
        assert attr in cls.__dict__, f"{clsname}.{attr}"
        is_classmethod = isinstance(cls.__dict__[attr], classmethod)
        assert is_classmethod == ((modname, clsname, attr) in CLASSMETHODS), f"{clsname}.{attr}"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
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
    """With catalogs loaded from the cache, every query answers without the
    enumeration-only Cayley table, and answers as before."""
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
    for cached in (bring._basis_product, bring._refine_terms, bring._star_basis_key):
        cached.cache_clear()

    def refuse(self, group):
        raise AssertionError("a Cayley table was built on the query path")

    monkeypatch.setattr(catalog._GroupTable, "__init__", refuse)
    assert _query_results() == expected
    assert any(a.cacheable for a in catalog._CATALOGS)
