"""The names the benchmark traces still exist, and every demo runs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betaring.checks  # noqa: F401  (spans.FUNCTIONS names functions in it)
from betaring.config import get_config

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
