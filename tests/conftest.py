import pytest

from betaring.bring import _young_partition, sym_catalog
from betaring.config import Config, set_config


@pytest.fixture(scope="session", autouse=True)
def _session_config(tmp_path_factory):
    set_config(Config(catalog_dir=str(tmp_path_factory.mktemp("catalogs"))))
    yield


@pytest.fixture
def young_classes():
    """{n: the classes of S_n that `bring._young_partition` names, in catalog
    order} for n = 0..6: the one selection of Young classes the tests share."""
    return {n: [c for c in sym_catalog(n).classes if _young_partition(c) is not None] for n in range(7)}
