import threading
from dataclasses import replace

import pytest

from betaring import config
from betaring.config import Config


def test_max_degree_validation():
    Config(max_degree=7)
    with pytest.raises(ValueError):
        Config(max_degree=8)
    with pytest.raises(ValueError):
        Config(max_degree=0)
    with pytest.raises(ValueError):
        Config(gset_cap=0)


def test_override_restores(tmp_path):
    before = config.get_config()
    with config.override(gset_cap=5):
        assert config.get_config().gset_cap == 5
    assert config.get_config() == before


def test_env_var_selects_catalog_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("BETARING_CATALOG_DIR", str(tmp_path))
    assert Config(catalog_dir=None).resolved_catalog_dir() == tmp_path
    assert Config(catalog_dir="/elsewhere").resolved_catalog_dir().name == "elsewhere"


def test_override_is_per_thread_when_blocks_interleave():
    """A enters, B enters, A exits, B exits: neither sees or undoes the other."""
    base = config.get_config()
    a_entered, b_entered, a_exited = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with config.override(gset_cap=5):
            a_entered.set()
            b_entered.wait(10)
            seen["a inside"] = config.get_config().gset_cap
        seen["a after"] = config.get_config()
        a_exited.set()

    def thread_b():
        a_entered.wait(10)
        with config.override(gset_cap=7):
            b_entered.set()
            a_exited.wait(10)
            seen["b inside"] = config.get_config().gset_cap
        seen["b after"] = config.get_config()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {"a inside": 5, "b inside": 7, "a after": base, "b after": base}
    assert config.get_config() == base


def test_overrides_nest_and_layer_over_set_config():
    base = config.get_config()
    try:
        with config.override(gset_cap=5) as outer:
            assert outer.gset_cap == 5
            with config.override(max_degree=3) as inner:
                assert (inner.gset_cap, inner.max_degree) == (5, 3)
            assert config.get_config() == outer
            assert config.set_config(max_degree=4).gset_cap == 5
            assert config.get_config().max_degree == 4
        assert config.get_config() == replace(base, max_degree=4)
        with pytest.raises(ValueError):
            with config.override(gset_cap=0):
                pass
        assert config.get_config().gset_cap == base.gset_cap
    finally:
        config.set_config(base)


def test_layered_config_is_made_once_per_block():
    """Repeated reads in one block return one object, and a set_config
    inside the block is still seen."""
    base = config.get_config()
    try:
        with config.override(gset_cap=5):
            first = config.get_config()
            assert config.get_config() is first
            config.set_config(max_degree=4)
            assert (config.get_config().max_degree, config.get_config().gset_cap) == (4, 5)
        assert config.get_config() == replace(base, max_degree=4)
    finally:
        config.set_config(base)
