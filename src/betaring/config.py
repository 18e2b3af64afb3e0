"""Runtime configuration: degree and size caps, catalog cache location."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .errors import DegreeCap

ENV_CATALOG_DIR = "BETARING_CATALOG_DIR"

MAX_SUPPORTED_DEGREE = 7


@dataclass(frozen=True)
class Config:
    """Caps and paths consulted by the computational modules.

    max_degree bounds the symmetric-group degree of any constructed class
    (7 is supported but expensive; 6 is the default desk scale).
    """

    max_degree: int = 6
    catalog_dir: str | None = None
    gset_cap: int = 20_000

    def __post_init__(self):
        if not (1 <= self.max_degree <= MAX_SUPPORTED_DEGREE):
            raise ValueError(f"max_degree must be in 1..{MAX_SUPPORTED_DEGREE}")
        if self.gset_cap <= 0:
            raise ValueError("gset_cap must be positive")

    def resolved_catalog_dir(self) -> Path:
        if self.catalog_dir is not None:
            return Path(self.catalog_dir)
        env = os.environ.get(ENV_CATALOG_DIR)
        if env:
            return Path(env)
        return Path.home() / ".cache" / "betaring"


_config = Config()
# field overrides of the enclosing `override` blocks, per thread or task
_overrides: ContextVar[tuple] = ContextVar("betaring_config_overrides", default=())


def get_config() -> Config:
    overrides = _overrides.get()
    return _layered(_config, overrides) if overrides else _config


def check_degree(n: int):
    """Raise DegreeCap when n exceeds max_degree.  Memoized results do not
    see the config they were computed under, so callers check outside them."""
    cap = get_config().max_degree
    if n > cap:
        raise DegreeCap(f"degree {n} exceeds max_degree {cap}")


@lru_cache(maxsize=64)
def _layered(config: Config, overrides: tuple) -> Config:
    """`config` with the fields of `overrides` replaced, made once per pair."""
    return replace(config, **dict(overrides))


def set_config(config: Config | None = None, **overrides) -> Config:
    """Replace the process-wide config (or tweak fields of it).

    Returns the active config: enclosing `override` blocks still apply.
    """
    global _config
    _config = replace(config or _config, **overrides)
    return get_config()


@contextmanager
def override(**overrides):
    """Temporarily adjust config fields within a with-block.

    The adjustment is seen only by the thread or asyncio task that enters
    the block, layered over the process-wide config, so interleaved blocks
    in other threads neither see nor undo it.
    """
    token = _overrides.set(tuple({**dict(_overrides.get()), **overrides}.items()))
    try:
        yield get_config()
    finally:
        _overrides.reset(token)
