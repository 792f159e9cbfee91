"""The benchmark lab's backend selection (``benchmarks/common.py``)."""

import importlib.util
from pathlib import Path

import pytest

from repro.sim.cache import ResultCache

_COMMON = Path(__file__).resolve().parents[2] / "benchmarks" / "common.py"
_spec = importlib.util.spec_from_file_location("benchmarks_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


def _lab(backend, tmp_path):
    return common.ResultLab(
        scale=0.02, cache=ResultCache(tmp_path / "cache"), backend=backend
    )


def test_unknown_backend_is_refused(tmp_path):
    # A typo in REPRO_BACKEND must not silently fall back to the engine.
    with pytest.raises(ValueError, match="unknown backend 'functinal'"):
        _lab("functinal", tmp_path)


def test_auto_routes_fast_calls_to_functional(tmp_path):
    lab = _lab("auto", tmp_path)
    lab.single("FIR", fast=True)
    assert [key[-1] for key in lab._session] == ["functional"]
