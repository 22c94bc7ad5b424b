"""Every selqr function the benchmark tracer wraps resolves by name.

`perfbench/tracing.py` rebinds each qualname in SPANNED, COUNTS and
COUNT_ONLY at run time, and a traced run exits non-zero if one is missing.
Loading the file here makes a deleted or renamed traced function fail in
milliseconds instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracing = _load_tracing()
    return sorted({*tracing.SPANNED, *tracing.COUNTS, *tracing.COUNT_ONLY})


def test_tracer_names_some_functions():
    assert len(_traced_names()) >= 10


@pytest.mark.parametrize("qualname", _traced_names())
def test_traced_name_resolves(qualname):
    module_name, attr = qualname.rsplit(".", 1)
    module = importlib.import_module(f"selqr.{module_name}")
    assert callable(getattr(module, attr, None)), f"selqr.{qualname} is gone"
