"""The benchmark under ``perfbench/`` wraps functions of mevscope by name;
every one it names must still exist, or the traced run silently loses a
layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> tuple:
    # spans.py imports only the standard library, so loading it runs nothing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


@pytest.mark.parametrize("span, module, function",
                         [pytest.param(*w, id=w[0]) for w in _wrapped()])
def test_every_wrapped_function_resolves(span, module, function):
    assert callable(getattr(importlib.import_module(module), function, None)), span
