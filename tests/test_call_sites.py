"""Every call site that the benchmark's tracer wraps (``perfbench/spans.py``,
``CALL_SITES``) is a callable attribute of its ``robustgsl`` module, so a
deleted import fails here and not only in a traced benchmark run. The
table is read from the file's source; nothing of the tracer runs."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def call_sites() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CALL_SITES"]:
            table = ast.literal_eval(node.value)
            return [(module, attr) for module, attrs in table.items() for attr in attrs]
    raise AssertionError(f"no CALL_SITES in {SPANS}")


@pytest.mark.parametrize("module, attr", call_sites())
def test_call_site_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"robustgsl.{module}"), attr, None))
