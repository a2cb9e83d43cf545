"""Every backticked dotted name in README.md names something that exists, so
the README's map from the paper to the code cannot go stale."""

import dataclasses
import importlib
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import robustgsl
from robustgsl.cli import FIELD_RULES

README = Path(__file__).resolve().parent.parent / "README.md"
FILE_SUFFIXES = {"json", "md", "py", "toml", "tsv", "txt", "yml"}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def dotted_names() -> list[str]:
    """The code spans of README outside its fenced blocks that are dotted
    names, with a trailing ``()`` dropped; file names and --config keys
    (``encoder.lr``) are left out."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = (span.removesuffix("()") for span in re.findall(r"`([^`]+)`", text))
    return sorted(
        {
            name
            for name in spans
            if DOTTED.fullmatch(name)
            and name.rsplit(".", 1)[1] not in FILE_SUFFIXES
            and name not in FIELD_RULES
        }
    )


def _root(name: str):
    """np, the package, one of its public names, or one of its modules."""
    if name == "np":
        return np
    if name == "robustgsl":
        return robustgsl
    if name in robustgsl.__all__:
        return getattr(robustgsl, name)
    return importlib.import_module(f"robustgsl.{name}")


def _member(obj, name: str):
    """An attribute of obj, or the type of a dataclass field of obj (a field
    without a default is no class attribute)."""
    if hasattr(obj, name):
        return getattr(obj, name)
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        if name in {f.name for f in dataclasses.fields(obj)}:
            return typing.get_type_hints(obj)[name]
    raise AttributeError(f"{obj!r} has no attribute or field {name!r}")


def test_readme_names_found():
    # The map names each stage function; a pattern that found none would pass vacuously.
    names = dotted_names()
    for stage in ("pipeline.preprocess_stage", "encoder.train_encoder", "pipeline.refine_stage",
                  "pipeline.classify_stage"):
        assert stage in names


@pytest.mark.parametrize("name", dotted_names())
def test_readme_name_resolves(name):
    first, *rest = name.split(".")
    obj = _root(first)
    for part in rest:
        obj = _member(obj, part)
