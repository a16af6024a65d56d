"""The traced benchmark resolves its span boundaries by name; keep them resolvable."""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")


def test_every_traced_boundary_is_a_callable_of_its_layer():
    if not os.path.exists(TRACED):
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [f"{layer}.{name}" for layer, name, _items in traced.BOUNDARIES
               if not callable(getattr(importlib.import_module(f"tokengraphs.{layer}"),
                                       name, None))]
    assert not missing
