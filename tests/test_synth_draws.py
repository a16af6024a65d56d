"""The wirings draw from raw PCG64 words what numpy's scalar calls would:
equal edges, and the generator left in the same state, buffered half-word
included.  The scalar loops in ``oracles.py`` are the references."""

from __future__ import annotations

import ast
import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs import synth
from tokengraphs.ingest import BlockWindow
from tokengraphs.synth import (COUNTERFEIT_POISONING, HONEYPOT_STAR, KINDS, LEGITIMATE,
                               _BUDGET_FLOORS, _WIRINGS, ArchetypeConfig, _scalar_draws)

from oracles import (scalar_wire_counterfeit_poisoning, scalar_wire_honeypot_star,
                     scalar_wire_legitimate)

WINDOW = BlockWindow(18_000_000, 18_100_000)
SCALAR_WIRINGS = {LEGITIMATE: scalar_wire_legitimate,
                  HONEYPOT_STAR: scalar_wire_honeypot_star,
                  COUNTERFEIT_POISONING: scalar_wire_counterfeit_poisoning}


def generator(seed: int, has_uint32: int = 0, uinteger: int = 0) -> np.random.Generator:
    """``default_rng(seed)`` with its buffered half-word set as given."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": has_uint32,
                               "uinteger": uinteger}
    return rng


def assert_same_generator(ours: np.random.Generator, scalar: np.random.Generator):
    assert ours.bit_generator.state == scalar.bit_generator.state
    assert ours.integers(1000, size=3).tolist() == scalar.integers(1000, size=3).tolist()


def test_default_rng_is_pcg64():
    """The replay reads PCG64's words and buffer; a numpy whose default bit
    generator changed must fail here, by name."""
    assert type(np.random.default_rng(0).bit_generator).__name__ == "PCG64"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), kind=st.sampled_from(KINDS), data=st.data(),
       multiplier=st.none() | st.floats(0.5, 2.0),
       has_uint32=st.integers(0, 1), uinteger=st.integers(0, 2**32 - 1))
def test_wiring_matches_the_scalar_draws(seed, kind, data, multiplier, has_uint32, uinteger):
    budget = data.draw(st.integers(_BUDGET_FLOORS[kind], 900), label="budget")
    cfg = ArchetypeConfig(kind, budget, WINDOW, 90_000 if kind == LEGITIMATE else 5_000,
                          seed, edge_multiplier=multiplier)
    ours, scalar = (generator(seed, has_uint32, uinteger) for _ in range(2))
    assert _WIRINGS[kind](cfg, ours) == SCALAR_WIRINGS[kind](cfg, scalar)
    assert_same_generator(ours, scalar)


def test_a_rejected_half_word_is_redrawn():
    """The attachment loop's first draws from a buffered half-word of 0: node
    2's bound of 3 rejects it, as the threshold is (2**32 - 3) % 3 = 1."""
    ours, scalar = generator(5, 1, 0), generator(5, 1, 0)
    drawn = []
    with _scalar_draws(ours) as (integers, random):
        for bound in (1, 3, 5, 7):
            drawn.append((integers(bound), random()))
    assert drawn == [(int(scalar.integers(bound)), scalar.random()) for bound in (1, 3, 5, 7)]
    assert_same_generator(ours, scalar)
    # without the redraw, node 2 would have drawn 0 from the buffer and left
    # no half-word buffered
    again = generator(5, 1, 0)
    again.random()
    again.integers(3)
    assert again.bit_generator.state["has_uint32"] == 1


def _scalar_calls_in_loops(function: ast.FunctionDef) -> list[str]:
    """``rng.integers`` and ``rng.random`` calls without ``size`` inside a
    ``for`` or ``while`` loop or a comprehension of ``function``."""
    loops = [node for node in ast.walk(function)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    found = set()
    for loop in loops:
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "rng"
                    and node.func.attr in ("integers", "random")
                    and not any(keyword.arg == "size" for keyword in node.keywords)):
                found.add(f"{function.name}:{node.lineno} rng.{node.func.attr}")
    return sorted(found)


def test_no_wiring_draws_a_scalar_per_iteration():
    """A scalar generator call costs microseconds; the wirings replay those
    draws from raw words instead (see ``synth._scalar_draws``)."""
    tree = ast.parse(inspect.getsource(synth))
    wirings = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_wire_")]
    assert len(wirings) == 3
    assert [call for wiring in wirings for call in _scalar_calls_in_loops(wiring)] == []
