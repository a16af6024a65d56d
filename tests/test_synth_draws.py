"""The wirings draw from raw PCG64 words what numpy's scalar calls would:
equal edges, and the generator left in the same state, buffered half-word
included.  The scalar loops in ``oracles.py`` are the references."""

from __future__ import annotations

import ast
import inspect
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
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


# a raw word whose low half, 0, every odd bound of 3 or more rejects; its high half is
# drawn next
REJECTED_LOW = 0x9E3779B9 << 32


def generator_with_word(high: int, position: int, word: int) -> np.random.Generator:
    """A PCG64 generator whose raw word number ``position`` (from 0) is
    ``word``: the state that outputs it has a rotation of 0, high half
    ``high`` and low half ``high ^ word`` (XSL-RR), stepped back."""
    rng = np.random.default_rng(0)
    bitgen = rng.bit_generator
    bitgen.state = {**bitgen.state, "state": {**bitgen.state["state"],
                                              "state": high << 64 | (high ^ word)}}
    bitgen.advance(-(position + 1))
    return rng


def attachment_word(rng: np.random.Generator, budget: int, node: int) -> int | None:
    """The raw word from whose low half a legitimate wiring at ``budget`` draws
    node ``node``'s first pool index, or None if it draws a buffered half or
    no such node is wired.  The satellite sizes are drawn here as the scalar
    wiring draws them: each ``integers(2, 6)`` reads one half-word."""
    draws, used = 1, 0
    while used + (size := int(rng.integers(2, 6))) <= int(0.18 * budget):
        draws, used = draws + 1, used + size
    place = node - 1 - draws % 2  # in the giant loop's half-words, a buffered one first
    if place % 2 == 0 or not 2 <= node < budget - used:
        return None
    # node 1's coin, then per node before this one a coin and every other one a fresh word
    return (draws + 1) // 2 + 1 + node - 2 + place // 2


def rejecting(budget: int, node: int) -> np.random.Generator:
    """A generator whose legitimate wiring at ``budget`` draws node ``node``'s
    first pool index from a half-word of 0.  The satellite sizes move with the
    state, so states and words near the expected one are tried until a
    state's wiring reads ``REJECTED_LOW`` at that word."""
    expected = 3 * node // 2 + budget // 35
    for high in range(1, 100):
        for position in range(max(expected - 10, 0), expected + 10):
            rng = generator_with_word(high, position, REJECTED_LOW)
            probe = np.random.default_rng()
            probe.bit_generator.state = rng.bit_generator.state
            if attachment_word(probe, budget, node) == position:
                return rng
    raise AssertionError(f"no state tried rejects node {node} at budget {budget}")


@pytest.mark.parametrize("budget, node", [(20, 2), (900, 2), (900, 401)])
def test_a_rejected_attachment_draw_is_redrawn_and_the_replay_resumes(budget, node):
    """Node 2 is the attachment loop's first drawing step; after the redraw,
    which reads the buffered high half, the loop's words run one half-word
    later than they would have."""
    cfg = ArchetypeConfig(LEGITIMATE, budget, WINDOW, 90_000, 0)
    ours, scalar = rejecting(budget, node), rejecting(budget, node)
    with mock.patch.object(synth, "_scalar_draws", wraps=_scalar_draws) as draws:
        assert _WIRINGS[LEGITIMATE](cfg, ours) == scalar_wire_legitimate(cfg, scalar)
    assert draws.call_count == 3  # satellite sizes, the redrawn node, satellite edges
    assert_same_generator(ours, scalar)


def rejecting_last(budget: int) -> tuple[np.random.Generator, int]:
    """A generator whose legitimate wiring at ``budget`` draws the giant
    component's last node's first pool index from a fresh half-word of 0,
    and that node; states and words are tried as in ``rejecting``."""
    expected = 3 * int(0.82 * budget) // 2 + budget // 35
    for high in range(1, 100):
        for position in range(expected - 10, expected + 10):
            rng = generator_with_word(high, position, REJECTED_LOW)
            probe = np.random.default_rng()
            probe.bit_generator.state = rng.bit_generator.state
            used = 0
            while used + (size := int(probe.integers(2, 6))) <= int(0.18 * budget):
                used += size
            node = budget - used - 1
            probe.bit_generator.state = rng.bit_generator.state
            if attachment_word(probe, budget, node) == position:
                return rng, node
    raise AssertionError(f"no state tried rejects the last node at budget {budget}")


def test_a_rejection_at_the_last_node_leaves_one_node_to_the_scalar_tail():
    """From a rejected half-word on, the nodes draw through ``_scalar_draws``;
    at the giant loop's last node that tail is the one node."""
    cfg = ArchetypeConfig(LEGITIMATE, 900, WINDOW, 90_000, 0)
    (ours, node), (scalar, _) = rejecting_last(900), rejecting_last(900)
    bounds = []

    @contextmanager
    def counted(rng):
        with _scalar_draws(rng) as (integers, random):
            yield (lambda n: bounds.append(n) or integers(n)), random

    with mock.patch.object(synth, "_scalar_draws", counted):
        assert _WIRINGS[LEGITIMATE](cfg, ours) == scalar_wire_legitimate(cfg, scalar)
    assert [bound for bound in bounds if bound != 4] == [2 * node - 1]  # 4: satellite sizes
    assert_same_generator(ours, scalar)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), budget=st.integers(20, 5_000),
       has_uint32=st.integers(0, 1), uinteger=st.integers(0, 2**32 - 1))
def test_legitimate_wiring_matches_the_scalar_draws_up_to_5000_nodes(seed, budget, has_uint32,
                                                                     uinteger):
    cfg = ArchetypeConfig(LEGITIMATE, budget, WINDOW, 90_000, seed)
    ours, scalar = (generator(seed, has_uint32, uinteger) for _ in range(2))
    assert _WIRINGS[LEGITIMATE](cfg, ours) == scalar_wire_legitimate(cfg, scalar)
    assert_same_generator(ours, scalar)


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
