"""The budget meter around every span and block boundary, pinned.

Each query runs at budgets one below, at and one above every boundary of
its walk: the start and end of each precheck, each step taken outside a
top-layer span, and each block start of a top-layer span (the last walk of
``_points_over``, and a mono count's walk of a Hom space), which takes its
steps per block.  The outcome, a result or the ``BudgetExceededError``
message, and the first meter's (used, planned) when the query returns or
stops are pinned in ``data/budget_sweep.json``, one row per budget:
[budget, result, used, planned], or [budget, X, Y, used, planned] for the
message "stopped after X of Y planned steps".  They were recorded while
every span still took one step per point as it was yielded, so per-block
steps must be indistinguishable wherever a caller can read the meter."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

import test_budget_pins as budget_pins
from qvl import certificates, counting
from qvl.certificates import hom_counterexample_census
from qvl.counting import (BudgetExceededError, count_mono_points,
                          iter_rep_points)
from qvl.dsl import parse_quiver_spec
from qvl.families import family_b
from qvl.linalg import GF

SWEEP = json.loads(
    (Path(__file__).parent / "data" / "budget_sweep.json").read_text())

STOPPED = re.compile(
    r"stopped after (\d+) of (\d+) planned steps: the budget is \d+")

# a nilpotent loop beside a free arrow: above each of the 4 loop points
# over F_2 at dims 2, 3 the arrow's 6 entries are one top-layer span of 64
# points, walked in 8 blocks of 8
LOOP_BESIDE_ARROW = parse_quiver_spec(
    "quiver LA { vertex 0; vertex 1; loop e at 0; arrow a: 0 -> 1; "
    "rel e^2; }")


def _walked(budget):
    points = [tuple(m.rows for m in rep.mats.values())
              for rep in iter_rep_points(LOOP_BESIDE_ARROW, GF(2),
                                         {0: 2, 1: 3},
                                         meter=counting._Meter(budget))]
    return [len(points),
            hashlib.sha256(repr(points).encode()).hexdigest()[:16]]


QUERIES = {
    # the census's b = 0 fiber: 27 and 25 points one at a time, and 101^2
    # in blocks of 101
    "census-3-3": lambda b: dataclasses.astuple(
        hom_counterexample_census(3, 3, budget=b)),
    "census-5-2": lambda b: dataclasses.astuple(
        hom_counterexample_census(5, 2, budget=b)),
    "census-2-101": lambda b: dataclasses.astuple(
        hom_counterexample_census(2, 101, budget=b)),
    # 22 of its 40 Hom bases take the walk, the others the Moebius sum
    "mono-B13": lambda b: count_mono_points(family_b(1, 3), GF(2),
                                            {0: 1, 1: 1}, {0: 1, 1: 3},
                                            budget=b),
    "iter-blocked": _walked,
}


def _run(query, budget, monkeypatch):
    """The query's row of the sweep at this budget."""
    meters = []

    class Recording(counting._Meter):
        def __init__(self, budget=None):
            super().__init__(budget)
            meters.append(self)

    monkeypatch.setattr(counting, "_Meter", Recording)
    monkeypatch.setattr(certificates, "_Meter", Recording)
    try:
        outcome = [QUERIES[query](budget)]
    except BudgetExceededError as exc:
        used, planned = STOPPED.fullmatch(str(exc)).groups()
        assert str(exc).endswith(f": the budget is {budget}")
        outcome = [int(used), int(planned)]
    return json.loads(json.dumps(
        [budget, *outcome, meters[0].used, meters[0].planned]))


@pytest.mark.parametrize("query", list(QUERIES))
def test_sweep_is_pinned(query, monkeypatch):
    pinned = SWEEP[query]
    got = [_run(query, budget, monkeypatch) for budget, *_ in pinned]
    assert [row for row, want in zip(got, pinned) if row != want] == []
    # a complete walk at the largest budget, with its whole plan taken
    budget, _, used, planned = pinned[-1]
    assert used == planned <= budget


# the count pins of test_budget_pins, and this sweep's count
COUNT_PINS = [walk for walk in budget_pins.WALKS
              if walk.split("-")[0] in ("rep", "hom", "mono")]


@pytest.mark.parametrize("walk", COUNT_PINS)
def test_count_pins_hold_when_repeated(walk, monkeypatch):
    """Each count pin twice at each budget, in one process without clearing
    ``_compiled`` between runs, so a count may read the kernel dimensions
    an earlier one kept: the same count or the same stop message.  A
    budget below the row count stops before any row and keeps nothing; a
    complete count keeps a dimension for every row."""
    counting._compiled.cache_clear()
    entries, compiled = [], counting._compiled

    def recording(*key):
        entries.append(compiled(*key))
        return entries[-1]

    monkeypatch.setattr(counting, "_compiled", recording)
    keeps = False
    for budget, expected in zip(budget_pins.BUDGETS,
                                budget_pins.PINNED[walk]):
        if callable(expected):
            expected = expected(budget)
        for _ in range(2):
            del entries[:]
            assert budget_pins._outcome(walk, budget) == expected
            for *_, table, kept in entries:
                if kept is not None:
                    keeps, rows = True, table.row_count()
                    assert kept == [] if budget < rows else len(kept) == rows
    # stratified rows under one top layer; the others walk a base arrow, a
    # filtered locus or a middle layer
    assert keeps == (walk in ("rep-loops", "rep-pairs", "rep-ranked"))


def test_sweep_counts_hold_when_repeated(monkeypatch):
    """The sweep's count at each pinned budget twice, in one process."""
    got = [_run("mono-B13", budget, monkeypatch)
           for budget, *_ in SWEEP["mono-B13"] for _ in range(2)]
    assert got == [row for row in SWEEP["mono-B13"] for _ in range(2)]
