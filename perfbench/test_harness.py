"""Tests of the benchmark harness itself (no workload is run)."""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.check import digest, rows_equivalent  # noqa: E402
from perfbench.loops import open_loop, poisson_schedule  # noqa: E402
from perfbench.spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from perfbench.stats import (  # noqa: E402
    latency_summary,
    percentile,
    tail_percentile,
)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


# ------------------------------------------------------------- self time

def test_self_time_of_nested_spans():
    # root [0, 10] holds A [1, 4] (holding B [2, 3]) and C [5, 9].
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("root")
    tracer.enter("A")
    tracer.enter("B")
    assert tracer.exit() == 1
    assert tracer.exit() == 3
    tracer.enter("C")
    tracer.exit()
    assert tracer.exit() == 10
    assert dict(tracer.self_s) == {"root": 3, "A": 2, "B": 1, "C": 4}
    assert sum(tracer.self_s.values()) == 10
    assert dict(tracer.calls) == {"root": 1, "A": 1, "B": 1, "C": 1}


def test_same_name_spans_accumulate():
    # Two sibling spans of one layer under a root: [1, 3] and [4, 7].
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 7, 8]))
    tracer.enter("root")
    for _ in range(2):
        tracer.enter("layer")
        tracer.exit()
    tracer.exit()
    assert tracer.self_s["layer"] == 5
    assert tracer.self_s["root"] == 3
    assert tracer.calls["layer"] == 2


def test_recursive_layer_is_one_span_at_its_outermost_call():
    tracer = Tracer(clock=FakeClock([0, 1, 6, 7]))

    def countdown(n: int) -> int:
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("layer", countdown)
    tracer.active = True
    tracer.enter(ROOT_SPAN)
    assert traced(3) == 3
    tracer.exit()
    assert tracer.calls["layer"] == 1
    assert tracer.self_s["layer"] == 5
    assert tracer.self_s[ROOT_SPAN] == 2


def test_inactive_tracer_passes_through():
    tracer = Tracer(clock=FakeClock([]))      # any clock read would raise
    assert tracer.wrap("layer", lambda x: x + 1)(1) == 2
    assert not tracer.calls


def test_verdict_layers_count_false_answers():
    tracer = Tracer()
    tracer.active = True
    feasible = tracer.wrap("abstraction.consistency.def3", lambda ok: ok)
    for ok in (True, False, False):
        feasible(ok)
    assert tracer.calls["abstraction.consistency.def3"] == 3
    assert tracer.counts["abstraction.consistency.def3.false"] == 2


def test_install_rebinds_imported_names_and_uninstall_restores():
    from repro import Demonstration, SynthesisConfig, Table, cell, func
    from repro.synthesis import enumerator
    from repro.synthesis.synthesizer import Synthesizer

    original_fill = enumerator.fill
    table = Table.from_rows("T", ["ID", "Sales"],
                            [["A", 10], ["A", 20], ["B", 15]])
    demo = Demonstration.of([
        [cell("T", 0, 0), func("sum", cell("T", 0, 1), cell("T", 1, 1))]])
    tracer = Tracer()
    tracer.install()
    try:
        assert enumerator.fill is not original_fill
        tracer.active = True
        tracer.enter(ROOT_SPAN)
        Synthesizer("provenance", SynthesisConfig(max_operators=1,
                                                  max_visited=200)
                    ).run([table], demo)
        wall = tracer.exit()
        tracer.active = False
    finally:
        tracer.uninstall()
    assert enumerator.fill is original_fill
    for layer in ("synthesis.session.loop", "synthesis.skeletons",
                  "lang.holes.fill", "synthesis.domains",
                  "abstraction.consistency.def3",
                  "provenance.incremental.def1"):
        assert tracer.calls[layer] > 0, layer
    assert any(k.startswith("abstraction.provenance_abs.abstract_eval.")
               for k in tracer.calls)
    assert tracer.counts["abstraction.cells.cell_hashes"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(wall)


# ------------------------------------------------------ tail percentile

@pytest.mark.parametrize("n, pct", [(1, 50), (13, 50), (20, 50), (40, 75),
                                    (64, 84), (80, 87), (200, 95),
                                    (1000, 99), (100000, 99)])
def test_tail_percentile(n, pct):
    assert tail_percentile(n) == pct


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_tail_leaves_ten_samples_beyond(n):
    values = list(range(n))
    pct = tail_percentile(n)
    assert sum(v > percentile(values, pct) for v in values) >= 10
    if pct < 99:
        assert sum(v > percentile(values, pct + 1) for v in values) < 10


def test_latency_summary_names_percentile_and_count():
    summary = latency_summary([float(i) for i in range(1, 81)])
    assert summary == {"p50": 40.5, "tail": 70.0, "tail_pct": 87,
                       "samples": 80}


# -------------------------------------------------------------- open loop

def test_open_loop_times_latency_from_due_time():
    stall = 0.2

    def send(i: int):
        if i == 0:
            time.sleep(stall)             # the generator itself stalls
        elif i == 2:
            raise RuntimeError("refused")
        return asyncio.sleep(0.01)

    replies = asyncio.run(open_loop([0.0, 0.05, 0.1, 0.5], send))
    lateness = [late for late, _, _ in replies]
    latency = [lat for _, lat, _ in replies]
    # Request 1 was due at 0.05 but could only go out after the stall.
    assert lateness[1] >= stall - 0.05 - 0.02
    assert latency[1] >= lateness[1] + 0.01
    assert latency[0] >= stall + 0.01
    assert isinstance(replies[2][2], RuntimeError)
    assert latency[2] >= lateness[2]
    # The last request was due after the stall ended: on time.
    assert lateness[3] < 0.1


def test_poisson_schedule_is_seeded_and_fills_its_window():
    a = poisson_schedule(random.Random(7), rate=4.0, n=64)
    b = poisson_schedule(random.Random(7), rate=4.0, n=64)
    assert a == b
    assert a == sorted(a)
    assert 0 < a[0] and a[-1] == pytest.approx(64 / 4.0)
    gaps = sorted(y - x for x, y in zip([0.0] + a, a))
    other = poisson_schedule(random.Random(8), rate=4.0, n=64)
    assert gaps == pytest.approx(sorted(y - x for x, y in
                                        zip([0.0] + other, other)))
    assert a != poisson_schedule(random.Random(8), rate=4.0, n=64)


# ---------------------------------------------------------------- checks

def test_rows_equivalent_up_to_column_embedding_and_row_order():
    reference = [("a", 1), ("b", 2)]
    assert rows_equivalent(reference, [(2, "b", 0), (1, "a", 0)])
    assert rows_equivalent(reference, [(1.0, "a"), (2, "b")])
    assert not rows_equivalent(reference, [("a", 2), ("b", 1)])
    assert not rows_equivalent(reference, [("a", 1)])
    assert rows_equivalent([], [])


def test_digest_ignores_order_but_not_counters():
    records = [{"task": t, "visited": v, "pruned": 1, "concrete_checked": 2,
                "solved": True, "rank": 1} for t, v in (("x", 5), ("y", 6))]
    assert digest(records) == digest(records[::-1])
    changed = [dict(records[0], visited=7), records[1]]
    assert digest(changed) != digest(records)


# ------------------------------------------------------------ manifest

def test_manifest_matches_the_command():
    from perfbench.workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(run.PER_LAYER)
