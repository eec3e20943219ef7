"""One workload in one fresh process: set up, run timed passes, check.

Run from the repository root (``perfbench/run.py`` starts it)::

    python3 -m perfbench.workloads --workload NAME --seed N --seconds S \
        [--trace] [--setup-only]

The last stdout line is a JSON record of raw measurements, which run.py
turns into metrics.  Inputs derive from ``--seed`` alone: the task order of
every pass, and for the served workload the Poisson arrival times and the
order in which the request multiset is drawn.  The program sees only the
generated inputs.

A pass is the workload's whole task or request list.  A run makes as many
passes as fit in ``--seconds`` at the workload's nominal pass time (at
least one), so the pass count depends on the arguments only.  Work is
fixed by each task's ``max_visited`` budget, with wall-clock timeouts off.
Outputs are checked after each pass, outside the timed region.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()   # set-up includes importing the program

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchmarks.registry import all_tasks, hard_tasks  # noqa: E402
from repro.engine import shm  # noqa: E402
from repro.engine.base import EngineStats  # noqa: E402
from repro.lang.ast import Env  # noqa: E402
from repro.provenance.demo import Demonstration  # noqa: E402
from repro.provenance.expr import CellRef  # noqa: E402
from repro.serve import ServiceConfig, SynthesisService  # noqa: E402
from repro.synthesis.config import SynthesisConfig  # noqa: E402
from repro.synthesis.equivalence import same_output  # noqa: E402
from repro.synthesis.stop import GroundTruthStop  # noqa: E402
from repro.synthesis.synthesizer import Synthesizer  # noqa: E402
from repro.table.table import Table  # noqa: E402

from perfbench.check import SqliteReplay, digest  # noqa: E402
from perfbench.loops import open_loop, poisson_schedule  # noqa: E402
from perfbench.spans import ROOT, Tracer  # noqa: E402

#: Worker processes for the sharded and served workloads (the reference
#: machine's core count, pinned so the workload does not vary by host).
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: Callable[[], tuple]  # the registry tasks one pass runs
    technique: str
    max_visited: int
    latency_limit_s: float     # per task (closed) or request (open loop)
    pass_s: float              # nominal pass time on the reference machine
    workers: int = 1           # search shards per task
    rate: float = 0.0          # open loop: Poisson arrivals per second
    copies: int = 1            # open loop: times each task is requested

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


# Why each workload exists, and which layers should move it, is recorded in
# BENCHMARK.json.  Budgets are sized so one run of each takes about half a
# minute on a 2-core machine, and 22 runs of every workload fit in an hour.
WORKLOADS = {w.name: w for w in (
    Workload("registry-provenance", all_tasks, "provenance",
             max_visited=500, latency_limit_s=0.5, pass_s=12.5),
    Workload("registry-type", all_tasks, "type", max_visited=500,
             latency_limit_s=0.3, pass_s=8.0),
    Workload("serve-interactive", lambda: all_tasks()[::4], "provenance",
             max_visited=250, latency_limit_s=0.5, pass_s=24.5, rate=5.0,
             copies=6),
    Workload("sharded-hard", lambda: hard_tasks()[::3], "provenance",
             max_visited=1000, latency_limit_s=2.5, pass_s=11.0,
             workers=WORKERS),
)}


def task_config(workload: Workload, task) -> SynthesisConfig:
    config = task.config.replace(max_visited=workload.max_visited,
                                 timeout_s=None)
    if workload.open_loop:
        return config.replace(top_n=10)          # interactive mode
    if workload.workers > 1:
        return config.replace(workers=workload.workers,
                              parallel_executor="process")
    return config


# ------------------------------------------------------------- one pass

def op_record(task, latency: float, result) -> dict:
    """Counters of one finished task or request (checks fill in solved
    and rank for interactive results)."""
    stats = result.stats
    rank = None
    if result.target is not None:
        rank = next((i for i, q in enumerate(result.queries, start=1)
                     if q == result.target), None)
    return {"task": task.name, "latency": latency,
            "visited": stats.visited, "pruned": stats.pruned,
            "concrete_checked": stats.concrete_checked,
            "solved": result.target is not None, "rank": rank,
            "elapsed_s": stats.elapsed_s,
            "raw_visited": (result.raw_stats or stats).visited,
            "engine": result.engine_stats or EngineStats(),
            "target": result.target, "queries": result.queries}


def closed_pass(workload: Workload, tasks) -> tuple[float, list, list]:
    """Run the tasks one after another; returns (wall, records, errors)."""
    records, errors = [], []
    start = time.perf_counter()
    for task in tasks:
        began = time.perf_counter()
        try:
            synthesizer = Synthesizer(workload.technique,
                                      task_config(workload, task))
            session = synthesizer.session(
                task.tables, task.demonstration,
                GroundTruthStop(task.ground_truth))
            result = session.run()
        except Exception:
            errors.append(f"{task.name}: {traceback.format_exc()}")
            continue
        records.append(op_record(task, time.perf_counter() - began, result))
    return time.perf_counter() - start, records, errors


async def served_pass(service, workload: Workload, tasks,
                      due_times) -> tuple[float, list, list, list]:
    """Open loop into the service; returns (wall, records, errors,
    lateness)."""
    def send(i: int):
        task = tasks[i]
        handle = service.submit(task.tables, task.demonstration,
                                config=task_config(workload, task),
                                technique=workload.technique)
        return handle.result()

    start = time.perf_counter()
    replies = await open_loop(due_times, send)
    wall = time.perf_counter() - start
    records, errors = [], []
    for task, (_, latency, outcome) in zip(tasks, replies):
        if isinstance(outcome, BaseException):
            errors.append(f"{task.name}: {type(outcome).__name__}: "
                          f"{outcome}")
        else:
            records.append(op_record(task, latency, outcome))
    return wall, records, errors, [late for late, _, _ in replies]


async def start_service(n_requests: int) -> SynthesisService:
    """Start the pool and wait until every worker answers a request.

    The probe uses a technique and a table no workload request uses, so no
    engine a request will use is warmed by it.
    """
    service = SynthesisService(ServiceConfig(
        pool_size=WORKERS, pool_backend="processes",
        max_requests=n_requests + WORKERS))
    probe = Table.from_rows("probe", ["k", "v"], [["a", 1], ["b", 2]])
    demo = Demonstration.of([[CellRef("probe", 0, 0),
                              CellRef("probe", 0, 1)]])
    handles = [service.submit(Env((probe,)), demo,
                              SynthesisConfig(max_visited=1),
                              worker=i, technique="none")
               for i in range(WORKERS)]
    for handle in handles:
        await handle.result()
    return service


# ---------------------------------------------------------------- checks

def check_pass(workload: Workload, tasks_by_name, records,
               replay: SqliteReplay) -> list[str]:
    """Replay every solved target beside its ground truth on SQLite.

    Interactive results are solved when a returned query reproduces the
    ground truth's output; the first such query is the target.  A record
    whose replay disagrees is marked failed."""
    failures = []
    for record in records:
        task = tasks_by_name[record["task"]]
        if workload.open_loop:
            env = task.env
            record["rank"] = next(
                (i for i, q in enumerate(record["queries"], start=1)
                 if same_output(q, task.ground_truth, env)), None)
            record["solved"] = record["rank"] is not None
            if record["solved"]:
                record["target"] = record["queries"][record["rank"] - 1]
        if record["solved"]:
            reason = replay.mismatch(task, record["target"])
            if reason is not None:
                failures.append(reason)
                record["solved"] = False
                record["failed"] = True
    return failures


# ------------------------------------------------------------------ main

def summarize(workload: Workload, wall: float, records, errors,
              lateness) -> dict:
    limit = workload.latency_limit_s
    checked = [r for r in records if not r.get("failed")]
    return {
        "wall_s": wall,
        "ops": len(records) + len(errors),
        "failed": len(records) - len(checked) + len(errors),
        "visited": sum(r["visited"] for r in records),
        "pruned": sum(r["pruned"] for r in records),
        "concrete_checked": sum(r["concrete_checked"] for r in records),
        "solved": sum(r["solved"] for r in records),
        "latencies": [r["latency"] for r in records],
        "within_limit": sum(r["latency"] <= limit for r in checked),
        "lateness": lateness,
        "search_s": sum(r["elapsed_s"] for r in records),
        "raw_visited": sum(r["raw_visited"] for r in records),
        "digest": digest(records),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (joined) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def span_report(tracer: Tracer) -> dict:
    return {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts)}


class Runner:
    """Drives passes of one workload and collects the raw record."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.tasks = workload.tasks()
        for task in self.tasks:
            task.demonstration      # generated once, at set-up
        self.by_name = {task.name: task for task in self.tasks}
        self.replay = SqliteReplay()
        self.passes: list[dict] = []
        self.failures: list[str] = []
        self.engine = EngineStats()
        self.serve: dict = {}

    def draw(self) -> list:
        """This pass's task order (served: the request multiset)."""
        order = list(self.tasks) * self.workload.copies
        self.rng.shuffle(order)
        return order

    @property
    def n_passes(self) -> int:
        """Passes that fit in ``seconds`` at the nominal pass time — a
        count fixed by the arguments, not by how fast this run goes."""
        if self.tracer is not None:
            return 1
        return max(1, int(self.seconds // self.workload.pass_s))

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True
            self.tracer.enter(ROOT)

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.exit()
            self.tracer.active = False

    def finish_pass(self, wall, records, errors, lateness=()) -> None:
        self.failures += errors
        self.failures += check_pass(self.workload, self.by_name, records,
                                    self.replay)
        self.engine = EngineStats.merge(self.engine,
                                        *(r["engine"] for r in records))
        self.passes.append(summarize(self.workload, wall, records, errors,
                                     list(lateness)))

    def run_closed(self) -> float:
        setup_s = time.perf_counter() - SETUP_START
        if self.tracer is not None:
            self.tracer.install()
        for _ in range(self.n_passes):
            order = self.draw()
            self.begin()
            try:
                wall, records, errors = closed_pass(self.workload, order)
            finally:
                self.end()
            self.finish_pass(wall, records, errors)
        return setup_s

    async def run_served(self, setup_only: bool) -> float:
        n_requests = len(self.tasks) * self.workload.copies
        service = await start_service(n_requests)
        setup_s = time.perf_counter() - SETUP_START
        try:
            if setup_only:
                return setup_s
            if self.tracer is not None:
                self.tracer.install()
            base = service.pool.telemetry()
            refused = 0
            for _ in range(self.n_passes):
                order = self.draw()
                due = poisson_schedule(self.rng, self.workload.rate,
                                       len(order))
                self.begin()
                try:
                    wall, records, errors, lateness = await served_pass(
                        service, self.workload, order, due)
                finally:
                    self.end()
                refused += sum("ServiceOverloaded" in e for e in errors)
                self.finish_pass(wall, records, errors, lateness)
            now = service.pool.telemetry()
            self.serve = {key: now[key] - base[key] for key in (
                "warm_hits", "warm_misses", "cold_builds", "slices",
                "restarts", "worker_deaths")}
            self.serve["refused"] = refused
        finally:
            await service.close()
        return setup_s

    def record(self, setup_s: float, leaked: int) -> dict:
        digests = {p["digest"] for p in self.passes}
        if len(digests) > 1:
            self.failures.append(
                f"search counters differ between passes: {sorted(digests)}")
        out = {"workload": self.workload.name, "setup_s": setup_s,
               "passes": self.passes, "failures": self.failures,
               "digest": self.passes[0]["digest"],
               "latency_limit_s": self.workload.latency_limit_s,
               "rate": self.workload.rate,
               "engine": self.engine.as_dict(),
               "serve": self.serve, "shm_leaked": leaked,
               "peak_rss_mb": peak_rss_mb()}
        if self.tracer is not None:
            out["spans"] = span_report(self.tracer)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    segments_before = set(shm.scan_segments())
    runner = Runner(workload, args.seed, args.seconds, args.trace)
    if workload.open_loop:
        setup_s = asyncio.run(runner.run_served(args.setup_only))
    elif args.setup_only:
        setup_s = time.perf_counter() - SETUP_START
    else:
        setup_s = runner.run_closed()
    runner.replay.close()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    leaked = len(set(shm.scan_segments()) - segments_before)
    print(json.dumps(runner.record(setup_s, leaked)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
