#!/usr/bin/env python3
"""Benchmark for qvl: checked queries end to end, traced layer by layer.

    python3 bench/run.py --workload rep-count --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --regenerate-reference

Run from anywhere; qvl is imported from the ``src`` directory next to
``bench``.  Each workload is measured in WORKERS fresh worker processes,
one at a time; ``--seconds`` caps the run and is reported if it cuts it
short.  A worker sets up, runs one cold pass over the workload's queries
and then WARM_PASSES warm passes.  Every query is timed between two runs
of a fixed probe kernel and reported in reference seconds (see
``probe``).  With ``--trace 1`` a single worker runs the same untraced
passes, then sets up again and runs one pass with every qvl layer wrapped
in spans, and reports the per-layer metrics.  The last line of standard
output is one JSON object; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"     # input files, removed when a worker ends
OUT = ROOT / ".bench_out"       # span logs of traced runs

WORKLOADS = ("rep-count", "fiber-count", "certify", "presentation")
WORKERS = 4         # fresh processes per run, the same on every commit
MIN_WORKERS = 2     # run even when --seconds would cut them
WARM_PASSES = 2     # passes per worker after the cold one
TICK_S = 0.05       # probe interval while a query or the setup runs
EVENT = "@bench "

# A fixed unit: a probe time seen on the machine of the reference figures
# (bench/README.md).  A query's time divided by the mean probe time while
# it ran, times this constant, is its time in reference seconds.  Changing it
# rescales every time metric, so it stays fixed.
PROBE_REFERENCE_S = 0.0006
_PROBE = [[(7 * i + 3 * j) % 11 for j in range(8)] for i in range(8)]


def _probe_once() -> float:
    start = time.perf_counter()
    x = _PROBE
    for _ in range(6):
        x = [[sum(a * b for a, b in zip(row, col)) % 11
              for col in zip(*_PROBE)] for row in x]
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of a fixed pure-Python kernel, median of three runs.

    The host's speed moves by half for seconds to minutes at a time; qvl's
    queries, interpreted Python on small lists, slow down with it.  Timing
    this kernel before and after each query, and every TICK_S while it
    runs, measures the speed the query ran at.
    """
    return statistics.median(_probe_once() for _ in range(3))


class _Ticks:
    """Runs the probe kernel from a timer signal every TICK_S while entered;
    keeps each run's time and the total time spent in the signal handler,
    which the caller takes off the time it measures."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_probe_once())
        self.handler_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def emit(event: str, **data):
    print(EVENT + json.dumps({"event": event, **data}), flush=True)


# --- worker ------------------------------------------------------------------


def run_pass(queries, index: int, seed: int,
             tracer=None) -> tuple[dict, dict, dict]:
    """One pass in a seeded order; returns (seconds, mean probe seconds
    while the query ran, answers) by query.  A traced pass probes only
    between queries, so that no span times the probe."""
    order = list(queries)
    random.Random(f"{seed}:{index}").shuffle(order)
    seconds, probes, answers = {}, {}, {}
    before = probe()
    for q in order:
        span = tracer.span(f"bench.{q.name}") if tracer else nullcontext()
        ticks = _Ticks()
        start = time.perf_counter()
        try:
            with span, (nullcontext() if tracer else ticks):
                code, report = q.run()
            answers[q.name] = (code, report.get("result", report.get("error")))
        except Exception as exc:        # a crash is a failed query
            traceback.print_exc()
            answers[q.name] = (None, {"exception": repr(exc)})
        seconds[q.name] = time.perf_counter() - start - ticks.handler_s
        after = probe()
        probes[q.name] = statistics.mean([before, after] + ticks.samples)
        before = after
    return seconds, probes, answers


def check_pass(queries, answers) -> tuple[int, list[str], list[str]]:
    """(failed, wrong answers, wrong exit codes) of one pass."""
    payloads = {name: payload for name, (_, payload) in answers.items()}
    failed, wrong, exits = 0, [], []
    for q in queries:
        code, payload = answers[q.name]
        if code != q.expect_exit:
            failed += 1
            exits.append(f"{q.name}: exit {code}, expected {q.expect_exit}")
            continue
        try:
            problems = q.check(payload, payloads)
        except Exception as exc:        # an answer of the wrong shape
            problems = [f"{q.name}: check raised {exc!r}"]
        if problems:
            failed += 1
            wrong += problems
    return failed, wrong, exits


def worker(args) -> int:
    ticks = _Ticks()                    # probes the speed of the setup
    with ticks:
        sys.path.insert(0, str(SRC))
        import qvl
        import oracle
        from tracer import Tracer
        from workloads import WORKLOADS as SETUPS, Context
    if Path(qvl.__file__).resolve().parent != (SRC / "qvl").resolve():
        print(f"qvl was imported from {qvl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    ctx = Context(args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        with ticks:
            queries = SETUPS[args.workload](ctx)
        emit("ready")
        emit("probe", seconds=probe(), ticks=ticks.samples,
             handler_s=ticks.handler_s)
        passes = []
        for index in range(1 + WARM_PASSES):
            seconds, probes, answers = run_pass(queries, index, args.seed)
            passes.append(answers)
            emit("pass", seconds=seconds, probes=probes)
        metrics, wrong = {}, oracle.self_test()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    traced_queries = SETUPS[args.workload](ctx)
                seconds, probes, answers = run_pass(
                    traced_queries, WARM_PASSES, args.seed, tracer)
            finally:
                tracer.uninstall()
            emit("traced", seconds=seconds, probes=probes)
            if answers != passes[-1]:
                wrong.append("traced and untraced answers differ")
            passes.append(answers)
            metrics = tracer.layer_metrics()
            if tracer.absent:
                print("trace: absent targets: " + "; ".join(tracer.absent),
                      file=sys.stderr)
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                            "spans": tracer.log}), encoding="utf-8")
        failed, exits, verdicts = 0, set(), {}
        for answers in passes:
            key = json.dumps(answers, sort_keys=True, default=str)
            if key not in verdicts:     # passes usually answer alike
                verdicts[key] = check_pass(queries, answers)
            f, w, e = verdicts[key]
            failed += f
            wrong += w
            exits.update(e)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        emit("done", attempted=len(queries) * len(passes), failed=failed,
             wrong=sorted(set(wrong)), exits=sorted(exits), metrics=metrics,
             peak_rss_mb=peak_mb)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    return 0


# --- driver ------------------------------------------------------------------


def reference_seconds(seconds: float, probe_s: float) -> float:
    return seconds / probe_s * PROBE_REFERENCE_S


def spawn(workload: str, seed: int, trace: int) -> dict:
    """Run one worker; returns its setup time and the per-query times of
    each pass, in reference seconds, and its final event."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    result = {"passes": []}
    before = probe()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        for line in proc.stdout:
            if not line.startswith(EVENT):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(EVENT):])
            kind = event.pop("event")
            if kind == "ready":
                setup = time.perf_counter() - start
            elif kind == "probe":
                result["setup_s"] = reference_seconds(
                    setup - event["handler_s"], statistics.mean(
                        [before, event["seconds"]] + event["ticks"]))
            elif kind in ("pass", "traced"):
                times = {name: reference_seconds(t, event["probes"][name])
                         for name, t in event["seconds"].items()}
                if kind == "pass":
                    result["passes"].append(times)
                else:
                    result["traced"] = times
                    result["traced_probe_s"] = statistics.median(
                        event["probes"].values())
            else:
                result["done"] = event
        code = proc.wait()
    if code != 0 or "done" not in result:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    return result


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_pass(passes) -> dict:
    """Each query's median time over the given passes."""
    samples = {}
    for seconds in passes:
        for name, t in seconds.items():
            samples.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in samples.items()}


def measure(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    runs, longest = [], 0.0
    while len(runs) < WORKERS:
        if (len(runs) >= MIN_WORKERS
                and time.perf_counter() - start + longest > seconds):
            print(f"{workload}: --seconds {seconds:g} cut the run to "
                  f"{len(runs)} of {WORKERS} workers", file=sys.stderr)
            break
        begin = time.perf_counter()
        runs.append(spawn(workload, seed, 0))
        longest = max(longest, time.perf_counter() - begin)
    cold = median_pass(r["passes"][0] for r in runs)
    warm = median_pass(p for r in runs for p in r["passes"][1:])
    return {
        "runs": runs,
        "metrics": {
            "setup_s": _metric(statistics.median(r["setup_s"] for r in runs),
                               "s"),
            "cold_s": _metric(sum(cold.values()), "s"),
            "warm_s": _metric(sum(warm.values()), "s"),
            "peak_rss_mb": _metric(statistics.median(
                r["done"]["peak_rss_mb"] for r in runs), "MB"),
        },
    }


def trace(workload: str, seed: int) -> dict:
    """Per-layer metrics of one traced worker; layer times are scaled to
    reference seconds by the traced pass's median probe time."""
    run = spawn(workload, seed, 1)
    scale = PROBE_REFERENCE_S / run["traced_probe_s"]
    metrics = {}
    for name, value in run["done"]["metrics"].items():
        if name.endswith("_s"):
            metrics[name] = _metric(value * scale, "s")
        else:
            metrics[name] = _metric(value, "ratio" if name.endswith("_ratio")
                                    else "count")
    warm = median_pass(run["passes"][1:])
    metrics["trace.overhead_s"] = _metric(
        sum(run["traced"][name] - warm[name] for name in warm), "s")
    return {"runs": [run], "metrics": metrics}


def summary(workload: str, measured: dict) -> dict:
    runs = measured["runs"]
    done = [r["done"] for r in runs]
    wrong = sorted({w for d in done for w in d["wrong"]})
    exits = sorted({e for d in done for e in d["exits"]})
    for line in wrong:
        print(f"{workload}: WRONG {line}", file=sys.stderr)
    for line in exits:
        print(f"{workload}: failed {line}", file=sys.stderr)
    result = {"correct": not wrong,
              "attempted": sum(d["attempted"] for d in done),
              "failed": sum(d["failed"] for d in done),
              "metrics": measured["metrics"]}
    print(f"{workload}: {len(runs)} worker(s), attempted "
          f"{result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print("  samples (reference seconds): " + json.dumps({
        "setup_s": [r["setup_s"] for r in runs],
        "passes_s": [[sum(p.values()) for p in r["passes"]] for r in runs]}))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return result


def regenerate_reference() -> int:
    """Recount the large witness instance by the independent method:
    counting monomorphisms through Hom bases, not the witness's own walk."""
    sys.path.insert(0, str(SRC))
    from qvl import cli
    from workloads import REFERENCE, mono_argv
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    w = data["witness"]
    argv = mono_argv(w["m"], w["l"], w["n"], w["q"]).split()
    code, report = cli.run_command(argv)
    if code != 0:
        print(f"{' '.join(argv)} exited {code}: {report}", file=sys.stderr)
        return 1
    data.update(argv=" ".join(argv), count=report["result"]["count"])
    REFERENCE.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"{REFERENCE.name}: count {data['count']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--regenerate-reference", action="store_true",
                        help="recount the witness reference file")
    args = parser.parse_args(argv)
    if not (SRC / "qvl" / "__init__.py").is_file():
        print(f"no qvl sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    if args.regenerate_reference:
        return regenerate_reference()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        measured = (trace(name, args.seed) if args.trace
                    else measure(name, args.seed, args.seconds))
        results[name] = summary(name, measured)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
