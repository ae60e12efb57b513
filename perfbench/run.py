"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload swor-skew --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload, closed loop: a single caller replays a
pre-built stream through a fresh protocol instance, run after run, until
``--seconds`` have passed.  Every run's output is checked against the
workload's first run.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` half the time is spent on untraced runs and
half on traced runs, and the per-layer ledger is printed.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is non-zero when any check fails.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics gated by BENCHMARK.json, with their units.
END_TO_END = [
    ("items_per_s", "1/s"),
    ("window_ms_p50", "ms"),
    ("window_ms_p99", "ms"),
    ("setup_s", "s"),
    ("messages", "count"),
    ("words", "count"),
    ("peak_rss_mb", "MB"),
]
SETUPS = 5  # set-ups per process; setup_s is their median
MIN_RUNS = 3  # timed runs per phase, even past the deadline

#: Host-speed calibration.  Other tenants of a shared host slow this
#: machine down by up to half, in phases from seconds to minutes, which
#: would swamp any change under test.  So every timed span is bracketed
#: by a fixed pure-interpreter loop, and its seconds are rescaled to a
#: reference host on which the two loops take ``CAL_REF`` seconds (an
#: idle 2-core Xeon container).  Timings are in these reference seconds.
CAL_LOOP = 400_000
CAL_REF = 0.015


def host_clock() -> float:
    """Seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    sum(range(CAL_LOOP))
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children (the
    sharded workers), from each process's high-water mark."""
    import multiprocessing
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def leaked_segments(names) -> list:
    """Shared-memory segments among ``names`` that still exist."""
    from multiprocessing import shared_memory

    leaked = []
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        segment.unlink()
        leaked.append(name)
    return leaked


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process.

    Creating a shared-memory segment starts it; left alone it outlives
    this process by a moment, orphaned, so a run would leave a process
    behind.  Closing its pipe ends it, and ``_stop`` waits for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Bench:
    """One workload in one process: set-up, timed runs, checks."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.engine = None

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    def engine_ok(self) -> bool:
        """A sharded run must have run sharded, with no fault handled:
        a fallback or degraded run measured another engine."""
        if not self.workload.sharded:
            return True
        stats = self.engine.last_run_stats
        return (
            stats.get("mode") == "sharded"
            and "degraded_to" not in stats
            and not stats.get("faults")
        )

    def instance(self):
        return self.workload.make_instance(self.seed, self.engine, self.workload.items)

    def setup(self) -> list:
        """Set up ``SETUPS`` times; keep the last.  Each covers column
        generation, the ``ColumnarStream`` build, engine and protocol
        construction (pool spawn and stream shipping happen in the first
        run of a sharded engine), and one warm-up run."""
        from perfbench.workloads import WindowClock, build_stream

        seconds, builds, prints = [], [], []
        for _ in range(SETUPS):
            if self.engine is not None:
                self.close_engine()
            before = host_clock()
            t0 = time.perf_counter()
            stream, build_s = build_stream(self.workload.items, self.seed)
            self.engine = self.workload.make_engine()
            warm = self.instance()
            clock = WindowClock()
            clock.start()
            warm.run(stream, clock)
            elapsed = time.perf_counter() - t0
            scale = CAL_REF / (before + host_clock())
            seconds.append(elapsed * scale)
            builds.append(build_s * scale)
            prints.append(warm.fingerprint())
            if not self.engine_ok():
                self.problem(f"warm-up ran {self.engine.last_run_stats.get('mode')!r}")
        if any(p != prints[0] for p in prints):
            self.problem("warm-up runs of the same seed disagree")
        self.stream = stream
        self.reference = prints[0]
        self.warm = warm
        return [statistics.median(seconds), statistics.median(builds)]

    def close_engine(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is None:
            return
        segments = self.engine.last_run_stats.get("shm_segments", [])
        close()
        leaked = leaked_segments(segments)
        if leaked:
            self.problem(f"shared-memory segments left behind: {leaked}")

    def timed_runs(self, seconds: float, ledger_factory=None):
        """Closed-loop runs for ``seconds``.  Returns per-run walls and
        the pooled window intervals in reference seconds, per-run (traced) ledgers
        with their reference-seconds scale, and the last instance."""
        from perfbench.workloads import WindowClock

        walls, intervals, ledgers = [], [], []
        self.raw_walls = []
        tries = 0
        deadline = time.perf_counter() + seconds
        while tries < MIN_RUNS or time.perf_counter() < deadline:
            tries += 1
            self.attempted += 1
            instance = self.instance()
            ledger = None
            if ledger_factory is not None:
                ledger = ledger_factory()
                ledger.instrument(instance, self.workload.sharded)
            gc.collect()
            clock = WindowClock()
            before = host_clock()
            try:
                clock.start()
                t0 = time.perf_counter()
                try:
                    instance.run(self.stream, clock)
                    wall = time.perf_counter() - t0
                finally:
                    if ledger is not None:
                        ledger.restore()
                scale = CAL_REF / (before + host_clock())
                ok = self.engine_ok() and instance.fingerprint() == self.reference
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                self.failed += 1
                continue
            self.raw_walls.append(wall)
            walls.append(wall * scale)
            intervals.extend(x * scale for x in clock.intervals)
            if ledger is not None:
                stats = getattr(self.engine, "last_run_stats", None) or {}
                ledgers.append((ledger, wall, scale, dict(stats)))
        return walls, intervals, ledgers, instance

    def checks(self, instance) -> dict:
        """One-off output checks, outside timing; returns report-only
        figures (hh_recall)."""
        name = self.workload.name
        extra = {}
        if name == "sharded-skew":
            from perfbench.workloads import SworInstance, WindowClock
            from repro.runtime import ColumnarEngine

            columnar = SworInstance(self.seed, ColumnarEngine())
            columnar.run(self.stream, WindowClock())
            if columnar.fingerprint() != self.reference:
                self.problem("sharded-skew differs from the columnar run (swor-skew)")
        elif name == "multiquery-mixed":
            self.check_fused(instance)
        elif name == "hh-skew":
            extra["hh_recall"] = self.hh_recall(instance)
        return extra

    def check_fused(self, instance) -> None:
        """Each fused SWOR query's sample equals a standalone columnar
        run with the driver's derived seed and the same checkpoints."""
        from perfbench.workloads import FUSED_SWOR, MQ_SAMPLE, NUM_SITES
        from repro import DistributedWeightedSWOR, SworConfig
        from repro.query import query_seed

        for query in FUSED_SWOR:
            alone = DistributedWeightedSWOR(
                SworConfig(num_sites=NUM_SITES, sample_size=MQ_SAMPLE),
                seed=query_seed(self.seed, query),
                engine="columnar",
            )
            alone.run(self.stream, checkpoints=instance.marks, on_checkpoint=lambda t: None)
            fused = instance.driver[query].protocol.sample_with_keys()
            if alone.sample_with_keys() != fused:
                self.problem(f"fused query {query!r} differs from its standalone run")

    def hh_recall(self, instance) -> float:
        """Recall of ``heavy_hitters()`` against the exact Definition 6
        targets over the whole stream."""
        from perfbench.workloads import HH_EPS
        from repro.heavy_hitters import score_residual_report

        score = score_residual_report(
            ChunkedItems(self.stream), instance.tracker.heavy_hitters(), HH_EPS
        )
        print(f"# hh-skew: {score.true_count} residual heavy hitters, recall {score.recall}")
        return score.recall


class ChunkedItems:
    """A read-only ``Sequence[Item]`` over a columnar stream that
    iterates chunk by chunk (the exact oracle walks the stream twice)."""

    CHUNK = 65536

    def __init__(self, stream) -> None:
        self.stream = stream

    def __len__(self) -> int:
        return len(self.stream)

    def __getitem__(self, index):
        return self.stream.items[index]

    def __iter__(self):
        from repro import Item

        idents, weights = self.stream.idents, self.stream.weights
        for lo in range(0, len(idents), self.CHUNK):
            hi = lo + self.CHUNK
            yield from map(Item, idents[lo:hi].tolist(), weights[lo:hi].tolist())


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.ledger import PER_LAYER, Ledger
    from perfbench.workloads import WORKLOADS, stream_bytes

    workload = WORKLOADS[name]
    bench = Bench(workload, seed)
    metrics: dict = {}
    report: dict = {}
    try:
        setup_s, build_s = bench.setup()
        n = workload.items
        if not trace:
            walls, intervals, _, last = bench.timed_runs(seconds)
            counters = bench.warm.counters()
            metrics = {
                "items_per_s": n / statistics.median(walls),
                "window_ms_p50": percentile_ms(intervals, 50),
                "window_ms_p99": percentile_ms(intervals, 99),
                "setup_s": setup_s,
                "messages": sum(c.total for c in counters),
                "words": sum(c.words for c in counters),
                "peak_rss_mb": peak_rss_mb(),
            }
            report["timed runs"] = len(walls)
            report["window samples"] = len(intervals)
            report["raw items_per_s"] = n / statistics.median(bench.raw_walls)
            units = dict(END_TO_END)
        else:
            walls, _, _, last = bench.timed_runs(seconds / 2)
            _, _, ledgers, last = bench.timed_runs(seconds / 2, Ledger)
            query_run = hasattr(last, "driver")
            per_run = [
                {
                    key: value * scale if key.endswith("_s") else value
                    for key, value in ledger.metrics(wall, stats, query_run).items()
                }
                for ledger, wall, scale, stats in ledgers
            ]
            metrics = {
                key: statistics.median(run[key] for run in per_run) for key in per_run[0]
            }
            metrics["query.checkpoints"] = len(last.result.checkpoints) if query_run else 0
            metrics["ingest.build_s"] = build_s
            metrics["ingest.bytes_per_item"] = stream_bytes(bench.stream) / n
            metrics["trace.overhead_frac"] = (
                statistics.median(wall * scale for _, wall, scale, _ in ledgers)
                / statistics.median(walls)
                - 1.0
            )
            units = dict(PER_LAYER)
            metrics = {key: metrics[key] for key in units}
            report["timed runs"] = len(walls) + len(ledgers)
        report.update(bench.checks(last))
    except Exception:
        traceback.print_exc()
        bench.problem("the workload raised")
    finally:
        try:
            if bench.engine is not None:
                bench.close_engine()
        finally:
            stop_resource_tracker()
    report["error_rate"] = bench.failed / max(bench.attempted, 1)
    correct = not bench.problems and bench.failed == 0 and bool(metrics)
    for key, value in metrics.items():
        print(f"{name:>16}  {key:<24} {value:>16.6g} {units[key]}")
    for key, value in report.items():
        print(f"{name:>16}  {key:<24} {value:>16.6g}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(bench.attempted, 1),
                "failed": bench.failed if bench.attempted else 1,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            status |= subprocess.call(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            )
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: all, {', '.join(WORKLOADS)})")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
