#!/usr/bin/env python3
"""Benchmark of the morphring command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-512 --seed 0 --seconds 20 --trace 0

With ``--trace 0`` every invocation of the workload runs as a fresh
``python -m morphring`` process, pass after pass, for ``--seconds``; the
result carries the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` the workload's work is replayed in process under spans
(``tracing.py``) and the result carries the per-layer metrics instead,
together with the tracing overhead against one untraced pass.

Every output, timed or traced, is checked against ``reference.json``; any
mismatch is printed to stderr and the run exits with status 1.  The last
stdout line is the result object; the line before it is a report with the
raw samples and an environment stamp.  Traced runs also write their spans
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import reference
from workloads import SEEDED, WORKLOADS, Invocation, invocations

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Import time varies by a fifth from one sample to the next on a shared
# machine; the median of eleven is steady enough to compare commits.
SETUP_REPS = 11


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return {"percentile": round(100 * (n - 10) / n, 2), "value": sorted(values)[n - 11]}


def _environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy}


def _steal_s() -> float | None:
    """CPU time the hypervisor withheld from this machine so far, if known."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Run:
    """One benchmark run: its samples, attempts and failures."""

    def __init__(self, invs: list[Invocation], ref: dict) -> None:
        self.invs = invs
        self.ref = ref
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, inv: Invocation, exit: int | None, stdout: bytes, stderr: bytes = b"") -> None:
        self.attempted += 1
        why = reference.failure(inv, self.ref, exit, stdout, stderr)
        if why:
            self.failures.append(f"{inv.key}: {why}")

    def setup(self, reps: int) -> list[float]:
        """Import time of the CLI module, after one warm-up import."""
        samples = []
        for i in range(reps + 1):
            res = measure.setup_time(ROOT, OUT)
            if res.exit != 0 or b"Traceback" in res.stderr:
                self.failures.append(f"import morphring.cli: exit {res.exit}, "
                                     f"stderr {res.stderr[-500:]!r}")
                break
            if i:
                samples.append(res.wall_s)
        return samples

    def cli_passes(self, seconds: float) -> list[dict]:
        """Untraced passes until the next would overrun ``seconds``."""
        deadline = time.perf_counter() + seconds
        passes = []
        while not self.failures:
            start = time.perf_counter()
            results = [measure.run_cli(inv, ROOT, OUT) for inv in self.invs]
            wall = time.perf_counter() - start
            for inv, res in zip(self.invs, results):
                self.check(inv, res.exit, res.stdout, res.stderr)
            passes.append({"wall_s": wall,
                           "cpu_s": sum(r.cpu_s for r in results),
                           "peak_rss_mb": max(r.maxrss_mb for r in results)})
            if time.perf_counter() + wall > deadline:
                break
        return passes

    def traced_passes(self, seconds: float) -> list:
        """In-process traced passes until the next would overrun ``seconds``."""
        from tracing import Replay, TraceMismatch, Tracer

        deadline = time.perf_counter() + seconds
        replay = Replay()
        passes = []
        while not self.failures:
            replay.tr = tracer = Tracer()
            start = time.perf_counter()
            for inv in self.invs:
                try:
                    code, stdout = replay.run(inv)
                except TraceMismatch as exc:
                    self.attempted += 1
                    self.failures.append(f"{inv.key} (traced): {exc}")
                    continue
                self.check(inv, code, stdout)
            wall = time.perf_counter() - start
            passes.append((tracer, wall))
            if time.perf_counter() + wall > deadline:
                break
        return passes


def _layer_metrics(passes: list, spec: list[dict], untraced_work: float,
                   failures: list[str]) -> dict[str, float]:
    """Per-layer values: medians of span self-times, exact counts, ratios."""
    per_pass = []
    for tracer, wall in passes:
        times = tracer.self_times()
        program, bench = tracer.top_level()
        values = {f"{name}_s": t for name, t in times.items()}
        values["rings.build_s"] = sum(t for name, t in times.items()
                                      if name.startswith("rings.build."))
        values["trace.span_total_s"] = program
        values["trace.uncovered_frac"] = (wall - bench - program) / (wall - bench)
        values.update(tracer.gauges)
        per_pass.append((values, dict(tracer.counts)))
    counts = per_pass[0][1] if per_pass else {}
    if any(c != counts for _, c in per_pass):
        failures.append("a count differs between traced passes")
    metrics = {}
    for m in spec:
        name = m["name"]
        if m["unit"] == "count":
            value = counts.get(name, 0)
        else:
            value = _median([values.get(name, 0.0) for values, _ in per_pass])
        metrics[name] = value
    if untraced_work > 0:
        metrics["trace.overhead_ratio"] = metrics["trace.span_total_s"] / untraced_work
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one workload; returns (report, result)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    run = Run(invocations(name, seed, small), reference.load())
    report = {"workload": name, "seed": seed, "small": small, "trace": int(trace),
              "seed_used": name in SEEDED,
              "invocations": [inv.key for inv in run.invs],
              "environment": _environment(), "load_avg_1m_start": os.getloadavg()[0]}
    steal_start = _steal_s()
    if name not in SEEDED:
        report["seed_note"] = "inputs are fixed by the CLI; the seed is ignored"

    started = time.perf_counter()
    setup = run.setup(setup_reps)
    passes = run.cli_passes(0 if trace else seconds)
    walls = [p["wall_s"] for p in passes]
    e2e = {"wall_s": _median(walls),
           "cpu_s": _median([p["cpu_s"] for p in passes]),
           "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
           "setup_s": _median(setup)}
    report.update(passes=len(passes), samples={"setup_s": setup, **{
        key: [p[key] for p in passes] for key in ("wall_s", "cpu_s", "peak_rss_mb")}},
        wall_s_tail=_tail(walls))
    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        remaining = max(0.0, seconds - (time.perf_counter() - started))
        traced = run.traced_passes(remaining)
        untraced_work = e2e["wall_s"] - e2e["setup_s"]
        metrics = _layer_metrics(traced, spec["per_layer"], untraced_work, run.failures)
        report.update(traced_passes=len(traced), untraced_work_s=untraced_work)
        spans = [{"pass": i, "spans": t.spans, "counts": t.counts} for i, (t, _) in enumerate(traced)]
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    steal_end = _steal_s()
    if steal_start is not None and steal_end is not None:
        report["steal_s"] = steal_end - steal_start
    report.update(load_avg_1m_end=os.getloadavg()[0], failures=run.failures,
                  failed_frac=len(run.failures) / max(run.attempted, 1))
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": len(run.failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    if not (ROOT / "src" / "morphring" / "cli.py").is_file():
        print(f"error: no morphring sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps(report, ensure_ascii=False))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
