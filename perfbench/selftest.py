#!/usr/bin/env python3
"""Self-test of the benchmark harness, at reduced size (well under a minute).

    python3 perfbench/selftest.py

Runs every workload at reduced size (``search --max-order 64``,
``qz --bound 8``, small rings in ``profile-mix``), untraced and traced,
under seeds 0 and 1, and checks that:

- every run is correct and emits exactly the metrics of ``BENCHMARK.json``,
  each with its unit, the end-to-end ones nonzero;
- the per-layer counts repeat exactly across the two runs (for
  ``profile-mix`` the second seed builds an isomorphic ring, which must
  give the same counts);
- every per-layer metric is nonzero on some workload, except counts of
  outcomes no workload has, so a misspelt name cannot hide as a zero;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, a run
  fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# Counts of outcomes that no workload produces at the commit that added
# the benchmark.
MAY_BE_ZERO = {"ideals.lattice.overflows", "classify.indeterminate", "verify.vacuous"}


def _check_workloads(spec: dict) -> None:
    nonzero: set[str] = set()
    for name in run.WORKLOADS:
        for trace in (False, True):
            section = spec["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in section}
            runs = []
            for seed in (0, 1):
                report, result = run.run_workload(name, seed, 0, trace, small=True, setup_reps=1)
                assert result["correct"], (name, seed, report["failures"])
                assert report["seed_used"] == (name in run.SEEDED), report
                metrics = result["metrics"]
                got = {k: v["unit"] for k, v in metrics.items()}
                assert got == units, (name, sorted(set(got) ^ set(units)))
                if not trace:
                    assert all(v["value"] > 0 for v in metrics.values()), (name, metrics)
                runs.append(metrics)
            if trace:
                for m in section:
                    if m["unit"] == "count":
                        first, second = (r[m["name"]]["value"] for r in runs)
                        assert first == second, (name, m["name"], first, second)
                nonzero.update(k for k, v in runs[0].items() if v["value"])
            print(f"ok {name} trace={int(trace)}", file=sys.stderr)
    never = {m["name"] for m in spec["per_layer"]} - nonzero - MAY_BE_ZERO
    assert not never, f"per-layer metrics zero on every workload: {sorted(never)}"


def _check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "qz-64", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)
    print("ok bare directory fails without a result", file=sys.stderr)


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _check_workloads(spec)
    _check_bare_directory()
    print("selftest passed", file=sys.stderr)


if __name__ == "__main__":
    main()
