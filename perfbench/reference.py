"""Reference outputs, and the check every measured invocation must pass.

``reference.json`` holds, for every seed-0 invocation of every workload
(full size and the self-test's reduced size), the exit status, the SHA-256
of stdout and the (predicate, status) columns of its records.  It was
recorded from the commit that introduced the benchmark; recording it again
is a deliberate act::

    python3 perfbench/reference.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import Invocation, canonical_invocations

REFERENCE = Path(__file__).with_name("reference.json")


def load() -> dict[str, dict]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["invocations"]


def _statuses(stdout: bytes) -> list[str]:
    lines = stdout.decode("utf-8").splitlines()
    return [f"{r['predicate']}={r['status']}" for r in map(json.loads, lines)]


def failure(inv: Invocation, reference: dict[str, dict], exit: int | None,
            stdout: bytes, stderr: bytes = b"") -> str | None:
    """Why this output is wrong, or None when it matches the reference."""
    ref = reference.get(inv.ref_key)
    if ref is None:
        return f"no reference recorded for {inv.ref_key!r}"
    if exit is None:
        return "timed out"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if exit != ref["exit"]:
        return f"exit status {exit}, reference {ref['exit']}"
    if inv.exact:
        if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
            return "stdout differs from the reference"
        return None
    try:
        statuses = _statuses(stdout)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return "stdout is not one JSON record per line"
    if statuses != ref["statuses"]:
        return "predicate statuses differ from the reference"
    return None


def _record(root: Path) -> dict:
    from measure import run_cli

    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    table = {}
    for inv in canonical_invocations() + canonical_invocations(small=True):
        res = run_cli(inv, root, scratch)
        if res.exit is None or b"Traceback" in res.stderr:
            raise SystemExit(f"{inv.key}: failed while recording\n{res.stderr.decode()}")
        table[inv.key] = {"exit": res.exit,
                          "sha256": hashlib.sha256(res.stdout).hexdigest(),
                          "statuses": _statuses(res.stdout)}
        print(f"recorded {inv.key}: exit {res.exit}, {res.wall_s:.2f} s", file=sys.stderr)
    return {"invocations": table}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/reference.py --record")
    data = _record(Path(__file__).resolve().parent.parent)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                         encoding="utf-8")
