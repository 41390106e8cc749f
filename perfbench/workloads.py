"""The benchmark's workloads: which CLI invocations each one runs, per seed.

Every workload is a closed loop: one client runs its invocations one after
another, each as a fresh ``python -m morphring`` process.  No workload
keeps more than two processes busy at a time (the ``--jobs 2`` pool; its
parent only waits), which matches a two-core machine.

Seed 0 gives the canonical inputs.  Only ``profile-mix`` depends on the
seed: another seed permutes the factor order of its ``prod(...)`` ring
(an isomorphic ring with a different element encoding) and the order of
its invocations.  The other workloads take their inputs from the CLI
itself (the built-in search corpus, the Q/Z bound), so they ignore it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("search-512", "search-512-j2", "profile-mix", "qz-64")

SEEDED = {"profile-mix"}

# Reduced inputs for the harness self-test: same commands, a few seconds.
_SMALL = {
    "search_order": "64",
    "qz_bound": "8",
    "prod_factors": ("tri(z2,2)", "z2"),
    "verify_ring": "z6",
    "large_ring": "tri(z2,2)",
}
_FULL = {
    "search_order": "512",
    "qz_bound": "64",
    "prod_factors": ("tri(z2,2)", "tri(z2,2)", "z8"),
    "verify_ring": "mat(z2,3)",
    "large_ring": "poly(z2,11)",
}


def _key(argv: list[str] | tuple[str, ...], env: tuple = ()) -> str:
    return " ".join([f"{k}={v}" for k, v in env] + list(argv))


@dataclass(frozen=True)
class Invocation:
    """One CLI command line, with the reference it is checked against."""

    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    # Key of the seed-0 invocation whose recorded output this one must
    # reproduce, when that is not this invocation itself.
    ref: str | None = None
    # False when only the predicate status columns are comparable: a
    # permuted ``prod`` encodes its elements, and so its witnesses,
    # differently.
    exact: bool = True

    @property
    def key(self) -> str:
        return _key(self.argv, self.env)

    @property
    def ref_key(self) -> str:
        return self.ref or self.key


def invocations(name: str, seed: int, small: bool = False) -> list[Invocation]:
    """The invocations of one pass of workload ``name`` under ``seed``."""
    size = _SMALL if small else _FULL
    search = ("search", "--max-order", size["search_order"], "--json")
    if name == "search-512":
        return [Invocation(search)]
    if name == "search-512-j2":
        # Same stdout as the serial search, so it shares that reference.
        return [Invocation(search[:3] + ("--jobs", "2", "--json"), ref=_key(search))]
    if name == "qz-64":
        return [Invocation(("qz", "--bound", size["qz_bound"], "--json"))]
    if name != "profile-mix":
        raise ValueError(f"unknown workload {name!r}")

    factors = list(size["prod_factors"])
    canonical = ("classify", f"prod({','.join(factors)})", "--json")
    rng = random.Random(seed)
    if seed:
        rng.shuffle(factors)
    argv = ("classify", f"prod({','.join(factors)})", "--json")
    mix = [
        Invocation(argv) if argv == canonical
        else Invocation(argv, ref=_key(canonical), exact=False),
        Invocation(("verify", size["verify_ring"], "--json")),
        Invocation(("classify", size["large_ring"], "--json"),
                   env=(("RING_ORDER_CAP", "2048"),)),
    ]
    if seed:
        rng.shuffle(mix)
    return mix


def canonical_invocations(small: bool = False) -> list[Invocation]:
    """Every seed-0 invocation, each once: the set the reference records."""
    return [inv for name in WORKLOADS for inv in invocations(name, 0, small)
            if inv.ref is None]
