"""The traced run: the CLI's work issued step by step, in process, under spans.

Each invocation is replayed through the package's public functions in the
order the CLI does its work: parse, projected order, build, left tables,
opposite, right tables, census, morphic, regularity, commutation, left and
right ideal lattices, structural, theorem checks, emit.  Each step runs on
state the previous steps left cached on the ring, so each span times only
the work that step adds, with one exception: ``all_ideals`` keeps no
cache, so the structural step enumerates both lattices again (over
memoised subgroup sums), and a classify replay does more work than the
CLI; ``trace.overhead_ratio`` shows by how much.  The replay prints
nothing; it returns the exit status and the stdout the CLI would have
produced, which the caller checks against the reference byte for byte.

Spans are recorded by this file alone, around its calls into the package,
and kept in memory.  Span names starting with ``bench.`` mark work of the
benchmark itself (the build cross-check, and the serial replay that serves
as the base of the pool efficiency); they are left out of the span total
and of the traced wall time.
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from typing import Callable, Iterator

from morphring import cli
from morphring import verify as verify_module
from morphring.classify import (
    ClassProfile,
    commutation_profile,
    regularity_profile,
    ring_morphic_profile,
    structural_profile,
)
from morphring.ideals import LatticeOverflow, Side, all_ideals, element_census, principal_ideal
from morphring.qz import verify_qz_suite
from morphring.rings import (
    FiniteRing,
    OrderCapExceeded,
    direct_product,
    ideal_bimodule,
    make_gf,
    make_zmod,
    matrix_ring,
    opposite,
    order_cap,
    regular_bimodule,
    trivial_extension,
    truncated_poly,
)
from morphring.verify import (
    VerificationReport,
    search_counterexample,
    verify_finite_qf,
    verify_lemma_equivalences,
    verify_pseudo_consequences,
    verify_quasi_equivalence,
    verify_reduced_equivalences,
    verify_regular_criteria,
    verify_witness_identities,
)

from workloads import Invocation

# The theorem checks ``verify`` runs on every ring, in the CLI's order.
THEOREMS: tuple[tuple[str, Callable[[FiniteRing], VerificationReport]], ...] = (
    ("annihilator_chain_equivalence", verify_lemma_equivalences),
    ("sum_intersection_witnesses", verify_witness_identities),
    ("pseudo_morphic_consequences", verify_pseudo_consequences),
    ("pseudo_quasi_equivalence", verify_quasi_equivalence),
    ("finite_dual_ring_battery", verify_finite_qf),
    ("regular_criteria", verify_regular_criteria),
    ("reduced_ring_collapse", verify_reduced_equivalences),
)

# Profile functions that theorem checks and the search call internally,
# looked up by name in ``morphring.verify``; each call there becomes a span.
_VERIFY_CALLEES = (
    ("ring_morphic_profile", "classify.morphic"),
    ("regularity_profile", "classify.regularity"),
    ("commutation_profile", "classify.commutation"),
)


class TraceMismatch(Exception):
    """The replay disagreed with the CLI it mirrors."""


class Tracer:
    """In-memory spans (name, parent, start, end) plus exact counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Span durations minus their children's, summed by name."""
        child = defaultdict(float)
        for _, parent, start, end in self.spans[since:]:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans[since:], since):
            out[name] += end - start - child[i]
        return dict(out)

    def top_level(self) -> tuple[float, float]:
        """(program, bench) totals of the top-level spans."""
        program = bench = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                if name.startswith("bench."):
                    bench += end - start
                else:
                    program += end - start
        return program, bench


@contextmanager
def _verify_callee_spans(tr: Tracer) -> Iterator[None]:
    saved = {}
    for attr, name in _VERIFY_CALLEES:
        fn = getattr(verify_module, attr, None)
        if fn is not None:
            saved[attr] = fn
            setattr(verify_module, attr, tr.wrap(name, fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(verify_module, attr, fn)


def _build(tr: Tracer, expr: tuple) -> FiniteRing:
    """Walk the parsed tree through the public constructors, one span per node."""
    head = expr[0]
    with tr.span(f"rings.build.{head}"):
        if head == "z":
            ring = make_zmod(expr[1])
        elif head == "gf":
            ring = make_gf(expr[1], expr[2])
        elif head == "prod":
            ring = direct_product([_build(tr, e) for e in expr[1:]])
        else:
            base = _build(tr, expr[1])
            if head == "mat":
                ring = matrix_ring(base, expr[2])
            elif head == "tri":
                ring = matrix_ring(base, expr[2], shape="lower_triangular")
            elif head == "poly":
                ring = truncated_poly(base, expr[2])
            elif head == "opp":
                ring = opposite(base)
            elif head == "trivext" and expr[2][0] == "self":
                ring = trivial_extension(base, regular_bimodule(base))
            elif head == "trivext" and expr[2][0] == "ideal":
                ring = trivial_extension(base, ideal_bimodule(base, expr[2][1]))
            else:
                raise TraceMismatch(f"no traced constructor for {cli.serialize_ring_expr(expr)}")
    tr.counts["rings.table_entries"] += 2 * ring.order**2
    return ring


class Replay:
    """Replays invocations under one tracer; cross-checks each build once."""

    def __init__(self) -> None:
        self.tr = Tracer()
        self._checked: set[tuple] = set()

    def run(self, inv: Invocation) -> tuple[int, bytes]:
        """(exit status, stdout) the CLI gives for ``inv``."""
        saved = {k: os.environ.get(k) for k, _ in inv.env}
        os.environ.update(inv.env)
        try:
            command, *args = inv.argv
            handler = {"classify": self._classify, "verify": self._verify,
                       "search": self._search, "qz": self._qz}[command]
            code, text = handler(args)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return code, text.encode("utf-8")

    def _emit(self, records: Callable[[], list[dict]]) -> str:
        with self.tr.span("cli.emit"):
            return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records())

    def _ring(self, text: str) -> tuple[tuple, FiniteRing]:
        tr = self.tr
        with tr.span("cli.parse"):
            expr = cli.parse_ring_expr(text)
        with tr.span("cli.project"):
            order = cli.projected_order(expr)
            if order > order_cap():
                raise OrderCapExceeded(f"projected order {order} exceeds the cap")
        ring = _build(tr, expr)
        if expr not in self._checked:
            with tr.span("bench.check"):
                if cli.build_ring(expr) != ring:
                    raise TraceMismatch(f"traced build of {text} differs from build_ring")
            self._checked.add(expr)
        with tr.span("ideals.tables.left"):
            principal_ideal(ring, Side.LEFT, ring.zero)
        with tr.span("rings.opposite"):
            opposite(ring)
        with tr.span("ideals.tables.right"):
            principal_ideal(ring, Side.RIGHT, ring.zero)
        return expr, ring

    def _classify(self, args: list[str]) -> tuple[int, str]:
        tr = self.tr
        expr, ring = self._ring(args[0])
        with tr.span("ideals.census"):
            element_census(ring)
        with tr.span("classify.morphic"):
            morphic = ring_morphic_profile(ring)
        with tr.span("classify.regularity"):
            regularity = regularity_profile(ring)
        with tr.span("classify.commutation"):
            commutation = commutation_profile(ring)
        for side in (Side.LEFT, Side.RIGHT):
            with tr.span(f"ideals.lattice.{side.value}"):
                try:
                    tr.counts["ideals.lattice.ideals"] += len(all_ideals(ring, side))
                except LatticeOverflow:
                    tr.counts["ideals.lattice.overflows"] += 1
        with tr.span("classify.structural"):
            structural = structural_profile(ring)
        profile = ClassProfile(ring.construction, ring.order, morphic,
                               regularity, commutation, structural)
        text = self._emit(lambda: cli.profile_records(cli.serialize_ring_expr(expr), profile))
        statuses = [json.loads(line)["status"] for line in text.splitlines()[1:]]
        tr.counts["classify.flags"] += len(statuses)
        tr.counts["classify.indeterminate"] += statuses.count("indeterminate")
        return 0, text

    def _verify(self, args: list[str]) -> tuple[int, str]:
        tr = self.tr
        expr, ring = self._ring(args[0])
        if expr[0] == "trivext" or cli.serialize_ring_expr(expr) == "tri(z2,2)":
            raise TraceMismatch("the CLI adds theorem checks for this ring; no replay for them")
        reports = []
        with _verify_callee_spans(tr):
            for name, check in THEOREMS:
                with tr.span(f"verify.{name}"):
                    reports.append(check(ring))
        tr.counts["verify.reports"] += len(reports)
        tr.counts["verify.vacuous"] += sum(r.status == "vacuous" for r in reports)
        expression = cli.serialize_ring_expr(expr)
        text = self._emit(lambda: [_report_record(expression, r) for r in reports])
        return _exit(reports), text

    def _search(self, args: list[str]) -> tuple[int, str]:
        if "--jobs" not in args or int(_option(args, "--jobs")) <= 1:
            return self._search_serial(int(_option(args, "--max-order")))
        tr = self.tr
        first = len(tr.spans)
        with tr.span("bench.serial"):
            serial_code, serial_text = self._search_serial(int(_option(args, "--max-order")))
        times = tr.self_times(first)
        serial_work = sum(t for name, t in times.items() if not name.startswith("bench."))
        out = io.StringIO()
        pool = len(tr.spans)
        with tr.span("cli.pool"), redirect_stdout(out):
            code = cli.run_command(["search", *args])
        _, _, start, end = tr.spans[pool]
        tr.gauges["cli.pool_efficiency"] = serial_work / (2 * (end - start))
        if (code, out.getvalue()) != (serial_code, serial_text):
            raise TraceMismatch("the --jobs search differs from the serial replay")
        return code, out.getvalue()

    def _search_serial(self, max_order: int) -> tuple[int, str]:
        tr = self.tr
        with tr.span("cli.parse"):
            texts = cli.default_corpus(max_order)
        rings = [self._ring(text)[1] for text in texts]
        with tr.span("verify.search"), _verify_callee_spans(tr):
            report = search_counterexample(rings)
        text = self._emit(lambda: [_report_record(report.expression, report)])
        return _exit([report]), text

    def _qz(self, args: list[str]) -> tuple[int, str]:
        tr = self.tr
        with tr.span("qz.suite"):
            report = verify_qz_suite(int(_option(args, "--bound")))
        for key in ("pairs", "generator_checks", "symbolic_witnesses", "concrete_grids"):
            tr.counts[f"qz.{key}"] += report.details.get(key, 0)
        text = self._emit(lambda: [_report_record(report.expression, report)])
        return _exit([report]), text


def _option(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def _report_record(expression: str, report: VerificationReport) -> dict:
    return {"expression": expression, "predicate": report.theorem,
            "status": report.status, "witness": report.details or None}


def _exit(reports: list[VerificationReport]) -> int:
    return 1 if any(r.status == "refuted" for r in reports) else 0
