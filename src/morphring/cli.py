"""Command-line interface: ring expressions, classification, verification.

Expressions follow a small grammar of composable constructors::

    expr := z INT | gf(INT,INT) | prod(expr,...) | mat(expr,INT)
          | tri(expr,INT) | poly(expr,INT) | trivext(expr,mod) | opp(expr)
    mod  := self | ideal(INT) | tables(PATH)

Machine-readable output (``--json``) is one record per line with the fixed
key order ``expression, predicate, status, witness`` so that reports are
diffable; human output is an aligned table.  Exit status is 2 for syntax
or usage errors, 1 if any check is refuted or mismatched, otherwise 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

from .common import OrderCapExceeded, VerificationReport, order_cap

__all__ = [
    "build_ring",
    "default_corpus",
    "main",
    "parse_ring_expr",
    "projected_order",
    "run_command",
    "serialize_ring_expr",
]

RingExpr = tuple

# Deepest constructor nesting the parser accepts: far below the interpreter's
# recursion limit, far above any expression a capped ring needs.
_MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    """Raised with a position when an expression fails to parse."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class _Form:
    """One head of the grammar: argument kinds, builder and order rule.

    Kinds: ``int``, ``path``, ``ring`` (a sub-ring, projected by the order
    walk), ``base`` (a sub-ring built by every walk, for the ``mod``
    bimodule after it).  ``order(limit, *values)`` is exact up to
    ``limit`` and saturates past it; a bimodule form builds from its base
    ring and its values.  A ``variadic`` form repeats its one kind; a
    ``bare`` one takes no parentheses.
    """

    args: tuple[str, ...]
    build: Callable
    order: Callable[..., int] | None = None
    variadic: bool = False
    bare: bool = False


def _rings():
    """The ring engine, imported on the first build or order rule that needs it."""
    from . import rings

    return rings


_RINGS: dict[str, _Form] = {
    "z": _Form(("int",), lambda n: _rings().make_zmod(n), lambda limit, n: n, bare=True),
    "gf": _Form(("int", "int"), lambda p, k: _rings().make_gf(p, k),
                lambda limit, p, k: _rings()._power(p, k, limit)),
    "prod": _Form(("ring",), lambda *rings: _rings().direct_product(rings),
                  lambda limit, *orders: reduce(lambda p, o: min(p * o, limit + 1), orders, 1),
                  variadic=True),
    "mat": _Form(("ring", "int"), lambda base, k: _rings().matrix_ring(base, k),
                 lambda limit, order, k: _rings()._power(order, k * k, limit)),
    "tri": _Form(("ring", "int"),
                 lambda base, k: _rings().matrix_ring(base, k, shape="lower_triangular"),
                 lambda limit, order, k: _rings()._power(order, k * (k + 1) // 2, limit)),
    "poly": _Form(("ring", "int"), lambda base, k: _rings().truncated_poly(base, k),
                  lambda limit, order, k: _rings()._power(order, k, limit)),
    "trivext": _Form(("base", "mod"), lambda base, mod: _rings().trivial_extension(base, mod),
                     lambda limit, base, mod: base.order * mod.order),
    "opp": _Form(("ring",), lambda inner: _rings().opposite(inner), lambda limit, order: order),
}
_MODULES: dict[str, _Form] = {
    "self": _Form((), lambda base: _rings().regular_bimodule(base), bare=True),
    "ideal": _Form(("int",), lambda base, d: _rings().ideal_bimodule(base, d)),
    "tables": _Form(("path",), lambda base, path: _load_bimodule_tables(path, base)),
}
_SUBTREES = {"ring": _RINGS, "base": _RINGS, "mod": _MODULES}


def _form(table: dict[str, _Form], expr: tuple) -> _Form:
    try:
        return table[expr[0]]
    except KeyError:
        raise ValueError(f"unknown expression head {expr[0]!r}") from None


def _kinds(form: _Form, expr: tuple) -> tuple[str, ...]:
    return form.args * (len(expr) - 1) if form.variadic else form.args


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _next_is(self, ch: str) -> bool:
        self._skip_ws()
        return self.text.startswith(ch, self.pos)

    def _expect(self, ch: str) -> None:
        if not self._next_is(ch):
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def _scan(self, accept: Callable[[str], bool], what: str) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and accept(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError(f"expected {what}", start)
        return self.text[start:self.pos]

    def _path(self) -> str:
        end = self.text.find(")", self.pos)
        if end < 0:
            raise ExprSyntaxError("unterminated tables path", self.pos)
        path = self.text[self.pos:end].strip()
        if not path:
            raise ExprSyntaxError("empty tables path", self.pos)
        self.pos = end
        return path

    def parse(self) -> RingExpr:
        expr = self._node(_RINGS)
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("unexpected trailing input", self.pos)
        return expr

    def _argument(self, kind: str):
        if kind in _SUBTREES:
            return self._node(_SUBTREES[kind])
        if kind == "path":
            return self._path()
        return int(self._scan(str.isdigit, "an integer"))

    def _node(self, table: dict[str, _Form]) -> tuple:
        start = self.pos
        name = self._scan(lambda ch: ch.isalpha() or ch == "_", "a constructor name")
        if name not in table:
            noun = "constructor" if table is _RINGS else "bimodule form"
            raise ExprSyntaxError(f"unknown {noun} {name!r}", start)
        form = table[name]
        if form.bare:
            return (name, *(self._argument(kind) for kind in form.args))
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", start)
        self._expect("(")
        args = []
        for i, kind in enumerate(form.args):
            if i:
                self._expect(",")
            args.append(self._argument(kind))
        while form.variadic and self._next_is(","):
            self.pos += 1
            args.append(self._argument(form.args[-1]))
        self._expect(")")
        self.depth -= 1
        return (name, *args)


def parse_ring_expr(text: str) -> RingExpr:
    """Parse an expression into its tuple syntax tree."""
    return _Parser(text).parse()


def _serialize(expr: tuple, table: dict[str, _Form]) -> str:
    form = _form(table, expr)
    parts = [_serialize(arg, _SUBTREES[kind]) if kind in _SUBTREES else str(arg)
             for kind, arg in zip(_kinds(form, expr), expr[1:])]
    return expr[0] + ("".join(parts) if form.bare else f"({','.join(parts)})")


def serialize_ring_expr(expr: RingExpr) -> str:
    """Canonical text form; ``parse_ring_expr`` inverts it exactly."""
    return _serialize(expr, _RINGS)


def _load_bimodule_tables(path: str, base: FiniteRing) -> BimoduleSpec:
    """Read a bimodule from a whitespace-separated table file.

    Format: first line ``m |R|``, then an m-by-m addition table, an
    |R|-by-m left action, and an m-by-|R| right action, all as element
    indices.  A header whose extension ``m * |R|`` exceeds ``order_cap()``
    is refused before the body is parsed.  ``BimoduleSpec`` checks the
    entries' range; the bimodule axioms are checked by ``trivial_extension``,
    after the order cap.
    """
    import numpy as np

    from .rings import BimoduleSpec, _Labels

    with open(path, encoding="utf-8") as handle:
        head = handle.read().split(maxsplit=2)
    if len(head) < 2:
        raise ValueError(f"table file {path!r} is missing its header")
    m, n = int(head[0]), int(head[1])
    if n != base.order:
        raise ValueError(
            f"table file {path!r} declares ring order {n}, but the base ring has order {base.order}")
    if m * n > order_cap():
        raise _over_cap()
    tokens = head[2].split() if len(head) > 2 else []
    # an entry clamped to [-1, m] lies outside [0, m) exactly when it did, and fits int64
    body = np.array([min(max(int(tok), -1), m) for tok in tokens], dtype=np.int64)
    if len(body) != (expected := m * m + 2 * n * m):
        raise ValueError(f"table file {path!r} has {len(body)} entries, expected {expected}")
    if m < 0:  # a negative m passes the count with m(m + 2|R|) entries
        raise ValueError(f"table file {path!r} has no additive identity")
    add, left, right = (part.reshape(shape) for part, shape in zip(
        np.split(body, [m * m, m * m + n * m]), ((m, m), (n, m), (m, n))))
    zeros = np.flatnonzero((add == np.arange(m)).all(axis=1))
    if not zeros.size:
        raise ValueError(f"table file {path!r} has no additive identity")
    return BimoduleSpec(m, add, left, right, int(zeros[0]), _Labels(lambda d: f"m{d[0]}", (m,)),
                        f"tables({path})")


def _arguments(expr: RingExpr, built: dict, walk: Callable) -> tuple:
    """A node's argument values, with ``walk(sub, built)`` for each sub-ring.

    A node with a bimodule builds its ``base`` and the bimodule over it in
    every walk, once per ``built`` memo: the pair is kept under the node.
    """
    values = built.get(expr)
    if values is None:
        form = _form(_RINGS, expr)
        values = []
        for kind, arg in zip(_kinds(form, expr), expr[1:]):
            if kind == "ring":
                values.append(walk(arg, built))
            elif kind == "base":
                values.append(build_ring(arg, built))
            elif kind == "mod":
                values.append(_form(_MODULES, arg).build(values[-1], *arg[1:]))
            else:
                values.append(arg)
        values = tuple(values)
        if "base" in form.args:
            built[expr] = values
    return values


def build_ring(expr: RingExpr, built: dict | None = None) -> FiniteRing:
    """Evaluate an expression tree to a ring.

    ``built`` memoises the base ring and bimodule of each ``trivext`` node,
    so that a caller that already projected the order (which builds them)
    does not build them again.
    """
    built = {} if built is None else built
    return _form(_RINGS, expr).build(*_arguments(expr, built, build_ring))


def _order(expr: RingExpr, built: dict, limit: int) -> int:
    form = _form(_RINGS, expr)
    bases = [arg for kind, arg in zip(_kinds(form, expr), expr[1:]) if kind == "base"]
    if any(_order(base, built, limit) > limit for base in bases):
        return limit + 1  # a ring is at least as large as its base: build nothing
    values = _arguments(expr, built, lambda sub, memo: _order(sub, memo, limit))
    return min(form.order(limit, *values), limit + 1)


def projected_order(expr: RingExpr, built: dict | None = None) -> int:
    """Order of the resulting ring, computed before building it.

    Exact up to ``order_cap()``; past the cap the rules stop multiplying
    and the result is ``order_cap() + 1``.  Only a ``trivext`` node inside
    the cap builds anything: its base ring and bimodule, which are kept in
    ``built`` when given.  A ``tables(PATH)`` file whose header declares an
    extension past the cap raises ``OrderCapExceeded`` instead.
    """
    return _order(expr, {} if built is None else built, order_cap())


def _over_cap() -> OrderCapExceeded:
    return OrderCapExceeded(
        f"projected order exceeds the cap {order_cap()}; raise RING_ORDER_CAP to allow it")


def _build_checked(expr: RingExpr, built: dict | None = None) -> FiniteRing:
    built = {} if built is None else built
    if projected_order(expr, built) > order_cap():
        raise _over_cap()
    return build_ring(expr, built)


def default_corpus(max_order: int) -> list[str]:
    """The built-in expression corpus, capped at the given ring order."""
    from .rings import _is_prime

    primes = [p for p in range(2, 65) if _is_prime(p)]
    exprs: list[str] = []
    for n in range(2, 65):
        if n <= max_order:
            exprs.append(f"z{n}")
    for p in primes:
        n = 2
        while p**n <= max_order:
            exprs.append(f"poly(z{p},{n})")
            n += 1
    for p, k in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)):
        q = p**k
        if q > 64:
            continue
        n = 2
        while q**n <= max_order:
            exprs.append(f"poly(gf({p},{k}),{n})")
            n += 1
    for n in range(2, 65):
        for d in range(1, n):
            if n % d == 0 and n * (n // d) <= max_order:
                exprs.append(f"trivext(z{n},ideal({d}))")
    for base in (2, 3, 4):
        for k in (2, 3):
            if base ** (k * k) <= max_order:
                exprs.append(f"mat(z{base},{k})")
            if base ** (k * (k + 1) // 2) <= max_order:
                exprs.append(f"tri(z{base},{k})")
    return exprs


def _flag_payload(flag: Flag) -> dict | None:
    payload: dict = {}
    if flag.witness is not None:
        payload["witness"] = flag.witness
    if flag.counterexample is not None:
        payload["counterexample"] = flag.counterexample
    if flag.note is not None:
        payload["note"] = flag.note
    return payload or None


def profile_records(expression: str, profile: ClassProfile) -> list[dict]:
    """Flatten a classification into fixed-key records, one per predicate."""
    records = [{"expression": expression, "predicate": "order",
                "status": str(profile.order), "witness": None}]
    for name, flag in profile.flags.items():
        records.append({"expression": expression, "predicate": name,
                        "status": flag.text, "witness": _flag_payload(flag)})
    return records


def _report_record(expression: str, report: VerificationReport) -> dict:
    return {"expression": expression, "predicate": report.theorem,
            "status": report.status, "witness": report.details or None}


def _verify_suite(expr: RingExpr, ring: FiniteRing, only: str | None,
                  built: dict) -> list[VerificationReport]:
    from .verify import (RING_THEOREMS, TrivialExtensionCase, verify_extension_heredity,
                         verify_triangular_example_identity)

    available: dict[str, Callable[[], VerificationReport]] = {
        name: (lambda fn=fn: fn(ring)) for name, fn in RING_THEOREMS.items()
    }
    if expr[0] == "trivext":
        case = TrivialExtensionCase(*built[expr], extension=ring)
        available["extension_heredity"] = lambda: verify_extension_heredity(case)
    if serialize_ring_expr(expr) == "tri(z2,2)":
        available["triangular_example_identity"] = verify_triangular_example_identity
    if only is not None:
        if only not in available:
            raise ValueError(
                f"unknown theorem {only!r}; choose from {', '.join(sorted(available))}")
        return [available[only]()]
    return [available[name]() for name in available]


def _emit(records: list[dict], as_json: bool, human: Callable[[], str]) -> int:
    """Print ``records`` and return the exit status every command shares."""
    if as_json:
        for record in records:
            print(json.dumps(record, ensure_ascii=False))
    else:
        print(human())
    return 1 if any(r["status"] in ("refuted", "mismatch") for r in records) else 0


def _human_table(rows: list[Sequence[str]]) -> str:
    widths = [max(len(str(row[col])) for row in rows)
              for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows)


def _fmt_witness(witness: dict | None) -> str:
    if not witness:
        return ""
    return json.dumps(witness, ensure_ascii=False)


def _ring_table(expression: str, header: tuple[str, str, str], records: list[dict]) -> str:
    rows = [header] + [(r["predicate"], r["status"], _fmt_witness(r["witness"]))
                       for r in records]
    return f"ring {expression}\n" + _human_table(rows)


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import classify_ring

    expr = parse_ring_expr(args.expression)
    ring = _build_checked(expr)
    expression = serialize_ring_expr(expr)
    records = profile_records(expression, classify_ring(ring))
    return _emit(records, args.json,
                 lambda: _ring_table(expression, ("predicate", "status", "witness"), records))


def _cmd_verify(args: argparse.Namespace) -> int:
    expr = parse_ring_expr(args.expression)
    built: dict = {}
    ring = _build_checked(expr, built)
    expression = serialize_ring_expr(expr)
    reports = _verify_suite(expr, ring, args.theorem, built)
    records = [_report_record(expression, report) for report in reports]
    return _emit(records, args.json,
                 lambda: _ring_table(expression, ("theorem", "status", "details"), records))


_EXAMPLE_TABLE: list[tuple[str, str, str]] = [
    ("z4", "left_morphic", "true"),
    ("z4", "right_morphic", "true"),
    ("trivext(z4,ideal(2))", "left_morphic", "true"),
    ("trivext(z4,ideal(2))", "right_morphic", "true"),
    ("trivext(z4,self)", "left_generalized_morphic", "false"),
    ("trivext(z4,self)", "left_pseudo_morphic", "false"),
    ("poly(z4,2)", "left_generalized_morphic", "false"),
    ("poly(z4,2)", "left_pseudo_morphic", "false"),
    ("poly(z2,2)", "left_pseudo_morphic", "true"),
    ("poly(z2,2)", "symmetric", "true"),
    ("poly(z2,2)", "regular", "false"),
    ("tri(z2,2)", "left_generalized_morphic", "true"),
    ("tri(z2,2)", "left_pseudo_morphic", "false"),
]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn: Callable, items: Sequence, jobs: int) -> Iterable:
    """``fn`` over ``items`` in order: lazily in process, or with ``jobs > 1``
    in a pool of at most ``jobs`` workers, one per item and per usable CPU.

    A pool takes the items in about four chunks per worker: fewer round
    trips than one item each, with room left to balance the load."""
    workers = min(jobs, len(items), _available_cpus())
    if workers <= 1:
        return map(fn, items)
    from concurrent.futures import ProcessPoolExecutor  # a serial run never pays for it

    chunksize = -(-len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _check_corpus_flags(args: argparse.Namespace) -> None:
    """Refuse ``--jobs`` below 1 and ``--max-order`` below 2, the least corpus ring order."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.max_order < 2:
        raise ValueError(f"--max-order must be at least 2, got {args.max_order}")


def _worker_flag(row: tuple[str, str, str]) -> Flag:
    from .classify import PREDICATES

    expression, predicate, _ = row
    return PREDICATES[predicate](_build_checked(parse_ring_expr(expression)))


def _cmd_corpus(args: argparse.Namespace) -> int:
    _check_corpus_flags(args)
    from . import classify  # before _map: forked workers inherit it, not import it each

    rows = [(e, p, s) for e, p, s in _EXAMPLE_TABLE
            if projected_order(parse_ring_expr(e)) <= args.max_order]
    records = []
    for (expression, predicate, expected), flag in zip(rows, _map(_worker_flag, rows, args.jobs)):
        status = "match" if flag.text == expected else "mismatch"
        witness = {"expected": expected, "computed": flag.text}
        if detail := _flag_payload(flag):
            witness["detail"] = detail
        records.append({"expression": expression, "predicate": predicate,
                        "status": status, "witness": witness})

    def human() -> str:
        rows_h = [("expression", "predicate", "expected", "computed", "result")]
        rows_h += [(r["expression"], r["predicate"], r["witness"]["expected"],
                    r["witness"]["computed"], r["status"]) for r in records]
        return _human_table(rows_h)

    return _emit(records, args.json, human)


def _worker_search(expression: str) -> dict | None:
    from .search import _search_hit

    return _search_hit(_build_checked(parse_ring_expr(expression)))


def _cmd_search(args: argparse.Namespace) -> int:
    _check_corpus_flags(args)
    from .search import _search_report  # before _map: forked workers inherit it, not import it each

    expressions = default_corpus(args.max_order)
    # serially, one ring is alive at a time: each is built as the map reaches it
    hits = _map(_worker_search, expressions, args.jobs)
    report = _search_report(zip(expressions, hits))
    records = [_report_record(report.expression, report)]

    def human() -> str:
        details = report.details
        lines = [f"searched {details['rings']} rings "
                 f"(fingerprint {details['fingerprint'][:12]}...): {report.status}"]
        for hit in details["hits"]:
            lines.append(f"  hit: {_fmt_witness(hit)}")
        return "\n".join(lines)

    return _emit(records, args.json, human)


def _cmd_qz(args: argparse.Namespace) -> int:
    from .qz import verify_qz_suite

    report = verify_qz_suite(args.bound)
    records = [_report_record(report.expression, report)]

    def human() -> str:
        return (f"{report.expression} suite at bound {args.bound}: "
                f"{report.status}\n{_fmt_witness(report.details)}")

    return _emit(records, args.json, human)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphring",
        description="Classify finite rings and verify morphic-hierarchy theorems.")
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="full predicate profile of one ring")
    classify.add_argument("expression", help="ring expression, e.g. 'tri(z2,2)'")
    classify.set_defaults(handler=_cmd_classify)

    verify = sub.add_parser("verify", help="run theorem checks on one ring")
    verify.add_argument("expression")
    verify.add_argument("--theorem", default=None,
                        help="run only the named theorem check")
    verify.set_defaults(handler=_cmd_verify)

    corpus = sub.add_parser("corpus",
                            help="diff the built-in example table against "
                                 "computed classifications")
    corpus.set_defaults(handler=_cmd_corpus)

    search = sub.add_parser("search",
                            help="scan the default corpus for a left "
                                 "pseudo-morphic ring that is not quasi-morphic")
    search.set_defaults(handler=_cmd_search)

    qz = sub.add_parser("qz", help="exact Q/Z submodule-lattice suite")
    qz.add_argument("--bound", type=int, required=True)
    qz.set_defaults(handler=_cmd_qz)

    for command in (corpus, search):
        command.add_argument("--max-order", type=int, default=order_cap())
        command.add_argument("--jobs", type=int, default=1)
    for command in (classify, verify, corpus, search, qz):
        command.add_argument("--json", action="store_true",
                             help="line-delimited machine-readable records")
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Run one command line; returns the exit status."""
    try:
        # building the parser reads RING_ORDER_CAP for the --max-order defaults
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        return args.handler(args)
    except (ExprSyntaxError, OrderCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # The engine makes no BLAS call, so OpenBLAS need not start its threads.
    # Set before numpy loads and inherited by pool workers; a value already set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = run_command(sys.argv[1:])
    # A one-shot run holds all it built until exit; the interpreter's final collections
    # skip the frozen generation, and module teardown still frees it by reference count.
    gc.freeze()
    sys.exit(status)
