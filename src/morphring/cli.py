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
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from .classify import ClassProfile, Flag, classify_ring, ring_morphic_profile
from .qz import verify_qz_suite
from .rings import (
    BimoduleSpec,
    FiniteRing,
    OrderCapExceeded,
    check_bimodule,
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
from .verify import (
    TrivialExtensionCase,
    VerificationReport,
    search_counterexample,
    verify_extension_heredity,
    verify_finite_qf,
    verify_lemma_equivalences,
    verify_pseudo_consequences,
    verify_quasi_equivalence,
    verify_reduced_equivalences,
    verify_regular_criteria,
    verify_triangular_example_identity,
    verify_witness_identities,
)

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


class ExprSyntaxError(ValueError):
    """Raised with a position when an expression fails to parse."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str) -> None:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def _identifier(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected a constructor name", start)
        return self.text[start:self.pos]

    def parse(self) -> RingExpr:
        expr = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("unexpected trailing input", self.pos)
        return expr

    def _expr(self) -> RingExpr:
        start = self.pos
        name = self._identifier()
        if name == "z":
            return ("z", self._integer())
        if name == "gf":
            self._expect("(")
            p = self._integer()
            self._expect(",")
            k = self._integer()
            self._expect(")")
            return ("gf", p, k)
        if name == "prod":
            self._expect("(")
            factors = [self._expr()]
            while True:
                self._skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ",":
                    self.pos += 1
                    factors.append(self._expr())
                else:
                    break
            self._expect(")")
            return ("prod", *factors)
        if name in ("mat", "tri", "poly"):
            self._expect("(")
            base = self._expr()
            self._expect(",")
            size = self._integer()
            self._expect(")")
            return (name, base, size)
        if name == "trivext":
            self._expect("(")
            base = self._expr()
            self._expect(",")
            mod = self._mod()
            self._expect(")")
            return ("trivext", base, mod)
        if name == "opp":
            self._expect("(")
            inner = self._expr()
            self._expect(")")
            return ("opp", inner)
        raise ExprSyntaxError(f"unknown constructor {name!r}", start)

    def _mod(self) -> tuple:
        start = self.pos
        name = self._identifier()
        if name == "self":
            return ("self",)
        if name == "ideal":
            self._expect("(")
            d = self._integer()
            self._expect(")")
            return ("ideal", d)
        if name == "tables":
            self._expect("(")
            end = self.text.find(")", self.pos)
            if end < 0:
                raise ExprSyntaxError("unterminated tables path", self.pos)
            path = self.text[self.pos:end].strip()
            if not path:
                raise ExprSyntaxError("empty tables path", self.pos)
            self.pos = end + 1
            return ("tables", path)
        raise ExprSyntaxError(f"unknown bimodule form {name!r}", start)


def parse_ring_expr(text: str) -> RingExpr:
    """Parse an expression into its tuple syntax tree."""
    return _Parser(text).parse()


def serialize_ring_expr(expr: RingExpr) -> str:
    """Canonical text form; ``parse_ring_expr`` inverts it exactly."""
    head = expr[0]
    if head == "z":
        return f"z{expr[1]}"
    if head == "gf":
        return f"gf({expr[1]},{expr[2]})"
    if head == "prod":
        return "prod(" + ",".join(serialize_ring_expr(e) for e in expr[1:]) + ")"
    if head in ("mat", "tri", "poly"):
        return f"{head}({serialize_ring_expr(expr[1])},{expr[2]})"
    if head == "trivext":
        mod = expr[2]
        if mod[0] == "self":
            mod_text = "self"
        elif mod[0] == "ideal":
            mod_text = f"ideal({mod[1]})"
        else:
            mod_text = f"tables({mod[1]})"
        return f"trivext({serialize_ring_expr(expr[1])},{mod_text})"
    if head == "opp":
        return f"opp({serialize_ring_expr(expr[1])})"
    raise ValueError(f"unknown expression head {head!r}")


def _load_bimodule_tables(path: str, base: FiniteRing) -> BimoduleSpec:
    """Read a bimodule from a whitespace-separated table file.

    Format: first line ``m |R|``, then an m-by-m addition table, an
    |R|-by-m left action, and an m-by-|R| right action, all as element
    indices.
    """
    with open(path, encoding="utf-8") as handle:
        numbers = [int(tok) for tok in handle.read().split()]
    if len(numbers) < 2:
        raise ValueError(f"table file {path!r} is missing its header")
    m, ring_order = numbers[0], numbers[1]
    if ring_order != base.order:
        raise ValueError(
            f"table file {path!r} declares ring order {ring_order}, "
            f"but the base ring has order {base.order}")
    body = numbers[2:]
    expected = m * m + base.order * m + m * base.order
    if len(body) != expected:
        raise ValueError(
            f"table file {path!r} has {len(body)} entries, expected {expected}")
    add = tuple(tuple(body[i * m:(i + 1) * m]) for i in range(m))
    offset = m * m
    left = tuple(tuple(body[offset + r * m:offset + (r + 1) * m])
                 for r in range(base.order))
    offset += base.order * m
    right = tuple(tuple(body[offset + i * base.order:offset + (i + 1) * base.order])
                  for i in range(m))
    zero = next(e for e in range(m) if all(add[e][x] == x for x in range(m)))
    spec = BimoduleSpec(
        order=m, add_table=add, left_action=left, right_action=right,
        zero=zero, labels=tuple(f"m{i}" for i in range(m)),
        description=f"tables({path})")
    check = check_bimodule(base, spec, base)
    if not check.ok:
        raise ValueError(f"table file {path!r} fails {check.axiom} at {check.witness}")
    return spec


def _build_bimodule(mod: tuple, base: FiniteRing) -> BimoduleSpec:
    if mod[0] == "self":
        return regular_bimodule(base)
    if mod[0] == "ideal":
        return ideal_bimodule(base, mod[1])
    return _load_bimodule_tables(mod[1], base)


def _trivext_parts(expr: RingExpr, built: dict) -> tuple[FiniteRing, BimoduleSpec]:
    """Base ring and bimodule of a ``trivext`` node, built once per ``built`` memo."""
    parts = built.get(expr)
    if parts is None:
        base = build_ring(expr[1], built)
        parts = built[expr] = (base, _build_bimodule(expr[2], base))
    return parts


def build_ring(expr: RingExpr, built: dict | None = None) -> FiniteRing:
    """Evaluate an expression tree to a ring.

    ``built`` memoises the base ring and bimodule of each ``trivext`` node,
    so that a caller that already projected the order (which builds them)
    does not build them again.
    """
    built = {} if built is None else built
    head = expr[0]
    if head == "z":
        return make_zmod(expr[1])
    if head == "gf":
        return make_gf(expr[1], expr[2])
    if head == "prod":
        return direct_product([build_ring(e, built) for e in expr[1:]])
    if head == "mat":
        return matrix_ring(build_ring(expr[1], built), expr[2])
    if head == "tri":
        return matrix_ring(build_ring(expr[1], built), expr[2], shape="lower_triangular")
    if head == "poly":
        return truncated_poly(build_ring(expr[1], built), expr[2])
    if head == "trivext":
        return trivial_extension(*_trivext_parts(expr, built))
    if head == "opp":
        return opposite(build_ring(expr[1], built))
    raise ValueError(f"unknown expression head {head!r}")


def projected_order(expr: RingExpr, built: dict | None = None) -> int:
    """Order of the resulting ring, computed before building it.

    Only a ``trivext`` node builds anything: its base ring and bimodule,
    which are kept in ``built`` when given.
    """
    built = {} if built is None else built
    head = expr[0]
    if head == "z":
        return expr[1]
    if head == "gf":
        return expr[1] ** expr[2]
    if head == "prod":
        total = 1
        for e in expr[1:]:
            total *= projected_order(e, built)
        return total
    if head == "mat":
        return projected_order(expr[1], built) ** (expr[2] * expr[2])
    if head == "tri":
        k = expr[2]
        return projected_order(expr[1], built) ** (k * (k + 1) // 2)
    if head == "poly":
        return projected_order(expr[1], built) ** expr[2]
    if head == "trivext":
        base, bimodule = _trivext_parts(expr, built)
        return base.order * bimodule.order
    if head == "opp":
        return projected_order(expr[1], built)
    raise ValueError(f"unknown expression head {head!r}")


def _build_checked(expr: RingExpr, built: dict | None = None) -> FiniteRing:
    built = {} if built is None else built
    order = projected_order(expr, built)
    cap = order_cap()
    if order > cap:
        raise OrderCapExceeded(
            f"projected order {order} exceeds the cap {cap}; "
            f"raise RING_ORDER_CAP to allow it")
    return build_ring(expr, built)


def default_corpus(max_order: int) -> list[str]:
    """The built-in expression corpus, capped at the given ring order."""
    primes = [p for p in range(2, 65)
              if p > 1 and all(p % q for q in range(2, p)) and p * p <= 4096]
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
    named: list[tuple[str, Flag]] = []
    for hierarchy in (profile.morphic.left, profile.morphic.right):
        prefix = hierarchy.side.value
        named.extend([
            (f"{prefix}_pseudo_morphic", hierarchy.pseudo),
            (f"{prefix}_generalized_morphic", hierarchy.generalized),
            (f"{prefix}_quasi_morphic", hierarchy.quasi),
            (f"{prefix}_morphic", hierarchy.morphic),
        ])
    for group in (profile.regularity, profile.commutation, profile.structural):
        named.extend((name, getattr(group, name))
                     for name in group.__dataclass_fields__)
    for name, flag in named:
        records.append({"expression": expression, "predicate": name,
                        "status": flag.text, "witness": _flag_payload(flag)})
    return records


def _report_record(expression: str, report: VerificationReport) -> dict:
    return {"expression": expression, "predicate": report.theorem,
            "status": report.status, "witness": report.details or None}


_RING_THEOREMS: dict[str, Callable[[FiniteRing], VerificationReport]] = {
    "annihilator_chain_equivalence": verify_lemma_equivalences,
    "sum_intersection_witnesses": verify_witness_identities,
    "pseudo_morphic_consequences": verify_pseudo_consequences,
    "pseudo_quasi_equivalence": verify_quasi_equivalence,
    "finite_dual_ring_battery": verify_finite_qf,
    "regular_criteria": verify_regular_criteria,
    "reduced_ring_collapse": verify_reduced_equivalences,
}


def _verify_suite(expr: RingExpr, ring: FiniteRing, only: str | None,
                  built: dict) -> list[VerificationReport]:
    available: dict[str, Callable[[], VerificationReport]] = {
        name: (lambda fn=fn: fn(ring)) for name, fn in _RING_THEOREMS.items()
    }
    if expr[0] == "trivext":
        case = TrivialExtensionCase(*_trivext_parts(expr, built))
        available["extension_heredity"] = lambda: verify_extension_heredity(case)
    if serialize_ring_expr(expr) == "tri(z2,2)":
        available["triangular_example_identity"] = verify_triangular_example_identity
    if only is not None:
        if only not in available:
            raise ValueError(
                f"unknown theorem {only!r}; choose from {', '.join(sorted(available))}")
        return [available[only]()]
    return [available[name]() for name in available]


def _emit(records: list[dict], as_json: bool,
          human: Callable[[], str], out=None) -> None:
    stream = out or sys.stdout
    if as_json:
        for record in records:
            print(json.dumps(record, ensure_ascii=False), file=stream)
    else:
        print(human(), file=stream)


def _human_table(rows: list[Sequence[str]]) -> str:
    if not rows:
        return "(no rows)"
    widths = [max(len(str(row[col])) for row in rows)
              for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows)


def _fmt_witness(witness: dict | None) -> str:
    if not witness:
        return ""
    return json.dumps(witness, ensure_ascii=False)


def _cmd_classify(args: argparse.Namespace) -> int:
    expr = parse_ring_expr(args.expression)
    ring = _build_checked(expr)
    expression = serialize_ring_expr(expr)
    records = profile_records(expression, classify_ring(ring))

    def human() -> str:
        rows = [("predicate", "status", "witness")]
        rows += [(r["predicate"], r["status"], _fmt_witness(r["witness"]))
                 for r in records]
        return f"ring {expression}\n" + _human_table(rows)

    _emit(records, args.json, human)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    expr = parse_ring_expr(args.expression)
    built: dict = {}
    ring = _build_checked(expr, built)
    expression = serialize_ring_expr(expr)
    reports = _verify_suite(expr, ring, args.theorem, built)
    records = [_report_record(expression, report) for report in reports]

    def human() -> str:
        rows = [("theorem", "status", "details")]
        rows += [(r["predicate"], r["status"], _fmt_witness(r["witness"]))
                 for r in records]
        return f"ring {expression}\n" + _human_table(rows)

    _emit(records, args.json, human)
    return 1 if any(r["status"] == "refuted" for r in records) else 0


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


def _worker_classify(expression: str) -> tuple[str, list[dict]]:
    ring = _build_checked(parse_ring_expr(expression))
    return expression, profile_records(expression, classify_ring(ring))


def _cmd_corpus(args: argparse.Namespace) -> int:
    rows = [(e, p, s) for e, p, s in _EXAMPLE_TABLE
            if projected_order(parse_ring_expr(e)) <= args.max_order]
    expressions = sorted({e for e, _, _ in rows})
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            computed = dict(pool.map(_worker_classify, expressions))
    else:
        computed = dict(_worker_classify(e) for e in expressions)
    by_key = {(expr, r["predicate"]): r
              for expr, records in computed.items() for r in records}
    records = []
    for expression, predicate, expected in rows:
        actual = by_key[(expression, predicate)]
        status = "match" if actual["status"] == expected else "mismatch"
        witness = {"expected": expected, "computed": actual["status"]}
        if actual["witness"]:
            witness["detail"] = actual["witness"]
        records.append({"expression": expression, "predicate": predicate,
                        "status": status, "witness": witness})

    def human() -> str:
        rows_h = [("expression", "predicate", "expected", "computed", "result")]
        rows_h += [(r["expression"], r["predicate"], r["witness"]["expected"],
                    r["witness"]["computed"], r["status"]) for r in records]
        return _human_table(rows_h)

    _emit(records, args.json, human)
    return 1 if any(r["status"] == "mismatch" for r in records) else 0


def _worker_search(expression: str) -> dict | None:
    from .verify import _search_hit

    return _search_hit(_build_checked(parse_ring_expr(expression)))


def _cmd_search(args: argparse.Namespace) -> int:
    expressions = default_corpus(args.max_order)
    if args.jobs > 1:
        import hashlib

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            hits = [h for h in pool.map(_worker_search, expressions) if h]
        fingerprint = hashlib.sha256(
            "\n".join(sorted(expressions)).encode()).hexdigest()
        status = "refuted" if any(h["confirmed"] for h in hits) else "verified"
        report = VerificationReport(
            "pseudo_not_quasi_search", f"corpus[{len(expressions)}]", status,
            {"rings": len(expressions), "fingerprint": fingerprint, "hits": hits},
            0.0)
    else:
        # one ring alive at a time: each is built as the search reaches it
        report = search_counterexample(
            _build_checked(parse_ring_expr(e)) for e in expressions)
    records = [_report_record(report.expression, report)]

    def human() -> str:
        details = report.details
        lines = [f"searched {details['rings']} rings "
                 f"(fingerprint {details['fingerprint'][:12]}...): {report.status}"]
        for hit in details["hits"]:
            lines.append(f"  hit: {_fmt_witness(hit)}")
        return "\n".join(lines)

    _emit(records, args.json, human)
    return 1 if report.status == "refuted" else 0


def _cmd_qz(args: argparse.Namespace) -> int:
    report = verify_qz_suite(args.bound)
    records = [_report_record(report.expression, report)]

    def human() -> str:
        return (f"{report.expression} suite at bound {args.bound}: "
                f"{report.status}\n{_fmt_witness(report.details)}")

    _emit(records, args.json, human)
    return 1 if report.status == "refuted" else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphring",
        description="Classify finite rings and verify morphic-hierarchy theorems.")
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="full predicate profile of one ring")
    classify.add_argument("expression", help="ring expression, e.g. 'tri(z2,2)'")
    classify.add_argument("--json", action="store_true",
                          help="line-delimited machine-readable records")
    classify.set_defaults(handler=_cmd_classify)

    verify = sub.add_parser("verify", help="run theorem checks on one ring")
    verify.add_argument("expression")
    verify.add_argument("--theorem", default=None,
                        help="run only the named theorem check")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    corpus = sub.add_parser("corpus",
                            help="diff the built-in example table against "
                                 "computed classifications")
    corpus.add_argument("--max-order", type=int, default=order_cap())
    corpus.add_argument("--jobs", type=int, default=1)
    corpus.add_argument("--json", action="store_true")
    corpus.set_defaults(handler=_cmd_corpus)

    search = sub.add_parser("search",
                            help="scan the default corpus for a left "
                                 "pseudo-morphic ring that is not quasi-morphic")
    search.add_argument("--max-order", type=int, default=order_cap())
    search.add_argument("--jobs", type=int, default=1)
    search.add_argument("--json", action="store_true")
    search.set_defaults(handler=_cmd_search)

    qz = sub.add_parser("qz", help="exact Q/Z submodule-lattice suite")
    qz.add_argument("--bound", type=int, required=True)
    qz.add_argument("--json", action="store_true")
    qz.set_defaults(handler=_cmd_qz)

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
    sys.exit(run_command(sys.argv[1:]))
