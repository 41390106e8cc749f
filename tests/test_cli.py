"""Expression grammar, command exit codes, and report determinism."""

import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphring.cli import (
    _MAX_DEPTH,
    ExprSyntaxError,
    _build_checked,
    build_ring,
    default_corpus,
    parse_ring_expr,
    projected_order,
    run_command,
    serialize_ring_expr,
)
from morphring.rings import OrderCapExceeded, _power, order_cap

RECORD_KEYS = ["expression", "predicate", "status", "witness"]


def _records(capsys) -> list[dict]:
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    records = [json.loads(line) for line in lines]
    for record in records:
        assert list(record) == RECORD_KEYS
    return records


def _ring_exprs() -> st.SearchStrategy:
    base = st.one_of(
        st.tuples(st.just("z"), st.integers(1, 64)),
        st.tuples(st.just("gf"), st.sampled_from([2, 3, 5, 7]),
                  st.integers(1, 4)),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        mod = st.one_of(
            st.just(("self",)),
            st.tuples(st.just("ideal"), st.integers(0, 9)),
        )
        return st.one_of(
            st.tuples(st.just("opp"), children),
            st.tuples(st.sampled_from(["mat", "tri", "poly"]), children,
                      st.integers(1, 4)),
            st.builds(lambda fs: ("prod", *fs),
                      st.lists(children, min_size=1, max_size=3)),
            st.tuples(st.just("trivext"), children, mod),
        )

    return st.recursive(base, extend, max_leaves=6)


class TestGrammar:
    @given(expr=_ring_exprs())
    @settings(max_examples=200)
    def test_round_trip(self, expr):
        assert parse_ring_expr(serialize_ring_expr(expr)) == expr

    def test_whitespace_tolerated(self):
        spaced = " trivext( prod( z2 , gf( 2 , 3 ) ) , ideal( 2 ) ) "
        expr = parse_ring_expr(spaced)
        assert serialize_ring_expr(expr) == "trivext(prod(z2,gf(2,3)),ideal(2))"

    def test_tables_path_round_trip(self):
        text = "trivext(z2,tables(/tmp/some file.txt))"
        expr = parse_ring_expr(text)
        assert expr == ("trivext", ("z", 2), ("tables", "/tmp/some file.txt"))
        assert serialize_ring_expr(expr) == text

    @pytest.mark.parametrize("text", [
        "", "z", "zx", "q4", "gf(4)", "mat(z2)", "mat(z2,2",
        "tri(z2,2))", "prod()", "trivext(z4,left(2))", "z4 z6",
        "trivext(z2,tables(unclosed", "opp", "poly(,2)",
    ])
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse_ring_expr(text)
        assert "at position" in str(err.value)
        assert 0 <= err.value.position <= len(text)

    @pytest.mark.parametrize("text,order", [
        ("z12", 12),
        ("gf(3,2)", 9),
        ("prod(z2,z3,z4)", 24),
        ("mat(z2,2)", 16),
        ("tri(z3,2)", 27),
        ("poly(z4,2)", 16),
        ("trivext(z4,ideal(2))", 8),
        ("trivext(z4,self)", 16),
        ("opp(tri(z2,2))", 8),
    ])
    def test_projected_order_matches_built_ring(self, text, order):
        expr = parse_ring_expr(text)
        assert projected_order(expr) == order
        assert build_ring(expr).order == order

    def test_order_cap_enforced_before_building(self):
        with pytest.raises(OrderCapExceeded, match="projected order"):
            _build_checked(parse_ring_expr("mat(z7,3)"))

    def test_saturating_rules_are_exact_below_the_limit(self, monkeypatch):
        for limit in (1, 7, 64, 512, 10**40):
            for base in (*range(7), 255, 256, 257, 513, 10**40):
                for exp in range(14):
                    assert _power(base, exp, limit) == min(base**exp, limit + 1)
        for limit in (7, 64, 512, 10**40):
            monkeypatch.setenv("RING_ORDER_CAP", str(limit))
            for text, exact in (("prod(z3,z1,z5)", 15), ("prod(z9,z9,z9)", 729),
                                ("prod(mat(z2,3),z1)", 512), ("opp(poly(z2,9))", 512),
                                ("prod(gf(2,100),z2)", 2**101), ("tri(z5,4)", 5**10)):
                expected = min(exact, limit + 1)
                assert projected_order(parse_ring_expr(text)) == expected

    @pytest.mark.parametrize("text", ["mat(z3,8000)", "gf(2,100000000)",
                                      "trivext(mat(z3,8000),self)"])
    def test_huge_order_rejected_through_the_bound(self, monkeypatch, capsys, text):
        import morphring.rings as rings

        def refuse(*args, **kwargs):
            pytest.fail("built a ring past the order cap")

        for name in ("make_zmod", "make_gf", "matrix_ring", "regular_bimodule",
                     "trivial_extension"):
            monkeypatch.setattr(rings, name, refuse)
        start = time.perf_counter()
        assert projected_order(parse_ring_expr(text)) == order_cap() + 1
        assert run_command(["classify", text]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: projected order exceeds the cap")
        assert "Traceback" not in err

    def test_nesting_depth_is_bounded(self, capsys):
        deep = "opp(" * 3000 + "z2" + ")" * 3000
        with pytest.raises(ExprSyntaxError, match="nests deeper") as err:
            parse_ring_expr(deep)
        assert err.value.position == 4 * _MAX_DEPTH
        assert run_command(["classify", deep, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expression nests deeper")
        assert "Traceback" not in captured.err
        limit = "opp(" * _MAX_DEPTH + "z2" + ")" * _MAX_DEPTH
        assert serialize_ring_expr(parse_ring_expr(limit)) == limit
        assert build_ring(parse_ring_expr(limit)).order == 2


class TestDefaultCorpus:
    def test_contents_at_cap(self):
        corpus = default_corpus(512)
        assert {f"z{n}" for n in range(2, 65)} <= set(corpus)
        for expected in ("poly(z2,2)", "poly(z2,3)", "poly(gf(2,2),2)",
                         "trivext(z4,ideal(2))", "trivext(z12,ideal(4))",
                         "mat(z2,2)", "tri(z2,2)", "tri(z2,3)", "mat(z4,2)"):
            assert expected in corpus
        assert "mat(z2,3)" in corpus  # order 512 is inside the cap
        assert "tri(z4,3)" not in corpus  # order 4096 is not
        assert len(corpus) == len(set(corpus))
        for text in corpus:
            assert projected_order(parse_ring_expr(text)) <= 512

    def test_max_order_prunes(self):
        small = default_corpus(16)
        assert "z16" in small and "z17" not in small
        assert "mat(z2,2)" in small and "mat(z3,2)" not in small
        assert all(projected_order(parse_ring_expr(t)) <= 16 for t in small)


class TestCommands:
    def test_classify_records(self, capsys):
        assert run_command(["classify", "tri(z2,2)", "--json"]) == 0
        records = _records(capsys)
        assert records[0] == {"expression": "tri(z2,2)", "predicate": "order",
                              "status": "8", "witness": None}
        by_predicate = {r["predicate"]: r for r in records}
        assert by_predicate["left_generalized_morphic"]["status"] == "true"
        assert by_predicate["left_pseudo_morphic"]["status"] == "false"
        assert by_predicate["left_pseudo_morphic"]["witness"] == {
            "counterexample": 2}
        assert len(records) == 30

    def test_classify_human_table(self, capsys):
        assert run_command(["classify", "z4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ring z4\n")
        assert "left_morphic" in out and "true" in out

    def test_parse_error_exits_2(self, capsys):
        assert run_command(["classify", "frob(z2)"]) == 2
        assert "unknown constructor" in capsys.readouterr().err

    def test_cap_violation_exits_2(self, capsys):
        assert run_command(["classify", "mat(z7,3)"]) == 2
        assert "projected order" in capsys.readouterr().err

    def test_order_past_uint16_tables_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("RING_ORDER_CAP", "70000")
        start = time.perf_counter()
        assert run_command(["classify", "z70000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: the integers modulo n would have order above the cap 65536")

    def test_verify_all_theorems(self, capsys):
        assert run_command(["verify", "z12", "--json"]) == 0
        names = [r["predicate"] for r in _records(capsys)]
        assert names == [
            "annihilator_chain_equivalence", "sum_intersection_witnesses",
            "pseudo_morphic_consequences", "pseudo_quasi_equivalence",
            "finite_dual_ring_battery", "regular_criteria",
            "reduced_ring_collapse",
        ]

    def test_verify_single_theorem(self, capsys):
        assert run_command(["verify", "z12", "--theorem",
                            "sum_intersection_witnesses", "--json"]) == 0
        (record,) = _records(capsys)
        assert record["status"] == "verified"
        assert record["witness"]["checked_sum"] == 144

    def test_verify_unknown_theorem_exits_2(self, capsys):
        assert run_command(["verify", "z6", "--theorem", "bogus"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_verify_adds_heredity_for_extensions(self, capsys):
        assert run_command(["verify", "trivext(z2,self)", "--json"]) == 0
        names = [r["predicate"] for r in _records(capsys)]
        assert "extension_heredity" in names

    def test_verify_adds_example_identity_for_t2(self, capsys):
        assert run_command(["verify", "tri(z2,2)", "--json"]) == 0
        by_predicate = {r["predicate"]: r for r in _records(capsys)}
        assert by_predicate["triangular_example_identity"]["status"] == "verified"

    @pytest.mark.parametrize("status, code", [("indeterminate", 0), ("vacuous", 0),
                                              ("verified", 0), ("refuted", 1)])
    def test_verify_exits_1_only_when_refuted(self, capsys, monkeypatch, status, code):
        from morphring import verify
        from morphring.verify import VerificationReport

        stub = VerificationReport("finite_dual_ring_battery", "z4",
                                  status, {"note": "lattice overflow"})
        monkeypatch.setitem(verify.RING_THEOREMS, "finite_dual_ring_battery",
                            lambda R: stub)
        assert run_command(["verify", "z4", "--theorem",
                            "finite_dual_ring_battery", "--json"]) == code
        (record,) = _records(capsys)
        assert record["status"] == status

    def test_corpus_flags_known_mismatch(self, capsys):
        assert run_command(["corpus", "--json"]) == 1
        records = _records(capsys)
        mismatches = {(r["expression"], r["predicate"])
                      for r in records if r["status"] == "mismatch"}
        assert mismatches == {
            ("trivext(z4,ideal(2))", "left_morphic"),
            ("trivext(z4,ideal(2))", "right_morphic"),
        }
        for record in records:
            if record["status"] == "mismatch":
                assert record["witness"]["computed"] == "false"
                assert record["witness"]["expected"] == "true"

    def test_corpus_predicates_are_table_keys(self):
        # a misspelt row would end ``corpus`` in a KeyError, not an exit status
        from morphring.classify import PREDICATES
        from morphring.cli import _EXAMPLE_TABLE

        assert {predicate for _, predicate, _ in _EXAMPLE_TABLE} <= set(PREDICATES)

    def test_corpus_small_cap_all_match(self, capsys):
        assert run_command(["corpus", "--max-order", "4", "--json"]) == 0
        records = _records(capsys)
        assert {r["expression"] for r in records} == {"z4", "poly(z2,2)"}
        assert all(r["status"] == "match" for r in records)

    def test_corpus_deterministic_across_jobs(self, capsys):
        run_command(["corpus", "--json"])
        solo = capsys.readouterr().out
        run_command(["corpus", "--jobs", "2", "--json"])
        assert capsys.readouterr().out == solo

    def test_search_clean_at_64(self, capsys):
        assert run_command(["search", "--max-order", "64", "--json"]) == 0
        (record,) = _records(capsys)
        assert record["predicate"] == "pseudo_not_quasi_search"
        assert record["status"] == "verified"
        assert record["witness"]["hits"] == []
        assert record["witness"]["rings"] == len(default_corpus(64))

    def test_search_deterministic_across_jobs(self, capsys):
        run_command(["search", "--max-order", "64", "--json"])
        solo = capsys.readouterr().out
        run_command(["search", "--max-order", "64", "--jobs", "3", "--json"])
        assert capsys.readouterr().out == solo

    def test_search_exits_1_on_a_confirmed_hit(self, capsys, monkeypatch):
        from morphring import search

        hit = {"expression": "z4", "confirmed": True}
        monkeypatch.setattr(search, "_search_hit",
                            lambda R: hit if R.construction == "z4" else None)
        assert run_command(["search", "--max-order", "16", "--json"]) == 1
        (record,) = _records(capsys)
        assert record["status"] == "refuted"
        assert record["witness"]["hits"] == [hit]

    def test_qz_suite(self, capsys):
        assert run_command(["qz", "--bound", "6", "--json"]) == 0
        (record,) = _records(capsys)
        assert record["expression"] == "Z⋉(Q/Z)"
        assert record["predicate"] == "quotient_module_lattice"
        assert record["status"] == "verified"
        assert record["witness"]["pairs"] == 36

    def test_qz_requires_bound(self, capsys):
        assert run_command(["qz"]) == 2


class TestTablesLoader:
    def _write(self, tmp_path, text):
        path = tmp_path / "bimodule.txt"
        path.write_text(text)
        return str(path)

    def test_regular_bimodule_of_z2(self, tmp_path, capsys):
        path = self._write(tmp_path, "2 2\n0 1\n1 0\n0 0\n0 1\n0 0\n0 1\n")
        expr = parse_ring_expr(f"trivext(z2,tables({path}))")
        ring = build_ring(expr)
        assert ring.order == 4
        # Z2 extended by itself is Z2[x]/(x^2): every element is morphic.
        assert run_command(["classify", f"trivext(z2,tables({path}))",
                            "--json"]) == 0
        by_predicate = {r["predicate"]: r for r in _records(capsys)}
        assert by_predicate["left_morphic"]["status"] == "true"

    def test_order_header_mismatch(self, tmp_path):
        path = self._write(tmp_path, "2 3\n0 1\n1 0\n0 0\n0 1\n0 0\n0 1\n")
        with pytest.raises(ValueError, match="declares ring order 3"):
            build_ring(parse_ring_expr(f"trivext(z2,tables({path}))"))

    def test_entry_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "2 2\n0 1\n1 0\n0 0\n")
        with pytest.raises(ValueError, match="expected 12"):
            build_ring(parse_ring_expr(f"trivext(z2,tables({path}))"))

    def test_invalid_action_rejected(self, tmp_path, capsys):
        # Left action sends 1*m1 to m0: not a unital action.
        path = self._write(tmp_path, "2 2\n0 1\n1 0\n0 0\n0 0\n0 0\n0 1\n")
        with pytest.raises(ValueError, match="fails"):
            build_ring(parse_ring_expr(f"trivext(z2,tables({path}))"))
        assert run_command(["classify", f"trivext(z2,tables({path}))"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: invalid bimodule: left_action_unital fails at (1,)"

    def test_bimodule_checked_once_after_the_order_cap(self, tmp_path, monkeypatch, capsys):
        import morphring.rings as rings

        calls = []
        real = rings.check_bimodule
        monkeypatch.setattr(rings, "check_bimodule", lambda *a: calls.append(a) or real(*a))
        text = f"trivext(z2,tables({self._write(tmp_path, '2 2 0 1 1 0 0 0 0 1 0 0 0 1')}))"
        assert run_command(["classify", text, "--json"]) == 0
        assert len(calls) == 1
        capsys.readouterr()
        calls.clear()
        monkeypatch.setenv("RING_ORDER_CAP", "3")
        assert run_command(["classify", text, "--json"]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: projected order exceeds the cap 3")

    @pytest.mark.parametrize("body, line", [
        ("0 1\n1 2\n0 0\n0 1\n0 0\n0 1\n", "module addition entries must lie in [0, 2)"),
        ("0 1\n1 0\n0 0\n-1 1\n0 0\n0 1\n", "left action entries must lie in [0, 2)"),
        ("0 1\n1 0\n0 0\n70000 1\n0 0\n0 1\n", "left action entries must lie in [0, 2)"),
        (f"0 1\n1 0\n0 0\n{10 ** 23} 1\n0 0\n0 1\n", "left action entries must lie in [0, 2)"),
        ("0 1\n1 0\n0 0\nx 1\n0 0\n0 1\n", "invalid literal for int() with base 10: 'x'"),
    ], ids=["addition", "left action", "past uint16", "past int64", "not an integer"])
    def test_entry_out_of_range_exits_2(self, tmp_path, capsys, body, line):
        path = self._write(tmp_path, "2 2\n" + body)
        assert run_command(["classify", f"trivext(z2,tables({path}))"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    def test_no_additive_identity(self, tmp_path, capsys):
        path = self._write(tmp_path, "2 2\n1 1\n1 1\n0 0\n0 1\n0 0\n0 1\n")
        text = f"trivext(z2,tables({path}))"
        with pytest.raises(ValueError, match="no additive identity"):
            build_ring(parse_ring_expr(text))
        assert run_command(["classify", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err

    def test_over_cap_header_refused_before_the_body(self, tmp_path, capsys):
        # a header for a 1024-element module over z2 and no body at all
        path = self._write(tmp_path, "1024 2\n")
        assert run_command(["classify", f"trivext(z2,tables({path}))", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: projected order exceeds the cap {order_cap()}")

    def test_missing_file_exits_2(self, capsys):
        assert run_command(["classify", "trivext(z2,tables(/nonexistent))"]) == 2
        assert "error:" in capsys.readouterr().err


# SHA-256 of the concatenated ``classify --json`` stdout over
# ``default_corpus(128)``, recorded with the earlier tuple-of-tuples table
# core; a change to any record of any of the 155 rings changes it.
CLASSIFY_CORPUS_128_SHA256 = "cc789e75f5c6e4cb38a9a0ae09fe14cb3e103369fb6e65bfc56ef888496f9514"
# The same digest of ``verify --json`` over the same rings, recorded with
# the element-indexed side tables, before they became class ids.
VERIFY_CORPUS_128_SHA256 = "f087075628d6656ae29e41df93b8ba4873bc184cf022d60e597f72fe7bc51b64"


# The same two digests over the 84 rings of ``default_corpus(512)`` that are
# not in ``default_corpus(128)``, recorded before the f.g. theorem checks
# read the side lattice.
CORPUS_512_REST_SHA256 = {
    "classify": "e98fa1bc1ddd1e91aab43b91b7387d2757ba053b634ab23aec6b923b3a0aa311",
    "verify": "b46fd9acfd3f1af280030b0f2ed2c9da4076911592e0e71cc499a529992551a7",
}


def test_classify_records_golden_over_corpus_128(capsys):
    digest = hashlib.sha256()
    for text in default_corpus(128):
        assert run_command(["classify", text, "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CLASSIFY_CORPUS_128_SHA256


def test_verify_records_golden_over_corpus_128(capsys):
    digest = hashlib.sha256()
    for text in default_corpus(128):
        assert run_command(["verify", text, "--json"]) == 0, text
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == VERIFY_CORPUS_128_SHA256


@pytest.mark.parametrize("command", sorted(CORPUS_512_REST_SHA256))
def test_records_golden_over_the_rest_of_corpus_512(capsys, command):
    small = set(default_corpus(128))
    rest = [text for text in default_corpus(512) if text not in small]
    assert len(rest) == 84
    digest = hashlib.sha256()
    for text in rest:
        assert run_command([command, text, "--json"]) == 0, text
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CORPUS_512_REST_SHA256[command]


# classify and verify --json over four rings whose lattices overflow a small
# IDEAL_LATTICE_CAP: Bezout is decided anyway, the lattice flags are indeterminate
OVERFLOW_RINGS = ("tri(z2,3)", "poly(z4,2)", "prod(z2,z2,z2,z2,z2,z2)", "trivext(z8,ideal(2))")
OVERFLOW_SHA256 = {
    "5": "6fa3a4cb6c0e219ec3dde6044d13fa8838fcde39d41e3b79f7153a554e044959",
    "100": "ad9f1fb4c5ce6fbbaef17e06fafe1135c49cce8f658a7c3dc9285141f8f0b6ee",
}


@pytest.mark.parametrize("cap", sorted(OVERFLOW_SHA256))
def test_records_golden_under_lattice_overflow(monkeypatch, capsys, cap):
    monkeypatch.setenv("IDEAL_LATTICE_CAP", cap)
    digest = hashlib.sha256()
    for text in OVERFLOW_RINGS:
        for command in ("classify", "verify"):
            assert run_command([command, text, "--json"]) == 0, (command, text)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == OVERFLOW_SHA256[cap]


@pytest.mark.parametrize("argv", [["qz", "--bound", "4"],
                                  ["search", "--max-order", "4"],
                                  ["classify", "z2"]])
def test_malformed_order_cap_env_exits_2(monkeypatch, capsys, argv):
    monkeypatch.setenv("RING_ORDER_CAP", "abc")
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RING_ORDER_CAP must be a positive integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_trivext_base_and_bimodule_built_once(monkeypatch, capsys, command):
    import morphring.rings as rings

    built = []
    for name in ("make_zmod", "ideal_bimodule"):
        real = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda *a, real=real, name=name:
                            built.append(name) or real(*a))
    run_command([command, "trivext(z4,ideal(2))", "--json"])
    assert len(_records(capsys)) > 1
    assert built == ["make_zmod", "ideal_bimodule"]


def test_verify_trivext_builds_the_extension_once(monkeypatch, capsys):
    import morphring.rings as rings
    import morphring.verify as verify

    calls = []
    real = rings.trivial_extension

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rings, "trivial_extension", counted)
    monkeypatch.setattr(verify, "trivial_extension", counted)
    assert run_command(["verify", "trivext(z8,ideal(2))", "--json"]) == 0
    names = [r["predicate"] for r in _records(capsys)]
    assert "extension_heredity" in names
    assert len(calls) == 1


def test_map_bounds_the_worker_count(monkeypatch, capsys):
    import concurrent.futures

    import morphring.cli as cli

    pools, chunks = [], []

    class FakePool:
        """Records its size and chunk size and maps in process; starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
    assert list(cli._map(str, [1, 2, 3], 1)) == ["1", "2", "3"]
    assert pools == []
    assert list(cli._map(str, [1, 2, 3], 100000)) == ["1", "2", "3"]
    assert run_command(["search", "--max-order", "16", "--jobs", "100000",
                        "--json"]) == 0
    assert pools == [3, 4]
    # about four chunks per worker: 3 items over 3 workers, then the corpus over 4
    assert chunks == [1, -(-len(default_corpus(16)) // 16)]
    (record,) = _records(capsys)
    assert record["witness"]["rings"] == len(default_corpus(16))


@pytest.mark.parametrize("command", ["search", "corpus"])
@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-2"],
                                   ["--max-order", "1"], ["--max-order", "-1"]],
                         ids=" ".join)
def test_counts_below_their_least_value_exit_2_before_any_work(monkeypatch, capsys,
                                                               command, flags):
    import morphring.cli as cli

    def refuse(*args, **kwargs):
        pytest.fail("started work on a refused flag")

    for name in ("default_corpus", "projected_order", "_map"):
        monkeypatch.setattr(cli, name, refuse)
    assert run_command([command, *flags, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {flags[0]} must be at least ")
    monkeypatch.undo()
    assert run_command([command, "--max-order", "2", "--jobs", "1", "--json"]) == 0
