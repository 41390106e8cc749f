"""Exact-arithmetic tests for the Q/Z submodule lattice and Z⋉(Q/Z)."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphring import qz
from morphring.cli import run_command
from morphring.qz import (
    FULL,
    CyclicSub,
    QFrac,
    TEIdeal,
    _grid_mask,
    _sumset,
    base_annihilator,
    cyclic_submodule,
    lattice_meet_join,
    submodule_leq,
    te_left_annihilator,
    te_morphic_witness,
    te_principal_ideal,
    te_product,
    verify_qz_suite,
)


def test_qfrac_canonical_form():
    assert QFrac(3, 6) == QFrac(1, 2)
    assert QFrac(-1, 3) == QFrac(2, 3)
    assert QFrac(1, -2) == QFrac(1, 2)
    assert QFrac(0, 7) == QFrac(0, 1)
    assert QFrac(5, 1).is_zero
    assert QFrac(7, 3) == QFrac(1, 3)
    assert str(QFrac(2, 4)) == "1/2"
    assert str(QFrac(0, 1)) == "0"


def test_qfrac_value_behaviour():
    q = QFrac(6, -8)
    assert (q.num, q.den) == (1, 4)
    assert q == QFrac(num=1, den=4) and q != QFrac(3, 4)
    assert q != (1, 4) and q != Fraction(1, 4)
    assert hash(q) == hash(QFrac(5, 4)) == hash((1, 4))
    assert len({QFrac(v, 12) for v in range(24)}) == 12
    assert repr(q) == "QFrac(num=1, den=4)"
    assert (str(q), str(QFrac(4, 4))) == ("1/4", "0")
    for copied in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(copied) is QFrac and copied == q
    for change in (lambda: setattr(q, "num", 3), lambda: delattr(q, "den"),
                   lambda: setattr(q, "extra", 1)):
        with pytest.raises(FrozenInstanceError):
            change()
    assert (q.num, q.den) == (1, 4)


def test_canonical_constructor_builds_what_the_reducing_one_does():
    fracs = qz._module_fracs(30)
    assert len(set(fracs)) == len(fracs)
    assert set(fracs) == {QFrac(n, d) for d in range(1, 31) for n in range(d)}
    for q in fracs:
        assert (q.num, q.den) == (QFrac(q.num, q.den).num, QFrac(q.num, q.den).den)
        assert ((-q).num, (-q).den) == (QFrac(-q.num, q.den).num, QFrac(-q.num, q.den).den)
    for grid in range(1, 61):
        cells = qz._grid_fracs(grid)
        assert [(c.num, c.den) for c in cells] == [
            (QFrac(v, grid).num, QFrac(v, grid).den) for v in range(grid)]
    for n in (1, -1):
        assert te_morphic_witness(n, QFrac(1, 3)) == (0, QFrac(0, 1))
        assert te_morphic_witness(n, QFrac(1, 3))[1].den == 1


def test_qfrac_rejects_zero_denominator():
    with pytest.raises(ValueError, match="denominator"):
        QFrac(1, 0)


def test_qfrac_arithmetic():
    assert QFrac(1, 2) + QFrac(1, 3) == QFrac(5, 6)
    assert QFrac(1, 2) + QFrac(1, 2) == QFrac(0, 1)
    assert -QFrac(1, 3) == QFrac(2, 3)
    assert QFrac(1, 5).scale(3) == QFrac(3, 5)
    assert QFrac(1, 5).scale(5).is_zero
    assert QFrac(1, 5).scale(-1) == QFrac(4, 5)


@given(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6).filter(bool))
def test_qfrac_canonical_invariants(num, den):
    q = QFrac(num, den)
    assert 0 <= q.num < q.den
    assert gcd(q.num, q.den) == 1
    assert q.is_zero == (q.den == 1)
    assert Fraction(q.num, q.den) == Fraction(num, den) % 1


@given(st.integers(-99, 99), st.integers(1, 60), st.integers(-99, 99),
       st.integers(1, 60))
def test_qfrac_addition_matches_fractions(n1, d1, n2, d2):
    a, b = QFrac(n1, d1), QFrac(n2, d2)
    total = a + b
    assert Fraction(total.num, total.den) == (Fraction(n1, d1) + Fraction(n2, d2)) % 1
    assert a + b == b + a
    assert (a + -a).is_zero


def test_cyclic_submodule_examples():
    assert cyclic_submodule(3, 6) == CyclicSub(2)
    assert cyclic_submodule(1, 5) == CyclicSub(5)
    assert cyclic_submodule(0, 7) == CyclicSub(1)
    with pytest.raises(ValueError, match="denominator"):
        cyclic_submodule(1, 0)


def test_cyclic_sub_validation_and_str():
    with pytest.raises(ValueError, match="positive"):
        CyclicSub(0)
    assert str(CyclicSub(1)) == "0"
    assert str(CyclicSub(4)) == "(1/4)Z/Z"
    assert str(FULL) == "Q/Z"
    assert repr(FULL) == "Full"


def test_submodule_leq():
    assert submodule_leq(6, 2) is True
    assert submodule_leq(4, 3) is False
    assert submodule_leq(5, 5) is True
    assert submodule_leq(2, 6) is False
    with pytest.raises(ValueError, match="positive"):
        submodule_leq(0, 3)


def test_lattice_meet_join_examples():
    assert lattice_meet_join(4, 6) == (CyclicSub(2), CyclicSub(12))
    assert lattice_meet_join(7, 1) == (CyclicSub(1), CyclicSub(7))
    assert lattice_meet_join(5, 8) == (CyclicSub(1), CyclicSub(40))


def test_lattice_laws_exhaustive():
    bound = 30
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            meet_ab, join_ab = lattice_meet_join(a, b)
            meet_ba, join_ba = lattice_meet_join(b, a)
            assert (meet_ab, join_ab) == (meet_ba, join_ba)
            assert lattice_meet_join(a, a) == (CyclicSub(a), CyclicSub(a))
            assert lattice_meet_join(a, meet_ab.den)[1] == CyclicSub(a)
            assert lattice_meet_join(a, join_ab.den)[0] == CyclicSub(a)
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            for c in range(1, bound + 1, 7):
                m_ab = lattice_meet_join(a, b)[0].den
                m_bc = lattice_meet_join(b, c)[0].den
                assert lattice_meet_join(m_ab, c)[0] == lattice_meet_join(a, m_bc)[0]
                j_ab = lattice_meet_join(a, b)[1].den
                j_bc = lattice_meet_join(b, c)[1].den
                assert lattice_meet_join(j_ab, c)[1] == lattice_meet_join(a, j_bc)[1]


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_containment_is_divisibility(a, b):
    assert submodule_leq(a, b) == (a % b == 0)
    meet, join = lattice_meet_join(a, b)
    assert meet.den == gcd(a, b)
    assert join.den == lcm(a, b)
    assert submodule_leq(a, meet.den) and submodule_leq(b, meet.den)
    assert submodule_leq(join.den, a) and submodule_leq(join.den, b)


def test_base_annihilator():
    assert base_annihilator(QFrac(1, 2)) == 2
    assert base_annihilator(QFrac(0, 1)) == 1
    assert base_annihilator(QFrac(3, 8)) == 8
    assert base_annihilator(QFrac(2, 8)) == 4


def test_annihilator_reversal():
    for a in range(1, 31):
        for b in range(1, 31):
            lhs = submodule_leq(a, b)
            rhs = base_annihilator(QFrac(1, a)) % base_annihilator(QFrac(1, b)) == 0
            assert lhs == rhs


def test_teideal_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        TEIdeal(-1, FULL)
    with pytest.raises(ValueError, match="full module"):
        TEIdeal(2, CyclicSub(3))
    assert str(TEIdeal(2, FULL)) == "2Z⋉Q/Z"
    assert str(TEIdeal(0, CyclicSub(3))) == "0Z⋉(1/3)Z/Z"


def test_teideal_membership():
    ideal = TEIdeal(2, FULL)
    assert ideal.contains(4, QFrac(1, 7))
    assert not ideal.contains(3, QFrac(0, 1))
    cyclic = TEIdeal(0, CyclicSub(6))
    assert cyclic.contains(0, QFrac(1, 3))
    assert not cyclic.contains(0, QFrac(1, 4))
    assert not cyclic.contains(2, QFrac(0, 1))
    zero_ideal = TEIdeal(0, CyclicSub(1))
    assert zero_ideal.contains(0, QFrac(0, 1))
    assert not zero_ideal.contains(0, QFrac(1, 2))


def test_te_product():
    assert te_product(2, QFrac(1, 2), 2, QFrac(1, 2)) == (4, QFrac(0, 1))
    assert te_product(0, QFrac(1, 3), 0, QFrac(1, 5)) == (0, QFrac(0, 1))
    assert te_product(3, QFrac(1, 4), 1, QFrac(0, 1)) == (3, QFrac(1, 4))
    assert te_product(1, QFrac(0, 1), 3, QFrac(1, 4)) == (3, QFrac(1, 4))


def test_te_principal_ideal():
    assert te_principal_ideal(2, QFrac(0, 1)) == TEIdeal(2, FULL)
    assert te_principal_ideal(-2, QFrac(1, 7)) == TEIdeal(2, FULL)
    assert te_principal_ideal(0, QFrac(1, 3)) == TEIdeal(0, CyclicSub(3))
    assert te_principal_ideal(0, QFrac(0, 1)) == TEIdeal(0, CyclicSub(1))


def test_te_left_annihilator():
    assert te_left_annihilator(2, QFrac(0, 1)) == TEIdeal(0, CyclicSub(2))
    assert te_left_annihilator(-6, QFrac(1, 2)) == TEIdeal(0, CyclicSub(6))
    assert te_left_annihilator(0, QFrac(1, 3)) == TEIdeal(3, FULL)
    assert te_left_annihilator(0, QFrac(0, 1)) == TEIdeal(1, FULL)


def test_te_morphic_witness_examples():
    assert te_morphic_witness(2, QFrac(0, 1)) == (0, QFrac(1, 2))
    assert te_morphic_witness(0, QFrac(1, 3)) == (3, QFrac(0, 1))
    assert te_morphic_witness(0, QFrac(0, 1)) == (1, QFrac(0, 1))
    assert te_morphic_witness(-6, QFrac(5, 8)) == (0, QFrac(1, 6))


@settings(max_examples=300)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(1, 10**6))
def test_te_morphic_witness_totality(n, num, den):
    q = QFrac(num, den)
    wn, wq = te_morphic_witness(n, q)
    assert te_principal_ideal(n, q) == te_left_annihilator(wn, wq)
    assert te_left_annihilator(n, q) == te_principal_ideal(wn, wq)
    assert te_product(n, q, wn, wq) == (0, QFrac(0, 1))
    assert te_product(wn, wq, n, q) == (0, QFrac(0, 1))


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(1, 10**4),
       st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(1, 10**4))
def test_te_product_matches_the_module_action(n1, num1, den1, n2, num2, den2):
    q1, q2 = QFrac(num1, den1), QFrac(num2, den2)
    assert te_product(n1, q1, n2, q2) == (n1 * n2, q2.scale(n1) + q1.scale(n2))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_te_product_in_principal_ideal(n1, num1, den1, n2, num2, den2):
    alpha = (n1, QFrac(num1, den1))
    beta = (n2, QFrac(num2, den2))
    prod = te_product(*alpha, *beta)
    assert te_principal_ideal(*beta).contains(*prod)
    assert te_principal_ideal(*alpha).contains(*prod)


def test_suite_small_bounds():
    report = verify_qz_suite(2)
    assert report.status == "verified"
    assert report.details["pairs"] == 4
    report = verify_qz_suite(12)
    assert report.status == "verified"
    assert report.details["pairs"] == 144
    assert report.details["symbolic_witnesses"] == 25 * len(
        [0] + [1 for d in range(2, 13) for r in range(1, d) if gcd(r, d) == 1]
    )


def test_suite_rejects_small_bound():
    with pytest.raises(ValueError, match="bound"):
        verify_qz_suite(1)


def test_suite_deterministic_record():
    first = verify_qz_suite(6)
    assert first == verify_qz_suite(6)
    assert first.theorem == "quotient_module_lattice"
    assert first.expression == "Z⋉(Q/Z)"


_contains = TEIdeal.contains

# One wrong helper per check the suite can refute.  Each fault is placed so
# that every check the suite runs before the target one still passes.
_FAULTS = {
    "generator_formula": ("cyclic_submodule", lambda r, c: CyclicSub(c)),
    "containment_divisibility": ("submodule_leq", lambda a, b: b % a == 0),
    "meet_intersection": (
        "lattice_meet_join",
        lambda a, b: (CyclicSub(max(a, b)), CyclicSub(lcm(a, b)))),
    "join_sum": ("_sumset", lambda m1, m2, grid: m1 | m2),
    "isomorphism_rigidity": ("base_annihilator", lambda q: 1),
    "base_dominates": (
        "te_principal_ideal",
        lambda n, q: TEIdeal(abs(n) + (not q.is_zero), FULL) if n
        else TEIdeal(0, CyclicSub(q.den))),
    "witness_annihilates": ("te_morphic_witness", lambda n, q: (1, QFrac(0, 1))),
    # Right for n = 0 and independent of q, so base_dominates still passes.
    "witness_ideals": (
        "te_left_annihilator",
        lambda n, q: TEIdeal(0, CyclicSub(2 * abs(n))) if n else TEIdeal(q.den, FULL)),
    "annihilator_grid": ("TEIdeal.contains", lambda self, n, q: True),
    "principal_membership": (
        "TEIdeal.contains",
        lambda self, n, q: _contains(self, n, q) and (self.base == 0 or n == 0)),
    "principal_coverage": (
        "te_product",
        lambda n1, q1, n2, q2: (n1 * n2, q2.scale(n1) + q1.scale(n2)
                                + (QFrac(1, 2) if n1 * n2 else QFrac(0, 1)))),
}


@pytest.mark.parametrize("check", sorted(_FAULTS))
def test_suite_refutes_each_injected_fault(check, monkeypatch):
    target, wrong = _FAULTS[check]
    owner, _, attr = target.rpartition(".")
    monkeypatch.setattr(TEIdeal if owner else qz, attr, wrong)
    report = verify_qz_suite(6)
    assert report.status == "refuted", report.details
    assert report.details["check"] == check, report.details


def _plain_mask(elements):
    return sum(1 << x for x in set(elements))


def test_grid_mask_and_sumset_match_set_computations():
    for grid in range(1, 97):
        divisors = [d for d in range(1, grid + 1) if grid % d == 0]
        subgroups = {d: [k * (grid // d) for k in range(d)] for d in divisors}
        for d in divisors:
            assert _grid_mask(d, grid) == _plain_mask(subgroups[d]), (d, grid)
        for d1 in divisors:
            for d2 in divisors:
                expected = _plain_mask((x + y) % grid for x in subgroups[d1]
                                       for y in subgroups[d2])
                got = _sumset(_grid_mask(d1, grid), _grid_mask(d2, grid), grid)
                assert got == expected, (d1, d2, grid)


def _plain_sumset(m1, m2, grid):
    members = [x for x in range(grid) if m1 >> x & 1]
    return _plain_mask((x + y) % grid for x in members
                       for y in range(grid) if m2 >> y & 1)


def test_sumset_matches_set_computation_on_every_small_mask_pair():
    # Arbitrary masks, not only subgroups: empty ones, grid 1, and pairs of
    # equal bit count, where neither mask is the denser.
    for grid in range(1, 6):
        for m1 in range(1 << grid):
            for m2 in range(1 << grid):
                assert _sumset(m1, m2, grid) == _plain_sumset(m1, m2, grid), (m1, m2, grid)


@given(st.integers(1, 130).flatmap(lambda grid: st.tuples(
    st.integers(0, (1 << grid) - 1), st.integers(0, (1 << grid) - 1), st.just(grid))))
def test_sumset_matches_set_computation_on_arbitrary_masks(args):
    m1, m2, grid = args
    assert _sumset(m1, m2, grid) == _sumset(m2, m1, grid) == _plain_sumset(m1, m2, grid)


def test_qz_cli_reports_witness_ideals_fault(monkeypatch, capsys):
    target, wrong = _FAULTS["witness_ideals"]
    monkeypatch.setattr(qz, target, wrong)
    assert run_command(["qz", "--bound", "6", "--json"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    record = json.loads(line)
    assert record["status"] == "refuted"
    assert record["witness"] == {"check": "witness_ideals", "element": [-6, "0"]}
    assert "Traceback" not in captured.err


_OPTIMISED_FAULT = """
import sys
from morphring import qz
from morphring.cli import run_command
from morphring.qz import CyclicSub, FULL, TEIdeal
qz.te_principal_ideal = (lambda n, q: TEIdeal(abs(n), FULL) if n
                         else TEIdeal(0, CyclicSub(2 * q.den)))
sys.exit(run_command(["qz", "--bound", "6", "--json"]))
"""


def test_witness_ideals_checked_under_optimisation():
    """``python -O`` strips ``assert``; the suite's own check must remain."""
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMISED_FAULT],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(qz.__file__).parent.parent)})
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["witness"] == {"check": "witness_ideals",
                                                  "element": [-6, "0"]}


# Calls per helper in verify_qz_suite(12), recorded before the interning
# rewrite; a check dropped or short-cut changes one of them.
_HELPER_CALLS = {
    "te_principal_ideal": 1378,
    "te_left_annihilator": 1378,
    "te_product": 18186,
    "te_morphic_witness": 70,
    "cyclic_submodule": 78,
    "lattice_meet_join": 144,
    "submodule_leq": 144,
    "_sumset": 144,
}


def test_suite_calls_every_helper_as_often_as_before(monkeypatch):
    calls = Counter()
    for name in _HELPER_CALLS:
        real = getattr(qz, name)
        monkeypatch.setattr(qz, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))
    assert verify_qz_suite(12).status == "verified"
    assert dict(calls) == _HELPER_CALLS


def test_equal_ideal_values_are_identical():
    for den in range(1, 40):
        assert CyclicSub(den) is CyclicSub(den) is cyclic_submodule(1, den)
        assert hash(CyclicSub(den)) == hash(CyclicSub(den))
        assert TEIdeal(0, CyclicSub(den)) is TEIdeal(0, CyclicSub(den))
        assert TEIdeal(den, FULL) is TEIdeal(den, FULL)
    assert CyclicSub(2) != CyclicSub(3)
    assert TEIdeal(0, CyclicSub(2)) != TEIdeal(2, FULL)
    assert len({TEIdeal(0, CyclicSub(d % 5 + 1)) for d in range(50)}) == 5
    meet, join = lattice_meet_join(4, 6)
    assert meet is CyclicSub(2) and join is CyclicSub(12)


def test_interned_values_stay_immutable_and_survive_copies():
    ideal = TEIdeal(0, CyclicSub(6))
    for value in (ideal, ideal.part, TEIdeal(3, FULL)):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    with pytest.raises(FrozenInstanceError):
        ideal.base = 1
    with pytest.raises(FrozenInstanceError):
        CyclicSub(6).den = 3
    with pytest.raises(FrozenInstanceError):
        del CyclicSub(6).den
    assert ideal.base == 0 and ideal.part.den == 6
    assert repr(ideal) == "TEIdeal(base=0, part=CyclicSub(den=6))"
    assert repr(TEIdeal(2, FULL)) == "TEIdeal(base=2, part=Full)"


@pytest.mark.parametrize("build, key, match", [
    (lambda: CyclicSub(0), (CyclicSub, 0), "positive"),
    (lambda: TEIdeal(-1, FULL), (TEIdeal, (-1, FULL)), "nonnegative"),
    (lambda: TEIdeal(2, CyclicSub(3)), (TEIdeal, (2, CyclicSub(3))), "full module"),
])
def test_rejected_values_never_enter_the_table(build, key, match):
    cls, fields = key
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            build()
        assert fields not in cls._table


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(1, 10**4))
def test_helper_ideals_are_the_directly_built_values(n, num, den):
    q = QFrac(num, den)
    principal = TEIdeal(abs(n), FULL) if n else TEIdeal(0, CyclicSub(q.den))
    if n:
        ann = TEIdeal(0, CyclicSub(abs(n)))
    else:
        ann = TEIdeal(q.den, FULL) if not q.is_zero else TEIdeal(1, FULL)
    assert te_principal_ideal(n, q) is principal
    assert te_left_annihilator(n, q) is ann


# SHA-256 of ``qz --bound B`` stdout, human and --json, recorded before the
# interning rewrite (bound 64: before the int-keyed ideal lookups and the
# one-shift sumset); every run exits 0.
_QZ_STDOUT_SHA256 = {
    (2, False): "8c50cbc9b47202344ac3a4b3c3b1c6936227674703a5f9fc8ae779d3aed3caa1",
    (2, True): "9f125f86f3811a3fa8c4dc97f2fc07b6036801c64ce092d5f6a8ca5ceb6d9829",
    (6, False): "b0137d435b9ba5d966cb8f0dd880a49d0b4c8b632be828c0cb4a8c8e3d9481c9",
    (6, True): "f9f003a3907c626e173cd6f91831ac0ae6ba0fd16225607fba60c2d523505ea7",
    (12, False): "4f2f94ac2cbcf5a29b17143c379947411d6cc5ae9c10b44e6a10ad19d0fd0200",
    (12, True): "ba3010af50542441fa412e32ebb15698e46bdb89938f01114cf0abec97adbcf5",
    (48, False): "094c92bdd1e8f862db14a9459c6f37cb1a7b1526049e9631224e94af64102a91",
    (48, True): "3cfda2b7caf773f1644f2b13df21136a7631e8336886d202cfe42447e502e5e0",
    (64, False): "ea024b2e263ce8a51d8397702dfab578ba5fd382f006b3f84a3d2083bc849408",
    (64, True): "20271532301ad45f0087c21323889fe86ba56c524542fd829e9f2b62e2be220f",
}


@pytest.mark.parametrize("bound, as_json", sorted(_QZ_STDOUT_SHA256))
def test_qz_stdout_golden(bound, as_json, capsys):
    argv = ["qz", "--bound", str(bound)] + ["--json"] * as_json
    assert run_command(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _QZ_STDOUT_SHA256[bound, as_json]


def _refuse_work(monkeypatch):
    def refuse(*args):
        pytest.fail("started the suite past the bound cap")

    for name in ("cyclic_submodule", "_grid_mask", "_module_fracs"):
        monkeypatch.setattr(qz, name, refuse)


@pytest.mark.parametrize("bound", [2000, 10**30])
def test_bound_over_the_default_cap_exits_2_before_any_work(monkeypatch, capsys, bound):
    monkeypatch.delenv("QZ_BOUND_CAP", raising=False)
    assert qz.bound_cap() == 256
    _refuse_work(monkeypatch)
    start = time.perf_counter()
    assert run_command(["qz", "--bound", str(bound), "--json"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bound {bound} exceeds the cap 256; "
                            f"raise QZ_BOUND_CAP to allow it\n")


def test_bound_cap_boundary_and_malformed_values(monkeypatch, capsys):
    monkeypatch.setenv("QZ_BOUND_CAP", "6")
    assert run_command(["qz", "--bound", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"]["bound"] == 6
    _refuse_work(monkeypatch)
    assert run_command(["qz", "--bound", "7", "--json"]) == 2
    assert capsys.readouterr().err.startswith("error: bound 7 exceeds the cap 6;")
    for raw, message in (("abc", "must be a positive integer, got 'abc'"),
                         ("0", "must be positive, got 0"), ("-3", "must be positive, got -3")):
        monkeypatch.setenv("QZ_BOUND_CAP", raw)
        assert run_command(["qz", "--bound", "2", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: QZ_BOUND_CAP {message}\n"
