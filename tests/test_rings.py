"""Tests for ring construction and axiom checking."""

import gc
import hashlib
import math
import pickle
import time
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

import morphring.check as check
import morphring.rings as rings
from morphring import (
    BimoduleSpec,
    FiniteRing,
    OrderCapExceeded,
    Side,
    check_bimodule,
    check_ring_axioms,
    classify_ring,
    direct_product,
    formal_triangular,
    ideal_bimodule,
    make_gf,
    make_zmod,
    matrix_ring,
    opposite,
    pierce_corner,
    principal_ideal,
    regular_bimodule,
    ring_from_tables,
    trivial_extension,
    truncated_poly,
    zero_bimodule,
)
from morphring.cli import _RINGS, _load_bimodule_tables, build_ring, parse_ring_expr


def test_zmod4_axioms_hold():
    R = make_zmod(4)
    result = check_ring_axioms(R.add_table, R.mul_table, R.zero, R.one)
    assert result.ok
    assert result.axiom is None
    assert result.witness is None


def test_patched_zmod4_reports_identity_axiom():
    R = make_zmod(4)
    mul = [list(row) for row in R.mul_table]
    mul[1][1] = 0
    result = check_ring_axioms(R.add_table, mul, R.zero, R.one)
    assert not result.ok
    assert result.axiom == "identity"
    assert result.witness == (1,)


def test_structural_errors_raise_before_axioms():
    with pytest.raises(ValueError):
        check_ring_axioms([[0, 1]], [[0, 0], [0, 1]], 0, 1)
    with pytest.raises(ValueError):
        check_ring_axioms([[0, 1], [1, 0]], [[0, 0], [0, 5]], 0, 1)
    with pytest.raises(ValueError):
        check_ring_axioms([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 7)


def test_broken_commutativity_and_associativity_named():
    # order-2 table that is not commutative
    add = [[0, 1], [0, 1]]
    mul = [[0, 0], [0, 1]]
    result = check_ring_axioms(add, mul, 0, 1)
    assert not result.ok
    assert result.axiom in ("add_inverse", "add_commutative")


def test_zmod1_is_the_zero_ring():
    R = make_zmod(1)
    assert R.order == 1
    assert R.zero == R.one == 0
    assert check_ring_axioms(R.add_table, R.mul_table, 0, 0).ok


def test_zmod_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        make_zmod(0)


def test_zmod6_idempotents():
    R = make_zmod(6)
    idem = {a for a in R.elements if R.mul(a, a) == a}
    assert idem == {0, 1, 3, 4}


def test_ring_helpers():
    R = make_zmod(6)
    assert R.neg(2) == 4
    assert R.sub(1, 5) == 2
    assert R.label(3) == "3"
    assert list(R.elements) == list(range(6))
    assert "z6" in repr(R)


def test_gf4_matches_x2_plus_x_plus_1():
    R = make_gf(2, 2)
    assert R.order == 4
    assert check_ring_axioms(R.add_table, R.mul_table, R.zero, R.one).ok
    # indices: 0 -> 0, 1 -> 1, 2 -> x, 3 -> x+1
    assert R.labels == ("0", "1", "x", "x+1")
    x = 2
    assert R.mul(x, x) == 3  # x^2 = x + 1
    assert R.mul(x, 3) == 1  # x(x+1) = x^2 + x = 1
    # nonzero elements form a cyclic group of order 3
    assert R.mul(3, 3) == x


def test_gf8_reduction_polynomial():
    R = make_gf(2, 3)
    assert check_ring_axioms(R.add_table, R.mul_table, R.zero, R.one).ok
    x = 2
    # least irreducible cubic over Z_2 is x^3 + x + 1, so x^3 = x + 1
    x2 = R.mul(x, x)
    assert R.mul(x2, x) == 3


def test_gf9_is_a_field():
    R = make_gf(3, 2)
    assert R.order == 9
    assert check_ring_axioms(R.add_table, R.mul_table, R.zero, R.one).ok
    for a in range(1, 9):
        assert any(R.mul(a, b) == R.one for b in range(1, 9))


def test_gf_prime_degree_one_matches_zmod():
    for p in (5, 257):
        F, Z = make_gf(p, 1), make_zmod(p)
        assert np.array_equal(F.add_table, Z.add_table)
        assert np.array_equal(F.mul_table, Z.mul_table)
    # only the scaled products r x y that some x**m mod f uses are tabled, not all p of them
    tracemalloc.start()
    make_gf(257, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16 * Z.mul_table.nbytes


def _reference_gf_mul(p, k):
    """The ``gf(p,k)`` multiplication table built in ``int64`` from full-size log sums."""
    from morphring.rings import _digits, _least_irreducible, _poly_mod

    n = p**k
    f = _least_irreducible(p, k)

    def mul_poly(a, b):
        ca, cb = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
        return sum(c * p**i for i, c in enumerate(_poly_mod(prod, f, p)))

    mul = np.zeros((n, n), dtype=np.int64)
    if n > 2:
        for g in range(2, n):
            exp = [1]
            while (acc := mul_poly(exp[-1], g)) != 1:
                exp.append(acc)
            if len(exp) == n - 1:
                break
        exp = np.array(exp)
        log = np.zeros(n, dtype=np.int64)
        log[exp] = np.arange(n - 1)
        nz = np.arange(1, n)
        mul[np.ix_(nz, nz)] = exp[(log[nz][:, None] + log[nz][None, :]) % (n - 1)]
    elif n == 2:
        mul[1][1] = 1
    return mul


def test_gf_tables_match_reference_construction():
    fields = [(p, k) for p in range(2, 257) if all(p % d for d in range(2, p))
              for k in range(1, 9) if p**k <= 256]
    assert len(fields) == 70
    for p, k in fields:
        F = make_gf(p, k)
        assert F.mul_table.dtype == np.uint16, (p, k)
        assert np.array_equal(F.mul_table, _reference_gf_mul(p, k)), (p, k)


def test_gf_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_gf(4, 1)
    with pytest.raises(ValueError):
        make_gf(2, 0)


def test_direct_product_mixed_radix_and_axioms():
    A, B = make_zmod(2), make_zmod(3)
    P = direct_product([A, B])
    assert P.order == 6
    assert check_ring_axioms(P.add_table, P.mul_table, P.zero, P.one).ok
    # first factor most significant: index = a*3 + b
    assert P.labels[5] == "(1,2)"
    assert P.one == 1 * 3 + 1
    assert P.add(1 * 3 + 2, 0 * 3 + 2) == 1 * 3 + 1
    assert P.construction == "prod(z2,z3)"


def test_direct_product_boolean_ring():
    P = direct_product([make_zmod(2)] * 3)
    assert P.order == 8
    for a in P.elements:
        assert P.mul(a, a) == a


def test_direct_product_rejects_empty():
    with pytest.raises(ValueError):
        direct_product([])


def test_full_matrix_ring_m2_z2():
    M = matrix_ring(make_zmod(2), 2)
    assert M.order == 16
    assert check_ring_axioms(M.add_table, M.mul_table, M.zero, M.one).ok
    assert check.census(M.add_table, M.mul_table, M.zero, M.one)["units"].bit_count() == 6
    # row-major, first entry most significant: E11 = 8, E12 = 4, E21 = 2, E22 = 1
    assert M.one == 8 + 1
    assert M.mul(4, 2) == 8  # E12 E21 = E11
    assert M.mul(2, 4) == 1  # E21 E12 = E22
    assert M.mul(4, 4) == M.zero
    assert M.labels[4 + 2] == "[[0,1],[1,0]]"


def test_lower_triangular_t2_z2():
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    assert T.order == 8
    assert check_ring_axioms(T.add_table, T.mul_table, T.zero, T.one).ok
    # entries ordered (0,0), (1,0), (1,1); first most significant
    E11, E21, E22 = 4, 2, 1
    assert T.one == E11 + E22
    assert T.mul(E21, E11) == E21
    assert T.mul(E11, E21) == T.zero
    assert T.mul(E21, E21) == T.zero
    assert check.census(T.add_table, T.mul_table, T.zero, T.one)["units"].bit_count() == 2
    assert T.construction == "tri(z2,2)"


def test_matrix_ring_validates_arguments():
    with pytest.raises(ValueError):
        matrix_ring(make_zmod(2), 0)
    with pytest.raises(ValueError):
        matrix_ring(make_zmod(2), 2, shape="upper")


def test_truncated_poly_z2_square_zero():
    P = truncated_poly(make_zmod(2), 2)
    assert P.order == 4
    assert check_ring_axioms(P.add_table, P.mul_table, P.zero, P.one).ok
    x = 2  # coefficient of degree 1 has stride |R|
    assert P.mul(x, x) == P.zero
    assert P.labels[3] == "x+1"


def test_truncated_poly_degree_one_is_base():
    R = make_zmod(6)
    P = truncated_poly(R, 1)
    assert np.array_equal(P.add_table, R.add_table)
    assert np.array_equal(P.mul_table, R.mul_table)


def test_truncated_poly_z4_nilpotent_arithmetic():
    P = truncated_poly(make_zmod(4), 2)
    assert P.order == 16
    assert check_ring_axioms(P.add_table, P.mul_table, P.zero, P.one).ok
    x = 4
    two = 2
    assert P.mul(x, x) == P.zero
    assert P.mul(two, x) == 8  # 2x
    assert P.mul(8, 8) == P.zero


def test_trivial_extension_zero_module_is_base():
    R = make_zmod(4)
    T = trivial_extension(R, zero_bimodule(R))
    assert T.order == 4
    assert np.array_equal(T.add_table, R.add_table)
    assert np.array_equal(T.mul_table, R.mul_table)


def test_trivial_extension_self_module():
    R = make_zmod(2)
    T = trivial_extension(R, regular_bimodule(R))
    assert T.order == 4
    assert check_ring_axioms(T.add_table, T.mul_table, T.zero, T.one).ok
    # (0,1)^2 = (0, 0*1 + 1*0) = 0
    assert T.mul(1, 1) == T.zero
    assert T.construction == "trivext(z2,self)"


def test_trivial_extension_ideal_module():
    R = make_zmod(4)
    M = ideal_bimodule(R, 2)
    assert M.order == 2
    assert M.labels == ("0", "2")
    T = trivial_extension(R, M)
    assert T.order == 8
    assert check_ring_axioms(T.add_table, T.mul_table, T.zero, T.one).ok
    assert T.construction == "trivext(z4,ideal(2))"
    # (2,0)*(x,m) = (2x, 2m): squares to (0,0) when x = 2
    a = 2 * 2 + 0  # (2, 0)
    assert T.mul(a, a) == T.zero


def test_ideal_bimodule_requires_commutative_base():
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    with pytest.raises(ValueError):
        ideal_bimodule(T, 1)


def test_check_bimodule_rejects_bad_action():
    R = make_zmod(2)
    M, ring = regular_bimodule(R), (R.add_table, R.mul_table, R.one)
    # the left action of 1 is no longer unital
    bad = BimoduleSpec(M.order, M.add_table, ((0, 0), (0, 0)), M.right_action, M.zero, M.labels)
    result = check_bimodule(ring, bad, ring)
    assert not result.ok
    assert result.axiom == "left_action_unital"
    with pytest.raises(ValueError):
        trivial_extension(R, bad)


def test_a_bimodule_spec_checks_and_freezes_its_tables_when_built():
    R, Z4, labels = make_zmod(2), make_zmod(4), ("0", "1")
    add, mul = R.add_table, R.mul_table
    for tables, zero, message, *names in (
            ((((0, 1), (1, 2)), mul, mul), 0, "module addition entries must lie in [0, 2)"),
            ((add, ((0, 0), (0, -1)), mul), 0, "left action entries must lie in [0, 2)"),
            ((add, mul, ((0, 0), (70000, 1))), 0, "right action entries must lie in [0, 2)"),
            ((add, mul * 1.0, mul), 0, "left action entries must be integer element indices"),
            ((((0, 1),), mul, mul), 0, "module addition table shape (1, 2) != (2, 2)"),
            ((add, mul, mul), 2, "zero index 2 out of range [0, 2)"),
            # too few labels: the extension's third label would raise an IndexError
            ((add, mul, mul), 0, "order 2, 1 labels", ("0",))):
        with pytest.raises(ValueError) as refused:
            BimoduleSpec(2, *tables, zero, *(names or [labels]))
        assert str(refused.value) == message
    M = regular_bimodule(R)  # uint16 tables are kept, not copied
    assert M.add_table is add and M.left_action is mul and M.right_action is mul
    writable = mul.copy()
    N = BimoduleSpec(2, add.tolist(), writable, writable, 0, labels)
    assert N.left_action is writable and not writable.flags.writeable
    assert N.add_table.dtype == np.uint16 and not N.add_table.flags.writeable
    with pytest.raises(ValueError, match=r"left action shape \(2, 2\) != \(4, 2\)"):
        check_bimodule((Z4.add_table, Z4.mul_table, Z4.one), N, (add, mul, R.one))
    with pytest.raises(ValueError, match=r"right action shape \(2, 2\) != \(2, 4\)"):
        check_bimodule((add, mul, R.one), N, (Z4.add_table, Z4.mul_table, Z4.one))


def test_formal_triangular_is_transpose_of_lower_triangular_matrices():
    Z2 = make_zmod(2)
    F = formal_triangular(Z2, Z2, regular_bimodule(Z2))
    T = matrix_ring(Z2, 2, shape="lower_triangular")
    assert F.order == 8
    assert check_ring_axioms(F.add_table, F.mul_table, F.zero, F.one).ok
    # the formal triple (r, v, s) is the upper matrix [[r,v],[0,s]]; under the
    # index identification with lower entries ((0,0),(1,0),(1,1)) the two
    # rings share addition and are opposite in multiplication
    assert np.array_equal(F.add_table, T.add_table)
    assert np.array_equal(F.mul_table, opposite(T).mul_table)
    assert F.one == T.one and F.zero == T.zero


def test_pierce_corner_of_idempotent():
    R = direct_product([make_zmod(2), make_zmod(3)])
    # e = (1, 0) has index 3
    e = 3
    assert R.mul(e, e) == e
    C = pierce_corner(R, e)
    assert C.order == 2
    assert C.one == 1  # position of e among corner members
    assert check_ring_axioms(C.add_table, C.mul_table, C.zero, C.one).ok


def test_pierce_corner_rejects_non_idempotent():
    with pytest.raises(ValueError):
        pierce_corner(make_zmod(4), 2)
    with pytest.raises(ValueError):
        pierce_corner(make_zmod(4), 11)


def test_pierce_corner_identity_is_whole_ring():
    R = make_zmod(6)
    C = pierce_corner(R, R.one)
    assert np.array_equal(C.add_table, R.add_table)
    assert np.array_equal(C.mul_table, R.mul_table)


def test_opposite_transposes_multiplication():
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    O = opposite(T)
    assert np.array_equal(O.add_table, T.add_table)
    for a in T.elements:
        for b in T.elements:
            assert O.mul(a, b) == T.mul(b, a)
    assert opposite(O) is T
    assert O.construction == "opp(tri(z2,2))"


def test_dropped_ring_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        R = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
        whole = principal_ideal(R, Side.RIGHT, R.one) == (1 << R.order) - 1
        same = opposite(opposite(R)) is R
        ref = weakref.ref(R)
        del R
        freed = ref() is None
    finally:
        gc.enable()
    assert whole and same and freed


def test_opposite_of_commutative_is_equal():
    R = make_zmod(6)
    assert np.array_equal(opposite(R).mul_table, R.mul_table)


def test_ring_from_tables_roundtrip_and_validation():
    R = make_zmod(3)
    S = ring_from_tables(R.add_table, R.mul_table, 0, 1, construction="z3")
    assert np.array_equal(S.add_table, R.add_table)
    bad_mul = [[0, 0, 0], [0, 2, 2], [0, 2, 2]]
    with pytest.raises(ValueError):
        ring_from_tables(R.add_table, bad_mul, 0, 1)


def test_order_cap_blocks_large_constructions(monkeypatch):
    monkeypatch.setenv("RING_ORDER_CAP", "8")
    with pytest.raises(OrderCapExceeded):
        make_zmod(5000)
    monkeypatch.setenv("RING_ORDER_CAP", "-3")
    with pytest.raises(ValueError):
        make_zmod(4)
    monkeypatch.delenv("RING_ORDER_CAP")
    Z2, Z256 = make_zmod(2), make_zmod(256)
    # orders too large to print, too many entries to list, a product that
    # wraps to 0 in int64, and a pair whose bimodule check alone is cubic
    for build in (lambda: matrix_ring(Z2, 300),
                  lambda: matrix_ring(Z2, 2000),
                  lambda: matrix_ring(Z2, 2000, shape="lower_triangular"),
                  lambda: truncated_poly(Z2, 20000),
                  lambda: direct_product([Z2] * 20000),
                  lambda: direct_product([Z2] * 64),
                  lambda: make_gf(2, 100000000),
                  lambda: trivial_extension(Z256, regular_bimodule(Z256)),
                  lambda: formal_triangular(Z256, Z256, regular_bimodule(Z256))):
        start = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="above the cap 4096"):
            build()
        assert time.perf_counter() - start < 0.25


def test_matrix_ring_over_gf4():
    M = matrix_ring(make_gf(2, 2), 2, shape="lower_triangular")
    assert M.order == 64
    assert check_ring_axioms(M.add_table, M.mul_table, M.zero, M.one).ok


def test_constructions_are_deterministic():
    a = matrix_ring(make_zmod(3), 2, shape="lower_triangular")
    b = matrix_ring(make_zmod(3), 2, shape="lower_triangular")
    assert a == b


def test_tables_are_readonly_int32_and_opposite_shares_storage():
    R = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    B = ideal_bimodule(make_zmod(4), 2)
    tables = (R.add_table, R.mul_table, B.add_table, B.left_action, B.right_action)
    for table in tables:
        assert table.dtype == np.uint16
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
    O = opposite(R)
    assert O.add_table is R.add_table
    assert np.shares_memory(O.mul_table, R.mul_table)
    assert np.array_equal(O.mul_table, R.mul_table.T)


def test_every_constructor_gives_readonly_uint16_tables(tmp_path):
    Z2, Z4, T2 = make_zmod(2), make_zmod(4), matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    as_lists = ring_from_tables(Z4.add_table.tolist(), Z4.mul_table.tolist(), 0, 1)
    rings = [Z4, make_gf(2, 3), direct_product([Z2, T2]), matrix_ring(Z2, 2), T2,
             truncated_poly(Z4, 2), trivial_extension(Z4, ideal_bimodule(Z4, 2)),
             formal_triangular(Z2, Z2, regular_bimodule(Z2)), pierce_corner(T2, 4),
             as_lists, opposite(T2)]
    (tmp_path / "m").write_text("2 2 0 1 1 0 0 0 0 1 0 0 0 1")
    specs = [regular_bimodule(T2), zero_bimodule(Z4), ideal_bimodule(Z4, 2), _column_module(),
             _load_bimodule_tables(str(tmp_path / "m"), Z2)]
    tables = [t for R in rings for t in (R.add_table, R.mul_table, R.neg_table)]
    tables += [t for M in specs for t in (M.add_table, M.left_action, M.right_action)]
    for table in tables:
        assert table.dtype == np.uint16
        assert not table.flags.writeable


def test_tables_refuse_indices_that_do_not_fit_uint16(monkeypatch):
    from morphring.rings import _frozen

    assert _frozen(np.array([[0, 65535]])).tolist() == [[0, 65535]]
    for bad in ([[0, 65536]], [[-1]], np.array([[70000]], dtype=np.int32)):
        with pytest.raises(ValueError, match="uint16"):
            _frozen(bad)
    # a zero-stride view: an order past 65,536 without a large allocation
    huge = np.broadcast_to(np.zeros(1, dtype=np.int64), (70000, 70000))
    with pytest.raises(ValueError, match="65536"):
        ring_from_tables(huge, huge, 0, 0)
    with pytest.raises(ValueError, match="65536"):
        BimoduleSpec(70000, huge, huge, huge, 0, ("0",))
    monkeypatch.setenv("RING_ORDER_CAP", "70000")
    Z2, Z256 = make_zmod(2), make_zmod(256)
    tracemalloc.start()
    for build in (lambda: make_zmod(70000), lambda: make_zmod(65537), lambda: make_gf(65537, 1),
                  lambda: truncated_poly(Z2, 17), lambda: direct_product([Z256, Z256, Z2])):
        with pytest.raises(OrderCapExceeded, match="above the cap 65536"):
            build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_one_part_build_peaks_below_three_times_its_tables():
    p = 2039
    tracemalloc.start()
    F = make_gf(p, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the builder's input Z_p is as large as its output, so this leaves
    # about one table pair for everything transient
    assert peak <= 3 * (F.add_table.nbytes + F.mul_table.nbytes)
    idx = np.arange(p, dtype=np.int64)
    for row in (0, 1, 777, p - 1):
        assert np.array_equal(F.add_table[row], (row + idx) % p)
        assert np.array_equal(F.mul_table[row], (row * idx) % p)
        assert np.array_equal(F.mul_table[:, row], (row * idx) % p)
    assert np.array_equal(F.mul_table, make_zmod(p).mul_table)


def test_ring_equality_compares_table_contents():
    a = truncated_poly(make_zmod(2), 3)
    b = truncated_poly(make_zmod(2), 3)
    assert a is not b and a.mul_table is not b.mul_table
    assert a == b and hash(a) == hash(b)
    assert a != make_zmod(8)
    assert opposite(a) != a  # same tables, different construction text
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    U = FiniteRing(T.order, T.add_table, T.mul_table.T, T.zero, T.one, T.labels,
                   T.construction)
    assert U != T


def test_vectorised_helpers_match_element_scans():
    for R in (make_zmod(12), matrix_ring(make_zmod(2), 2), truncated_poly(make_zmod(3), 2)):
        for a in R.elements:
            assert R.add(a, R.neg(a)) == R.zero
            assert R.neg(a) == min(b for b in R.elements if R.add(a, b) == R.zero)
            assert isinstance(R.mul(a, a), int) and isinstance(R.sub(a, a), int)
    R = make_zmod(12)
    M = ideal_bimodule(R, 3)
    members = sorted({R.mul(x, 3) for x in R.elements})
    assert M.labels == tuple(str(v) for v in members)
    for i, v in enumerate(members):
        for r in R.elements:
            assert members[M.left_action[r, i]] == R.mul(r, v)
            assert members[M.right_action[i, r]] == R.mul(v, r)
        for j, w in enumerate(members):
            assert members[M.add_table[i, j]] == R.add(v, w)
    assert check_bimodule((R.add_table, R.mul_table, R.one), M,
                          (R.add_table, R.mul_table, R.one)).ok
    R, e = matrix_ring(make_zmod(2), 2), 8  # e = E11
    C = pierce_corner(R, e)
    members = sorted({R.mul(R.mul(e, x), e) for x in R.elements})
    assert C.order == len(members) and members[C.one] == e
    for i, v in enumerate(members):
        for j, w in enumerate(members):
            assert members[C.add(i, j)] == R.add(v, w)
            assert members[C.mul(i, j)] == R.mul(v, w)


# SHA-256 of the little-endian int32 add_table, then mul_table, then the
# newline-joined labels, recorded from the exp/log-table gf builder and the
# per-rule product builder that preceded the distributive fill.
_TABLE_SHA256 = {
    "gf(2,9)": "99b2c1b88c8582e329d306ad2c3f06a7cc0b164290f6326e4882385e978c968b",
    "gf(2,10)": "8c5802e0d4bc798ac1edc552575f02a22064b8770c392a849f2c1adc779e7f29",
    "gf(2,11)": "bc2b4410941a6841d71b1025ac029750fec1a16f6b9c3be0eaf3688f35a40ec1",
    "gf(2,12)": "9e5f9f7585ba1e930a703cacdce99936ee75eea2e9f7d5d8d6d40fdcdeb819b8",
    "gf(3,6)": "489e28fd242a3ce4125b00ea14ca18b3e241dd2b1a21477860d0cab3fc8bca9a",
    "gf(3,7)": "b032415cfdedfacdb951014d169853088ab16c50e9fa21b62e5ae0d7d2b58f5a",
    "gf(5,4)": "41ef861434732cf3d2bf65be635fad304a24334e641208accc29740f7a69bf9e",
    "gf(5,5)": "d94e5d83bb9a534d6859a3b92ea80027e7187bfb0166ed3978ef98ec1daab1f2",
    "gf(7,3)": "495e8875a54e24b97ecfd0b36c9ca439d5e55701a2dc963cc328c7ff692ce56a",
    "gf(7,4)": "aaf608cd6dc03a71c2abd67b624cd1783a1e3d7d0af2b0d6edc9b086869b55c0",
    "gf(11,3)": "8d09556c3c7f358dc1f3e0081ed5a51935d03644fdc79cbf43773728c1c78244",
    "gf(13,3)": "48f67e37e7c8788116b181ba5321fe4ed18daf5d8a18bf49ab684a5b15722d8d",
    "gf(17,2)": "48ce5633fccb907aeef8298f8dc99c8241e9ad04029d71b6aea22239c7e5084e",
    "gf(19,2)": "607583d16c9f034bea8fd1ab44a1b2e5338f8ce2194ac8dcba6b9e8ef772b5e9",
    "gf(23,2)": "dbdefa9eb516d5edc929bcf04a10fe8f1aa739e88bcec514c3f79b97f5cb1bf6",
    "gf(29,2)": "97f12b57b4e502379c71cde6f2589ccc75b2d01cb31e8f69b535184311f35ba6",
    "gf(31,2)": "b0d827aa2c20fead0a70b70e1ec9aed59c505b86befcee39c442c818c03ffcd4",
    "gf(37,2)": "0f37ad20b8d21218fd3c47e951c10fc3ac290ad9c010d68512f7d8028f4f2a28",
    "gf(41,2)": "96fecfafc48813b8eb010d6977373b539a8d4b313497a919db14d5f37a5a2471",
    "gf(43,2)": "d90deda1327bfac79a351ac42bf2fd1bfa4d5865479f2a98170f4573ba327bd1",
    "gf(47,2)": "8efd243f10f9f38472f3797b062049ba9587fe7e03897208d5ab11fb297749de",
    "gf(53,2)": "1cec753a676c4cf9e3c34dcb09fc7854cf2083e48b960a6240889192f165be1a",
    "gf(59,2)": "d87caad785db68186d01beb056f10090e51bb47272f06e7216cb8e5dee3cfa30",
    "gf(61,2)": "bcb780f1805746d4ac6d236315bc1d31b2f7e31fcb3c08f05e264d992966a61a",
    "poly(z2,11)": "d64778f7f5a4d31149c73df1f115686f0b2ae5f6bd13cb78ecc5dd9397a3afbb",
    "tri(z2,4)": "bae59afe73909ee3f77881811c692180c15a5675c0b6fc4bf3b5f3d234fd99c3",
}


def test_tables_above_order_256_match_recorded_digests():
    fields = {f"gf({p},{k})" for p in range(2, 4097) if all(p % d for d in range(2, p))
              for k in range(2, 13) if 256 < p**k <= 4096}
    assert fields | {"poly(z2,11)", "tri(z2,4)"} == set(_TABLE_SHA256)
    for text, expected in _TABLE_SHA256.items():
        R = build_ring(parse_ring_expr(text))
        digest = hashlib.sha256()
        for table in (R.add_table, R.mul_table):
            digest.update(np.ascontiguousarray(table, dtype="<i4").tobytes())
        digest.update("\n".join(R.labels).encode())
        assert digest.hexdigest() == expected, text


def test_building_a_ring_names_no_element(monkeypatch):
    named = []
    init = rings._Labels.__init__

    def spy(self, name, orders):
        init(self, lambda digits: named.append(digits) or name(digits), orders)

    monkeypatch.setattr(rings._Labels, "__init__", spy)
    monkeypatch.setenv("RING_ORDER_CAP", "2048")
    for text in ("poly(z2,11)", "trivext(z64,ideal(8))", "mat(z2,3)", "prod(tri(z2,2),z8)"):
        R = build_ring(parse_ring_expr(text))
        assert named == [], text
        R.label(R.order - 1)  # the spy sees a label formed when it is read
        assert named, text
        named.clear()


@pytest.mark.parametrize("build", [lambda base: direct_product([base, make_zmod(3)]),
                                   lambda base: trivial_extension(base, ideal_bimodule(base, 2))],
                         ids=["prod", "trivext"])
def test_a_composite_ring_keeps_no_factor_alive(build):
    factor = make_zmod(4)
    R = build(factor)
    ref = weakref.ref(factor)
    del factor
    gc.collect()
    assert ref() is None
    assert R.labels[-1] == "(3,2)"


def test_labels_read_like_the_tuple_and_pickle_as_it():
    Z4 = make_zmod(4)
    R = direct_product([matrix_ring(make_zmod(2), 2, shape="lower_triangular"),
                        trivial_extension(Z4, ideal_bimodule(Z4, 2))])
    eager = tuple(R.labels)
    assert len(eager) == R.order == 64 and eager[9] == R.labels[9] == "([[0,0],[0,1]],(0,2))"
    assert R.labels == eager and eager == R.labels and hash(R.labels) == hash(eager)
    assert R.labels[-3:] == eager[-3:] and R.labels.index(eager[40]) == 40
    assert R.labels != list(eager)
    with pytest.raises(IndexError):
        R.labels[64]
    copy = pickle.loads(pickle.dumps(R))
    assert copy == R and type(copy.labels) is tuple and copy.labels == eager


@pytest.mark.parametrize("text", ["z8", "tri(z2,2)"])
def test_a_pickled_ring_is_rebuilt_read_only_with_an_empty_cache(text):
    # a cached opposite, which refers back weakly, and the _per_ring keys of
    # a classification once made pickle.dumps fail
    R = build_ring(parse_ring_expr(text))
    for ring in (R, opposite(R)):
        classify_ring(ring)
        copy = pickle.loads(pickle.dumps(ring))
        assert copy == ring and copy._cache == {}
        assert not (copy.add_table.flags.writeable or copy.mul_table.flags.writeable)


# ---------------------------------------------------------------------------
# a built ring's addition table, formed from its parts when it is read


# SHA-256 of the little-endian uint16 add_table, then mul_table, of every ring
# of default_corpus(512) in order, recorded from the level-by-level addition
# builder that kept each ring's table
_CORPUS_512_TABLES_SHA256 = "057c1b3513949375d0891795b1cf77e0bda84292e3a9ed429ce59f18fc0b8723"


@pytest.mark.parametrize("block", [None, 512])
def test_corpus_tables_match_the_recorded_digest(monkeypatch, block):
    from morphring.cli import default_corpus

    if block is not None:  # row blocks in the former and in the multiplication fill
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block)
    digest = hashlib.sha256()
    for text in default_corpus(512):
        R = build_ring(parse_ring_expr(text))
        for table in (R.add_table, R.mul_table):
            digest.update(np.ascontiguousarray(table, dtype="<u2").tobytes())
    assert digest.hexdigest() == _CORPUS_512_TABLES_SHA256


def _spy_former(monkeypatch) -> list:
    """The orders of the addition tables formed from now on."""
    formed, former = [], rings._addition_table
    monkeypatch.setattr(rings, "_addition_table",
                        lambda parts: formed.append(math.prod(map(len, parts))) or former(parts))
    return formed


def test_deciding_a_built_ring_forms_its_addition_table_only_for_a_lattice(monkeypatch):
    from morphring.cli import default_corpus
    from morphring.search import _search_hit

    monkeypatch.setenv("RING_ORDER_CAP", "512")
    decided = [build_ring(parse_ring_expr(text)) for text in ("poly(z2,9)", "gf(2,8)")]
    searched = [build_ring(parse_ring_expr(text)) for text in default_corpus(64)]
    lattice = build_ring(parse_ring_expr("prod(tri(z2,2),z2)"))
    formed = _spy_former(monkeypatch)
    for R in decided:
        classify_ring(R)
    for R in searched:
        _search_hit(R)
    assert formed == []
    classify_ring(lattice)  # the sums of its ideal lattice read the table, on both sides
    assert formed == [16]


def test_a_built_ring_holds_its_multiplication_table_and_parts():
    tracemalloc.start()
    R = truncated_poly(make_zmod(2), 11)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held <= R.mul_table.nbytes + (256 << 10), f"{held / 2**20:.2f} MiB held"


@pytest.mark.parametrize("build", [lambda: truncated_poly(make_zmod(2), 11),
                                   lambda: make_gf(2039, 1)], ids=["poly(z2,11)", "gf(2039,1)"])
def test_forming_an_addition_table_traces_it_and_at_most_1_mib(build):
    R = build()
    tracemalloc.start()
    table = R.add_table
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert table.nbytes == 2 * R.order ** 2
    assert peak <= table.nbytes + (1 << 20), f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("first", ["ring", "opposite"])
def test_a_ring_and_its_opposite_form_one_addition_table(monkeypatch, first):
    R = matrix_ring(make_zmod(2), 3, shape="lower_triangular")
    O = opposite(R)
    formed = _spy_former(monkeypatch)
    table = (R if first == "ring" else O).add_table
    assert O.add_table is table and R.add_table is table and formed == [64]
    assert table.dtype == np.uint16 and not table.flags.writeable


def test_a_pickled_ring_whose_table_was_never_read_unpickles_equal(monkeypatch):
    formed = _spy_former(monkeypatch)
    R = build_ring(parse_ring_expr("trivext(z8,ideal(2))"))
    copy = pickle.loads(pickle.dumps(R))
    assert formed == [32, 32]  # the build, then the pickle's read
    assert copy == R and copy.add_table is not R.add_table
    for table in (copy.add_table, copy.mul_table):
        assert table.dtype == np.uint16 and not table.flags.writeable
    with pytest.raises(AttributeError):
        R.add_table = copy.add_table


def test_the_split_keeps_a_table_of_at_most_a_block_whole():
    # (k, s): the leading k digits keep an addition table of at most 2**19 entries, at least one
    assert rings._split([724]) == (1, 1) and rings._split([2] * 9) == (9, 1)
    assert rings._split([2] * 10) == (9, 2) and rings._split([2] * 12) == (9, 8)
    assert rings._split([1024, 2, 2]) == (1, 4) and rings._split([8, 64, 2]) == (2, 2)


_TWELVE_Z2 = "prod(" + ",".join(["z2"] * 12) + ")"


@pytest.mark.parametrize("argv", [("classify", "poly(z2,11)"), ("classify", "gf(2,12)"),
                                  ("classify", _TWELVE_Z2), ("verify", _TWELVE_Z2)],
                         ids=["classify poly(z2,11)", "classify gf(2,12)",
                              "classify prod(z2 x12)", "verify prod(z2 x12)"])
def test_big_commands_form_no_addition_table_over_a_block(monkeypatch, argv):
    from morphring.cli import run_command

    monkeypatch.setenv("RING_ORDER_CAP", "4096")
    formed = _spy_former(monkeypatch)
    assert run_command([*argv, "--json"]) == 0
    assert formed and max(formed) ** 2 <= rings._BLOCK_ENTRIES, formed


@pytest.mark.parametrize("first", ["ring", "opposite"])
def test_a_ring_and_its_opposite_share_one_pair_of_split_tables(monkeypatch, first):
    from morphring.ideals import subgroup_sum

    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 512)  # six z2 digits: 16 x 4 of order 64
    R = matrix_ring(make_zmod(2), 3, shape="lower_triangular")
    O = opposite(R)
    formed = _spy_former(monkeypatch)
    a, b = 0b101001, 0b010011  # <a> and <b> meet in 0, so their sum has four members
    total = subgroup_sum(R if first == "ring" else O, 1 | 1 << a, 1 | 1 << b)
    s, hi, lo = split = rings._addition_split(R)
    assert all(x is y for x, y in zip(rings._addition_split(O), split))
    assert formed == [16, 4]  # the two digit groups' tables, no 64 x 64 table
    assert s == 4 and (hi.shape, lo.shape) == ((16, 16), (4, 4)) and not hi.flags.writeable
    assert total == 1 | 1 << a | 1 << b | 1 << R.add(a, b) and formed == [16, 4, 64]


# ---------------------------------------------------------------------------
# every composite constructor against its definition, on digit tuples


def _column_module():
    """``Z2^2`` as a left ``tri(z2,2)``, right ``Z2`` bimodule: ``r.v`` is ``[[a,0],[b,c]] v``."""
    add = [[u ^ v for v in range(4)] for u in range(4)]
    left = []
    for r in range(8):
        a, b, c = r >> 2, (r >> 1) & 1, r & 1
        left.append([((a * (v >> 1)) << 1) | ((b * (v >> 1)) ^ (c * (v & 1))) for v in range(4)])
    right = [[v * s for s in range(2)] for v in range(4)]
    return BimoduleSpec(4, add, left, right, 0, ("0", "e2", "e1", "e1+e2"), None)


def _tables(A):
    """(add, mul or left action, right action or None) of a ring or bimodule as lists."""
    if isinstance(A, FiniteRing):
        return A.add_table.tolist(), A.mul_table.tolist(), None
    return [t.tolist() for t in (A.add_table, A.left_action, A.right_action)]


def _convolution(B, terms):
    """Product whose digit ``t`` sums ``x[u] * y[v]`` over the pairs ``(u, v)`` in ``terms[t]``."""
    add, mul_b, _ = _tables(B)

    def mul(x, y):
        out = []
        for pairs in terms:
            total = B.zero
            for u, v in pairs:
                total = add[total][mul_b[x[u]][y[v]]]
            out.append(total)
        return out
    return mul


def _poly_case(B, k):
    # digit k-1-i holds coefficient i
    terms = [[(k - 1 - i, k - 1 - (d - i)) for i in range(d + 1)] for d in range(k)][::-1]
    return truncated_poly(B, k), [B] * k, _convolution(B, terms)


def _matrix_case(B, k, shape):
    pos = [(i, j) for i in range(k) for j in range(k) if shape == "full" or j <= i]
    terms = [[(pos.index((i, l)), pos.index((l, j))) for l in range(k)
              if (i, l) in pos and (l, j) in pos] for i, j in pos]
    return matrix_ring(B, k, shape=shape), [B] * len(pos), _convolution(B, terms)


def _product_case(factors):
    muls = [_tables(F)[1] for F in factors]

    def mul(x, y):
        return tuple(m[u][v] for m, u, v in zip(muls, x, y))
    return direct_product(factors), list(factors), mul


def _trivext_case(B, M):
    mul_b = _tables(B)[1]
    madd, left, right = _tables(M)

    def mul(x, y):
        (r1, m1), (r2, m2) = x, y
        return mul_b[r1][r2], madd[left[r1][m2]][right[m1][r2]]
    return trivial_extension(B, M), [B, M], mul


def _formal_case(R, S, V):
    mul_r, mul_s = _tables(R)[1], _tables(S)[1]
    vadd, left, right = _tables(V)

    def mul(x, y):
        (r1, v1, s1), (r2, v2, s2) = x, y
        return mul_r[r1][r2], vadd[left[r1][v2]][right[v1][s2]], mul_s[s1][s2]
    return formal_triangular(R, S, V), [R, V, S], mul


def _shifted(R):
    """``R`` relabelled by ``i -> i+1 mod n``, so its zero and one are not indices 0 and 1."""
    back = (np.arange(R.order) - 1) % R.order

    def move(table):
        return (table[np.ix_(back, back)] + 1) % R.order
    return ring_from_tables(move(R.add_table), move(R.mul_table), (R.zero + 1) % R.order,
                            (R.one + 1) % R.order, [R.labels[i] for i in back])


def _reference_cases():
    Z2, Z4, G4 = make_zmod(2), make_zmod(4), make_gf(2, 2)
    T2 = matrix_ring(Z2, 2, shape="lower_triangular")
    S2, S4, ST2 = _shifted(Z2), _shifted(Z4), _shifted(T2)
    return {
        # order-2 parts: the builder skips the zero digit's slab, half of every level
        "poly(z2,5)": lambda: _poly_case(Z2, 5),
        "prod(shift(z2),z2)": lambda: _product_case([S2, Z2]),
        "poly(shift(z4),3)": lambda: _poly_case(S4, 3),
        "mat(shift(z4),2)": lambda: _matrix_case(S4, 2, "full"),
        "trivext(shift(tri(z2,2)),self)": lambda: _trivext_case(ST2, regular_bimodule(ST2)),
        "prod(shift(tri(z2,2)),z2)": lambda: _product_case([ST2, Z2]),
        "poly(tri(z2,2),2)": lambda: _poly_case(T2, 2),
        "poly(gf(2,2),3)": lambda: _poly_case(G4, 3),
        "poly(z4,4)": lambda: _poly_case(Z4, 4),
        "mat(gf(2,2),2)": lambda: _matrix_case(G4, 2, "full"),
        "mat(z4,2)": lambda: _matrix_case(Z4, 2, "full"),
        "tri(tri(z2,2),2)": lambda: _matrix_case(T2, 2, "lower_triangular"),
        "tri(gf(2,2),2)": lambda: _matrix_case(G4, 2, "lower_triangular"),
        "prod(tri(z2,2),z4,gf(2,2))": lambda: _product_case([T2, Z4, G4]),
        "trivext(tri(z2,2),self)": lambda: _trivext_case(T2, regular_bimodule(T2)),
        "trivext(z4,ideal(2))": lambda: _trivext_case(Z4, ideal_bimodule(Z4, 2)),
        "formal(tri(z2,2),z2,column)": lambda: _formal_case(T2, Z2, _column_module()),
        "formal(gf(2,2),gf(2,2),self)": lambda: _formal_case(G4, G4, regular_bimodule(G4)),
    }


@pytest.mark.parametrize("name", list(_reference_cases()))
def test_constructors_match_their_definition_on_digit_tuples(name):
    ring, parts, mul = _reference_cases()[name]()
    adds = [_tables(P)[0] for P in parts]
    # mixed-radix digit tuples, first part most significant
    elements = list(product(*(range(P.order) for P in parts)))
    index = {digits: x for x, digits in enumerate(elements)}
    expected_add = [[index[tuple(t[u][v] for t, u, v in zip(adds, a, b))] for b in elements]
                    for a in elements]
    expected_mul = [[index[tuple(mul(a, b))] for b in elements] for a in elements]
    for table, expected in ((ring.add_table, expected_add), (ring.mul_table, expected_mul)):
        wrong = np.argwhere(table != np.asarray(expected))
        assert not wrong.size, [(elements[x], elements[y]) for x, y in wrong[:3]]
    assert elements[ring.zero] == tuple(P.zero for P in parts)
    rows = ring.mul_table.tolist()
    assert all(one_x == x for x, one_x in enumerate(rows[ring.one]))
    assert all(row[ring.one] == x for x, row in enumerate(rows))


def test_constructors_build_the_same_tables_in_shorter_runs_of_rows(monkeypatch):
    # at 512 entries most levels of a block of rows are gathered in several runs
    cases = _reference_cases()
    expected = {name: case()[0] for name, case in cases.items()}
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 512)
    for name, case in cases.items():
        assert case()[0] == expected[name], name


def _corruptions(tables, orders):
    """``tables``, then each copy with one entry of one table set to another value.

    Entries of ``tables[t]`` lie below ``orders[t]``.
    """
    tables = [np.array(t) for t in tables]
    yield tables
    for t, (table, order) in enumerate(zip(tables, orders)):
        for x, y in product(*map(range, table.shape)):
            for value in range(order):
                if value != table[x, y]:
                    bad = [u.copy() for u in tables]
                    bad[t][x, y] = value
                    yield bad


def _raw_tables(R):
    """``(add, mul, zero, one)`` of a ring."""
    return R.add_table, R.mul_table, R.zero, R.one


def _near_ring():
    """The maps of Z3 that fix 0, added pointwise and multiplied by ``a * b = b o a``,
    as raw ``(add, mul, zero, one)``.

    Associative, unital and left distributive, but not right distributive.
    """
    maps = [(0, u, v) for u in range(3) for v in range(3)]
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((x + y) % 3 for x, y in zip(f, g))] for g in maps] for f in maps]
    mul = [[index[tuple(g[f[x]] for x in range(3))] for g in maps] for f in maps]
    return np.array(add), np.array(mul), 0, index[(0, 1, 2)]


def _incompatible_module():
    """Columns over Z2, acted on by tri(z2,2) as ``r m`` on the left and ``s^T m`` on the right.

    Each action is unital, additive and associative, but ``(r m) s != r (m s)``.
    """
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    mats = [np.array([[d0, 0], [d1, d2]]) for d0, d1, d2 in product(range(2), repeat=3)]
    vecs = [np.array(v) for v in product(range(2), repeat=2)]
    col = lambda v: int(2 * (v[0] % 2) + v[1] % 2)  # noqa: E731
    lact = [[col(r @ m) for m in vecs] for r in mats]
    ract = [[col(s.T @ m) for s in mats] for m in vecs]
    add = [[x ^ y for y in range(4)] for x in range(4)]
    return T, BimoduleSpec(4, np.array(add), np.array(lact), np.array(ract), 0, tuple("0123")), T


# None keeps the default block size, under which every ring here is one
# block; 5 makes every 3-index scan one row per block, and 40 gives blocks
# of several rows that do not divide the order
_BLOCK_SIZES = (None, 5, 40)


@pytest.mark.parametrize("block", _BLOCK_SIZES)
@pytest.mark.parametrize("case", [
    lambda: _raw_tables(make_zmod(4)),
    lambda: _raw_tables(matrix_ring(make_zmod(2), 2, shape="lower_triangular")),
    _near_ring,
], ids=["z4", "tri(z2,2)", "near-ring"])
def test_axiom_scans_match_whole_table_checks_under_every_corruption(monkeypatch, case, block):
    add, mul, zero, one = case()
    if block is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block)
    for add, mul in _corruptions((add, mul), (len(add), len(add))):
        expected = check.ring_axioms(add, mul, zero, one)  # each law over the whole table
        assert check_ring_axioms(add, mul, zero, one) == expected, expected


# left ring, bimodule, right ring, and whether the rings' tables are
# corrupted too (one ring at a time)
_BIMODULE_CASES = {
    "ideal_bimodule(z8,2)": lambda: (make_zmod(8), ideal_bimodule(make_zmod(8), 2), make_zmod(8),
                                     False),
    "regular_bimodule(z4)": lambda: (make_zmod(4), regular_bimodule(make_zmod(4)), make_zmod(4),
                                     True),
    "regular_bimodule(z2)": lambda: (make_zmod(2), regular_bimodule(make_zmod(2)), make_zmod(2),
                                     True),
    "incompatible": lambda: (*_incompatible_module(), False),
}


@pytest.mark.parametrize("block", _BLOCK_SIZES)
@pytest.mark.parametrize("case", list(_BIMODULE_CASES))
def test_bimodule_scans_match_whole_table_checks_under_every_corruption(monkeypatch, case, block):
    R, M, S, rings_too = _BIMODULE_CASES[case]()
    if block is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block)
    tables = [M.add_table, M.left_action, M.right_action]
    ring_tables = [R.add_table, R.mul_table, S.add_table, S.mul_table]
    orders = [M.order] * 3 + [R.order] * 2 + [S.order] * 2
    if rings_too:
        tables += ring_tables
    for add, lact, ract, *rest in _corruptions(tables, orders):
        radd, rmul, sadd, smul = rest or ring_tables
        bad = BimoduleSpec(M.order, add, lact, ract, M.zero, M.labels)
        left, right = (radd, rmul, R.one), (sadd, smul, S.one)  # a corrupted ring is no ring
        expected = check.bimodule_axioms(add, lact, ract, M.zero, left, right)
        assert check_bimodule(left, bad, right) == expected, expected


def test_ring_from_tables_validates_the_tables_once(monkeypatch):
    calls = []
    validate = rings._validate_tables
    monkeypatch.setattr(rings, "_validate_tables", lambda *a: calls.append(a) or validate(*a))
    R = make_zmod(6)
    ring_from_tables(R.add_table, R.mul_table, R.zero, R.one)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the contract: every FiniteRing is a ring


# Multiplication patches that tests once handed to the engine as hand-made
# rings: the witness check's counting-rule and patched-sum cases, the
# tables on which directly_finite and strongly_clean were false, and z4
# with 0·2 = 2, where strongly_regular read from either side differed.
_ONCE_ACCEPTED = {
    "sum inclusion": ("tri(z2,2)", {(5, 4): 6}),
    "sum of a mask that is no subgroup": ("tri(z2,2)", {(6, 2): 4}),
    "sum a1 in s": ("prod(z2,z2,z2)", {(6, 5): 1}),
    "meet s in a2": ("prod(z2,z2,z2)", {(5, 6): 2}),
    "meet s in a1": ("prod(z2,z2)", {(2, 0): 3, (2, 3): 1, (3, 1): 0}),
    "sum needs subgroups": ("prod(z2,z2,z2)", {(1, 1): 0, (6, 1): 1}),
    "patched sum fault": ("z12", {(2, 2): 2}),
    "directly_finite": ("z4", {(2, 3): 1}),
    "strongly_clean": ("z4", {(3, 3): 0}),
    "strongly_regular sides": ("z4", {(0, 2): 2}),
}


@pytest.mark.parametrize("case", list(_ONCE_ACCEPTED))
def test_a_direct_construction_refuses_tables_that_are_not_a_ring(case, assert_refused):
    text, patches = _ONCE_ACCEPTED[case]
    assert_refused(build_ring(parse_ring_expr(text)), patches)


def test_a_direct_construction_keeps_its_own_copy_of_the_tables():
    Z4 = make_zmod(4)
    for dtype in (np.uint16, np.int64):
        add, mul = Z4.add_table.astype(dtype), Z4.mul_table.astype(dtype)
        R = FiniteRing(4, add, mul, Z4.zero, Z4.one, Z4.labels, "z4")
        add[1, 1], mul[2, 2] = 0, 3  # still a valid index, no longer z4
        assert R == Z4, dtype
        assert R.mul_table.dtype == np.uint16 and not R.mul_table.flags.writeable
    for order, labels in ((5, Z4.labels), (4, Z4.labels[:3])):
        with pytest.raises(ValueError, match=r"order \d, \d labels: tables of order 4"):
            FiniteRing(order, Z4.add_table, Z4.mul_table, Z4.zero, Z4.one, labels)


def test_only_a_direct_construction_checks_the_axioms(monkeypatch):
    calls = []
    for name in ("_validate_tables", "_ring_axioms"):
        real = getattr(rings, name)
        monkeypatch.setattr(rings, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    texts = {"z": "z4", "gf": "gf(2,2)", "prod": "prod(z2,z3)", "mat": "mat(z2,2)",
             "tri": "tri(z2,2)", "poly": "poly(z4,2)", "trivext": "trivext(z4,ideal(2))",
             "opp": "opp(tri(z2,2))"}
    assert set(texts) == set(_RINGS)
    built = {head: build_ring(parse_ring_expr(text)) for head, text in texts.items()}
    T2 = built["tri"]
    copy = pickle.loads(pickle.dumps(T2))
    others = [formal_triangular(T2, T2, zero_bimodule(T2)), pierce_corner(T2, 4),
              opposite(T2)]
    assert calls == []
    assert copy == T2 and all(R.order for R in others)
    ring_from_tables(T2.add_table, T2.mul_table, T2.zero, T2.one)
    assert calls == ["_validate_tables", "_ring_axioms"]


def _kernel_inputs():
    """Tables of every kind the two kernels read, none with a side that divides by 64."""
    rng = np.random.default_rng(5)
    square = rng.integers(0, 150, size=(150, 150)).astype(np.uint16)
    action = rng.integers(0, 70, size=(200, 70)).astype(np.uint16)
    return {
        "c-contiguous": square,
        "transposed view": square.T,
        "rectangular action": action,
        "transposed action": action.T,
        "row slice": square[7:140],
        "row slice of a transposed view": square.T[7:140],
        "opposite ring": opposite(matrix_ring(make_zmod(2), 2, shape="lower_triangular")).mul_table,
    }


@pytest.mark.parametrize("block", (None, 5))
@pytest.mark.parametrize("kind", list(_kernel_inputs()))
def test_kernels_equal_fancy_and_transposed_reads(monkeypatch, kind, block):
    table = _kernel_inputs()[kind]
    if block is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block)
    rows, width = table.shape
    for cols in rings._row_blocks(width, rows):
        got = rings._columns(table, cols)
        assert got.flags.c_contiguous and np.array_equal(got, table[:, cols].T)
    rng = np.random.default_rng(rows)
    for block_rows in rings._row_blocks(rows, width):
        r = np.arange(rows)[block_rows]
        c = rng.integers(0, width, size=(r.size, 3, width))
        assert np.array_equal(rings._gather(table, r[:, None, None], c),
                              table[r[:, None, None], c])
        assert np.array_equal(rings._gather(table, r, c[:, 0, 0]), table[r, c[:, 0, 0]])


def test_kernels_read_a_transposed_view_through_its_base():
    base = np.arange(1 << 20, dtype=np.uint16).reshape(1024, 1024)
    view = base.T
    assert np.shares_memory(rings._columns(view, slice(3, 70)), base)
    rows, cols = np.arange(1024)[:, None], np.arange(8)
    tracemalloc.start()
    got = rings._gather(view, rows, cols)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(got, view[rows, cols])
    assert peak < base.nbytes // 8  # the index and the result, not a copy of the 2 MB table


_SCRATCH_CASES = {  # a builder, the number of distinct masks, the side tables' bound
    # a chain ring: its twelve ideals are every l(b) and every Ra
    "poly(z2,11)": (lambda: truncated_poly(make_zmod(2), 11), 12, 2_400_000),
    # every l(b) and every Ra distinct, the most masks a ring of order 4096 has
    "prod(z2 x12)": (lambda: direct_product([make_zmod(2)] * 12), 4096, 5_800_000),
}


@pytest.mark.parametrize("name", list(_SCRATCH_CASES))
def test_side_tables_and_build_within_their_bounds(name):
    from morphring.ideals import _side_tables
    build, distinct, side_bound = _SCRATCH_CASES[name]
    tracemalloc.start()
    R = build()
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    tables = _side_tables(R)
    side_peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    assert len(tables.masks) == distinct
    # the side tables hold their packed rows (2n x n/8 bytes), half a block of columns and
    # one bool block, and free the rows as the masks are read; the build holds mul_table,
    # one scratch block and its two digit groups' addition tables of at most a block each
    assert side_peak <= side_bound, f"side tables of {name}: {side_peak / 1e6:.2f} MB"
    assert build_peak <= R.mul_table.nbytes + 2_500_000, \
        f"build of {name}: {build_peak / 1e6:.2f} MB"
