"""Tests for the bit-vector ideal engine."""

import json
import re
import time

import numpy as np
import pytest

import morphring.check as check
import morphring.ideals as ideals_module
import morphring.rings as rings_module
from morphring import (
    LatticeOverflow,
    Side,
    all_ideals,
    annihilator,
    direct_product,
    element_census,
    element_class,
    fg_ideal,
    ideal_bimodule,
    is_essential,
    is_ideal,
    jacobson_radical,
    make_gf,
    make_zmod,
    mask_members,
    mask_of,
    matrix_ring,
    opposite,
    pierce_corner,
    principal_ideal,
    singular_ideal,
    socle,
    subgroup_sum,
    truncated_poly,
)
from morphring.classify import _bezout, _exchange_failure, _strongly_clean
from morphring.cli import build_ring, default_corpus, parse_ring_expr, run_command
from morphring.ideals import _lattice, _resolve


def T2():
    return matrix_ring(make_zmod(2), 2, shape="lower_triangular")


def test_mask_helpers_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert mask_members(0b100101) == [0, 2, 5]
    assert mask_members(0) == []


def test_annihilator_zmod4():
    R = make_zmod(4)
    assert annihilator(R, Side.LEFT, [2]) == mask_of([0, 2])
    assert annihilator(R, Side.LEFT, mask_of([2])) == mask_of([0, 2])
    assert annihilator(R, Side.LEFT, []) == mask_of(range(4))
    assert annihilator(R, Side.LEFT, [1]) == mask_of([0])


def test_annihilator_t2_corner_element():
    T = T2()
    E11, E21, E22 = 4, 2, 1
    la = annihilator(T, Side.LEFT, [E21])
    # matrices with zero (2,2) entry
    assert la == mask_of([0, E21, E11, E11 + E21])
    assert la == principal_ideal(T, Side.LEFT, E11 + E21)


def test_annihilator_truncated_z4_not_principal():
    P = truncated_poly(make_zmod(4), 2)
    two, x = 2, 4
    twox = 8
    la = annihilator(P, Side.LEFT, [twox])
    assert bin(la).count("1") == 8
    assert la == fg_ideal(P, Side.LEFT, [two, x])
    # l(2x) = 2R + xR is not principal as a left ideal
    assert all(principal_ideal(P, Side.LEFT, a) != la for a in P.elements)
    # 2xR = l(2) ∩ l(x) is two elements and no single element's left annihilator
    right = principal_ideal(P, Side.RIGHT, twox)
    assert right == mask_of([0, twox])
    assert right == annihilator(P, Side.LEFT, [two]) & annihilator(P, Side.LEFT, [x])
    assert all(annihilator(P, Side.LEFT, [b]) != right for b in P.elements)


def test_principal_ideals():
    R = make_zmod(4)
    assert principal_ideal(R, Side.LEFT, 2) == mask_of([0, 2])
    assert principal_ideal(R, Side.LEFT, 3) == mask_of(range(4))
    T = T2()
    assert principal_ideal(T, Side.LEFT, 2) == mask_of([0, 2])
    with pytest.raises(ValueError):
        principal_ideal(R, Side.LEFT, 9)


def test_fg_ideal_z12():
    R = make_zmod(12)
    assert fg_ideal(R, Side.LEFT, [4, 6]) == mask_of([0, 2, 4, 6, 8, 10])
    assert fg_ideal(R, Side.LEFT, [4, 6]) == principal_ideal(R, Side.LEFT, 2)
    assert fg_ideal(R, Side.LEFT, [0]) == mask_of([0])
    for a in R.elements:
        assert fg_ideal(R, Side.LEFT, [a]) == principal_ideal(R, Side.LEFT, a)
    with pytest.raises(ValueError):
        fg_ideal(R, Side.LEFT, [])


def test_subgroup_sum_cosets():
    R = make_zmod(9)
    sub = mask_of([0, 3, 6])
    assert subgroup_sum(R, sub, mask_of([0])) == sub
    assert subgroup_sum(R, sub, mask_of([0, 3, 6])) == sub
    assert subgroup_sum(R, sub, principal_ideal(R, Side.LEFT, 1)) == mask_of(range(9))
    Z12 = make_zmod(12)
    assert subgroup_sum(Z12, mask_of([0, 4, 8]), mask_of([0, 6])) == mask_of([0, 2, 4, 6, 8, 10])


def test_is_ideal():
    R = make_zmod(4)
    assert is_ideal(R, Side.LEFT, mask_of([0, 2]))
    assert not is_ideal(R, Side.LEFT, mask_of([0, 1]))
    assert not is_ideal(R, Side.LEFT, mask_of([2]))  # no zero bit
    T = T2()
    assert is_ideal(T, Side.LEFT, mask_of([0, 2]))
    # aR for a = E21 is {0, E21} on the right too
    assert is_ideal(T, Side.RIGHT, principal_ideal(T, Side.RIGHT, 2))
    with pytest.raises(ValueError):
        is_ideal(R, Side.LEFT, mask_of([0, 9]))


def test_element_and_mask_arguments_are_checked():
    # Each call misbehaved without a check: a negative generator wrapped
    # around to the last element, a large one raised IndexError, the
    # annihilator of a mask or element past the order raised OverflowError,
    # and so did a sum with such a mask, where a sum with -1 returned -1.
    R = make_zmod(4)
    bad_calls = [
        (fg_ideal, [-1], "element index -1 out of range [0, 4)"),
        (fg_ideal, [7], "element index 7 out of range [0, 4)"),
        (fg_ideal, [1, 4], "element index 4 out of range [0, 4)"),
        (annihilator, 1 << 10, "mask has bits beyond ring order 4"),
        (annihilator, -1, "mask has bits beyond ring order 4"),
        (annihilator, [9], "element index 9 out of range [0, 4)"),
        (annihilator, [-1], "element index -1 out of range [0, 4)"),
        (principal_ideal, -1, "element index -1 out of range [0, 4)"),
        (element_class, 4, "element index 4 out of range [0, 4)"),
    ]
    for side in Side:
        for function, argument, text in bad_calls:
            with pytest.raises(ValueError, match=re.escape(text)):
                function(R, side, argument)
    for m1, m2 in ((1 << 10, 1), (-1, 3), (1, 1 << 10), (3, -1)):
        with pytest.raises(ValueError, match=re.escape("mask has bits beyond ring order 4")):
            subgroup_sum(R, m1, m2)
    for function in (ideal_bimodule, pierce_corner):
        with pytest.raises(ValueError, match=re.escape("element index 5 out of range [0, 4)")):
            function(R, 5)


def test_all_ideals_counts():
    assert len(all_ideals(make_zmod(4), Side.LEFT)) == 3
    assert len(all_ideals(make_zmod(6), Side.LEFT)) == 4
    assert len(all_ideals(make_zmod(12), Side.LEFT)) == 6
    field = all_ideals(make_gf(2, 1), Side.LEFT)
    assert field == [mask_of([0]), mask_of([0, 1])]


def test_all_ideals_t2():
    T = T2()
    E11, E21, E22 = 4, 2, 1
    left = all_ideals(T, Side.LEFT)
    expected = sorted(
        [
            mask_of([0]),
            mask_of([0, E21]),
            mask_of([0, E22]),
            mask_of([0, E21 + E22]),
            mask_of([0, E21, E22, E21 + E22]),
            mask_of([0, E21, E11, E11 + E21]),
            mask_of(range(8)),
        ]
    )
    assert left == expected
    assert all(is_ideal(T, Side.LEFT, m) for m in left)
    # the opposite ring has as many, by the transpose anti-isomorphism
    assert len(all_ideals(T, Side.RIGHT)) == 7


def test_all_ideals_matrix_ring():
    M = matrix_ring(make_zmod(2), 2)
    left = all_ideals(M, Side.LEFT)
    assert len(left) == 5
    assert all(is_ideal(M, Side.LEFT, m) for m in left)
    two_sided = [m for m in left if is_ideal(M, Side.RIGHT, m)]
    assert len(two_sided) == 2  # simple ring


def test_all_ideals_overflow_is_loud(monkeypatch):
    with pytest.raises(LatticeOverflow):
        all_ideals(make_zmod(4), Side.LEFT, cap=2)
    # a cached lattice is checked against the cap of every later call
    R = make_zmod(12)
    lattice = all_ideals(R, Side.LEFT)
    assert len(lattice) == 6
    lattice.clear()
    monkeypatch.setattr(ideals_module, "subgroup_sum", None)  # no second enumeration
    with pytest.raises(LatticeOverflow, match="^more than 5 left ideals; raise IDEAL_LATTICE_CAP$"):
        all_ideals(R, Side.LEFT, cap=5)
    assert len(all_ideals(R, Side.LEFT, cap=6)) == 6


def test_lattice_overflow_is_recorded(monkeypatch):
    # z2^5 has 32 ideals, each principal
    R = direct_product([make_zmod(2)] * 5)
    with pytest.raises(LatticeOverflow):
        all_ideals(R, Side.LEFT, cap=10)
    real, sums = ideals_module.subgroup_sum, []
    monkeypatch.setattr(ideals_module, "subgroup_sum",
                        lambda *args: sums.append(args) or real(*args))
    for cap in (10, 3):  # at or below the cap that overflowed: no second enumeration
        with pytest.raises(LatticeOverflow,
                           match=f"^more than {cap} right ideals; raise IDEAL_LATTICE_CAP$"):
            all_ideals(R, Side.RIGHT, cap=cap)  # commutative: the left lattice
    assert sums == []
    assert len(all_ideals(R, Side.LEFT, cap=32)) == 32
    assert sums


def test_bezout_reads_the_one_lattice(monkeypatch):
    # tri(z2,3) is not Bezout on either side; its lattices fit the default cap
    R = matrix_ring(make_zmod(2), 3, shape="lower_triangular")
    flags = [_bezout(R, side) for side in Side]
    assert [(f.status, f.counterexample) for f in flags] == [check.bezout(*_raw(R, s)) for s in Side]
    monkeypatch.setattr(ideals_module, "subgroup_sum", None)  # no second enumeration
    for side in Side:
        assert all_ideals(R, side) == check.all_ideals(*_raw(R, side)), side


def test_element_census_zmod4():
    c = element_census(make_zmod(4))
    assert c.units == mask_of([1, 3])
    assert c.idempotents == mask_of([0, 1])
    assert c.nilpotents == mask_of([0, 2])


def test_element_census_zmod6():
    c = element_census(make_zmod(6))
    assert c.units == mask_of([1, 5])
    assert c.idempotents == mask_of([0, 1, 3, 4])
    assert c.nilpotents == mask_of([0])


def test_element_census_t2():
    c = element_census(T2())
    assert bin(c.units).count("1") == 2
    assert bin(c.idempotents).count("1") == 6


def test_jacobson_radical():
    assert jacobson_radical(make_zmod(4)) == mask_of([0, 2])
    assert jacobson_radical(make_zmod(6)) == mask_of([0])
    assert jacobson_radical(T2()) == mask_of([0, 2])
    M = matrix_ring(make_zmod(2), 2)
    assert jacobson_radical(M) == mask_of([0])


def test_jacobson_radical_is_intersection_of_maximal_left_ideals():
    for R in (make_zmod(12), T2(), truncated_poly(make_zmod(2), 3)):
        ideals = all_ideals(R, Side.LEFT)
        full = mask_of(range(R.order))
        proper = [m for m in ideals if m != full]
        maximal = [
            m for m in proper
            if not any(other != m and m & ~other == 0 for other in proper)
        ]
        meet = full
        for m in maximal:
            meet &= m
        assert jacobson_radical(R) == meet


def test_unit_translates_of_radical_are_units():
    for R in (make_zmod(8), T2()):
        units = element_census(R).units
        for j in mask_members(jacobson_radical(R)):
            assert (units >> R.add(R.one, j)) & 1


def test_is_essential():
    Z4 = make_zmod(4)
    assert is_essential(Z4, Side.RIGHT, mask_of([0, 2]))
    assert is_essential(Z4, Side.RIGHT, mask_of(range(4)))
    Z6 = make_zmod(6)
    assert not is_essential(Z6, Side.RIGHT, mask_of([0, 3]))
    with pytest.raises(ValueError):
        is_essential(Z4, Side.LEFT, mask_of([0, 1]))


def test_singular_ideals():
    assert singular_ideal(make_zmod(4), Side.RIGHT) == mask_of([0, 2])
    assert singular_ideal(make_zmod(6), Side.RIGHT) == mask_of([0])
    assert singular_ideal(make_gf(2, 2), Side.RIGHT) == mask_of([0])
    assert singular_ideal(make_gf(3, 1), Side.LEFT) == mask_of([0])


def test_socles():
    assert socle(make_zmod(4), Side.RIGHT) == mask_of([0, 2])
    assert socle(make_zmod(8), Side.RIGHT) == mask_of([0, 4])
    assert socle(make_zmod(6), Side.LEFT) == mask_of(range(6))
    assert socle(make_zmod(6), Side.RIGHT) == mask_of(range(6))


def test_socle_and_singular_are_ideals_of_claimed_side():
    for R in (make_zmod(12), T2(), truncated_poly(make_zmod(2), 2)):
        for side in (Side.LEFT, Side.RIGHT):
            assert is_ideal(R, side, socle(R, side))
            assert is_ideal(R, side, singular_ideal(R, side))


def test_annihilator_is_inclusion_reversing():
    R = make_zmod(12)
    small = mask_of([4])
    large = mask_of([4, 6])
    for side in (Side.LEFT, Side.RIGHT):
        big_ann = annihilator(R, side, small)
        small_ann = annihilator(R, side, large)
        assert small_ann & ~big_ann == 0


def test_triple_annihilator_identity():
    for R in (make_zmod(12), T2(), truncated_poly(make_zmod(4), 2)):
        for a in R.elements:
            left = annihilator(R, Side.LEFT, [a])
            assert annihilator(R, Side.LEFT, annihilator(R, Side.RIGHT, left)) == left
            right = annihilator(R, Side.RIGHT, [a])
            assert annihilator(R, Side.RIGHT, annihilator(R, Side.LEFT, right)) == right


def _raw(R, side):  # (add, mul, zero) of R, the multiplication read on the side
    return R.add_table, R.mul_table if side is Side.LEFT else R.mul_table.T, R.zero


def test_side_tables_match_set_computations_on_corpus(monkeypatch):
    # at 5 entries every column block of the side tables is one column; at 512 a
    # block of 16-column rings scatters Ra two rows at a time
    block_sizes = (rings_module._BLOCK_ENTRIES, 5, 512)
    for text, block in ((text, block) for text in default_corpus(64) for block in block_sizes):
        monkeypatch.setattr(rings_module, "_BLOCK_ENTRIES", block)
        R = build_ring(parse_ring_expr(text))
        for side in Side:  # l(b) and Ra on the left, r(b) and aR on the right
            _, mul, zero = _raw(R, side)
            ann, pri = check.annihilators(mul, zero), check.principals(mul)
            _, tables = _resolve(R, side)
            masks = tables.masks
            assert all(m1 < m2 for m1, m2 in zip(masks, masks[1:])), (text, side)
            assert set(masks) == set(ann + pri), (text, side)
            assert tables.index == {m: i for i, m in enumerate(masks)}, (text, side)
            for ids in (tables.ann_id, tables.pri_id, tables.ann_least, tables.pri_least):
                assert ids.dtype == np.int32
            assert [masks[i] for i in tables.ann_id] == ann, (text, side)
            assert [masks[i] for i in tables.pri_id] == pri, (text, side)
            for per_element, least in ((ann, tables.ann_least), (pri, tables.pri_least)):
                first = check.least(per_element)
                assert least.tolist() == [first.get(m, -1) for m in masks], (text, side)


def test_census_radical_and_clean_match_element_scans_on_corpus(monkeypatch):
    # at 5 entries every census block is one row
    block_sizes = (rings_module._BLOCK_ENTRIES, 5)
    for text, flip in ((text, flip) for text in default_corpus(64) for flip in (False, True)):
        expected = None
        for block in block_sizes:
            monkeypatch.setattr(rings_module, "_BLOCK_ENTRIES", block)
            ring = build_ring(parse_ring_expr(text))
            R = opposite(ring) if flip else ring
            expected = expected or check.census(R.add_table, R.mul_table, R.zero, R.one)
            census = element_census(R)
            for name in ("units", "idempotents", "nilpotents"):
                assert getattr(census, name) == expected[name], (text, flip, name)
            assert jacobson_radical(R) == expected["radical"], (text, flip)
            assert _strongly_clean(R).status is expected["strongly_clean"], (text, flip)


def _corpus(max_order):
    return [(text, build_ring(parse_ring_expr(text))) for text in default_corpus(max_order)]


def test_subgroup_sum_matches_the_formed_sum_on_corpus():
    for text, R in _corpus(64):
        for side in Side:
            add, mul, zero = _raw(R, side)
            masks = sorted(set(check.principals(mul)) | set(check.annihilators(mul, zero)))
            elements = [check.members(m) for m in masks]
            for m1, xs in zip(masks, elements):
                assert [subgroup_sum(R, m1, m2) for m2 in masks] == check.sums(add, xs, elements), text


def test_essential_and_singular_match_their_definitions_on_corpus():
    # Essential: meets every nonzero ideal of the reference lattice beyond
    # zero; singular: the elements whose annihilator on that side is essential.
    for text, R in _corpus(64):
        for side in Side:
            add, mul, zero = _raw(R, side)
            lattice = check.all_ideals(add, mul, zero)
            assert [is_essential(R, side, m) for m in lattice] == [
                check.essential(lattice, zero, m) for m in lattice], text
            assert singular_ideal(R, side) == check.singular(mul, zero, lattice), (text, side)


def test_is_ideal_matches_the_reference_lattice_on_corpus():
    # An ideal less one nonzero member has |I| - 1 elements, so it is a
    # subgroup only when |I| = 2, which leaves {0}
    for text, R in _corpus(64):
        for side in Side:
            add, mul, zero = _raw(R, side)
            for ideal in check.all_ideals(add, mul, zero):
                assert is_ideal(R, side, ideal), (text, side, ideal)
                for x in check.members(ideal & ~(1 << zero)):
                    rest = ideal & ~(1 << x)
                    assert is_ideal(R, side, rest) is (rest == 1 << zero), (text, side, rest)


def test_lattice_engine_matches_pair_loops_on_corpus():
    for text, R in _corpus(256):
        for side in Side:
            lattice = all_ideals(R, side)
            assert lattice == check.all_ideals(*_raw(R, side)), (text, side)
            flag = _bezout(R, side)
            assert (flag.status, flag.counterexample) == check.bezout(*_raw(R, side)), (text, side)
            assert _exchange_failure(R, side, _lattice(R, side)) == check.exchange_failure(
                *_raw(R, side), lattice), (text, side)
            other = _raw(R, side)[1].T  # the other side's multiplication
            assert list(_lattice(R, side).values()) == [
                check.annihilator(other, R.zero, m) for m in lattice], (text, side)


def test_lattice_overflow_text_and_bezout_fallback(monkeypatch):
    # z12 is Bezout on both sides, the others on neither
    for text in ("poly(z4,2)", "tri(z2,3)", "z12", "trivext(z8,ideal(2))"):
        for side in (Side.LEFT, Side.RIGHT):
            size = len(all_ideals(build_ring(parse_ring_expr(text)), side))
            for cap in (1, size // 2, size - 1):
                R = build_ring(parse_ring_expr(text))
                with pytest.raises(LatticeOverflow) as info:
                    all_ideals(R, side, cap=cap)
                assert str(info.value) == f"more than {cap} {side.value} ideals; raise IDEAL_LATTICE_CAP"
                monkeypatch.setenv("IDEAL_LATTICE_CAP", str(cap))
                fresh = build_ring(parse_ring_expr(text))
                flag = _bezout(fresh, side)
                assert (flag.status, flag.counterexample) == check.bezout(*_raw(fresh, side)), (text, side, cap)
                monkeypatch.delenv("IDEAL_LATTICE_CAP")
                assert len(all_ideals(R, side, cap=size)) == size


def test_bezout_ignores_the_lattice_cap(monkeypatch, capsys):
    # 512 ideals per side, all principal, against a lattice cap of 100
    text = "prod(" + ",".join(["z2"] * 9) + ")"
    monkeypatch.setenv("IDEAL_LATTICE_CAP", "100")
    R = build_ring(parse_ring_expr(text))
    start = time.perf_counter()
    flags = [(flag.status, flag.counterexample) for flag in (_bezout(R, side) for side in Side)]
    assert time.perf_counter() - start < 2.0
    assert flags == [check.bezout(*_raw(R, Side.LEFT))] * 2 == [(True, None)] * 2  # commutative
    assert run_command(["classify", text, "--json"]) == 0
    status = {r["predicate"]: r["status"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert status["bezout_left"] == status["bezout_right"] == "true"
    assert status["dual_ring"] == "indeterminate"
