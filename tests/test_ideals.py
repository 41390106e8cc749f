"""Tests for the bit-vector ideal engine."""

import json
import re
import time

import numpy as np
import pytest

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
    from morphring.classify import _bezout

    # tri(z2,3) is not Bezout on either side; its lattices fit the default cap
    R = matrix_ring(make_zmod(2), 3, shape="lower_triangular")
    rings = (R, opposite(R))
    flags = [_bezout(R, side) for side in Side]
    assert [(flag.status, flag.counterexample) for flag in flags] == list(map(_ref_bezout, rings))
    monkeypatch.setattr(ideals_module, "subgroup_sum", None)  # no second enumeration
    assert [all_ideals(R, side) for side in Side] == list(map(_ref_all_ideals, rings))


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


def test_side_tables_match_set_computations_on_corpus(monkeypatch):
    from morphring.cli import build_ring, default_corpus, parse_ring_expr
    from morphring.ideals import _resolve

    # at 5 entries every column block of the side tables is one column
    block_sizes = (rings_module._BLOCK_ENTRIES, 5)
    for text, block in ((text, block) for text in default_corpus(64) for block in block_sizes):
        monkeypatch.setattr(rings_module, "_BLOCK_ENTRIES", block)
        R = build_ring(parse_ring_expr(text))
        rows = R.mul_table.tolist()
        elements = range(R.order)
        expected = {
            # l(b) = {x : xb = 0} and Ra = {xa}
            Side.LEFT: ([{x for x in elements if rows[x][b] == R.zero} for b in elements],
                        [{rows[x][a] for x in elements} for a in elements]),
            # r(b) = {x : bx = 0} and aR = {ax}
            Side.RIGHT: ([{x for x in elements if rows[b][x] == R.zero} for b in elements],
                         [{rows[a][x] for x in elements} for a in elements]),
        }
        for side, (ann_sets, pri_sets) in expected.items():
            _, tables = _resolve(R, side)
            masks = tables.masks
            assert all(m1 < m2 for m1, m2 in zip(masks, masks[1:])), (text, side)
            assert set(masks) == {mask_of(s) for s in ann_sets + pri_sets}, (text, side)
            assert tables.index == {m: i for i, m in enumerate(masks)}, (text, side)
            for ids in (tables.ann_id, tables.pri_id, tables.ann_least, tables.pri_least):
                assert ids.dtype == np.int32
            assert [set(mask_members(masks[i])) for i in tables.ann_id] == ann_sets, (text, side)
            assert [set(mask_members(masks[i])) for i in tables.pri_id] == pri_sets, (text, side)
            for i, m in enumerate(masks):
                members = set(mask_members(m))
                for sets, least in ((ann_sets, tables.ann_least), (pri_sets, tables.pri_least)):
                    generators = [c for c in elements if sets[c] == members]
                    assert least[i] == (min(generators) if generators else -1), (text, side, m)


def test_census_radical_and_clean_match_element_scans_on_corpus(monkeypatch):
    from morphring.classify import _strongly_clean
    from morphring.cli import build_ring, default_corpus, parse_ring_expr

    # at 5 entries every census block is one row
    block_sizes = (rings_module._BLOCK_ENTRIES, 5)

    def built(text, flip):
        ring = build_ring(parse_ring_expr(text))
        return opposite(ring) if flip else ring

    for text, flip in ((text, flip) for text in default_corpus(64) for flip in (False, True)):
        R = built(text, flip)
        add, mul = R.add_table.tolist(), R.mul_table.tolist()
        elements = range(R.order)
        units = [a for a in elements
                 if any(mul[a][b] == R.one == mul[b][a] for b in elements)]
        idempotents = [a for a in elements if mul[a][a] == a]
        nilpotents = []
        for a in elements:
            p = a
            for _ in elements:
                if p == R.zero:
                    nilpotents.append(a)
                    break
                p = mul[p][a]
        neg = [add[x].index(R.zero) for x in elements]
        radical = [a for a in elements
                   if all(add[R.one][neg[mul[x][a]]] in units for x in elements)]
        clean = all(any(add[a][neg[e]] in units
                        and mul[e][add[a][neg[e]]] == mul[add[a][neg[e]]][e]
                        for e in idempotents) for a in elements)
        for block in block_sizes:
            monkeypatch.setattr(rings_module, "_BLOCK_ENTRIES", block)
            R = built(text, flip)
            census = element_census(R)
            assert mask_members(census.units) == units, (text, flip)
            assert mask_members(census.idempotents) == idempotents, (text, flip)
            assert mask_members(census.nilpotents) == nilpotents, (text, flip)
            assert mask_members(jacobson_radical(R)) == radical, (text, flip)
            assert _strongly_clean(R).status is clean, (text, flip)


# Reference lattice engine: cyclic extension of subgroups over add rows for
# ``subgroup_sum`` itself, and for the lattice, Bezout and exchange-law
# references every sum ``A + B`` formed as the set ``{x + y}`` of all pairs.


def _ref_subgroup_sum(add, m1, m2):
    res = m1
    for g in mask_members(m2):
        if (res >> g) & 1:
            continue
        sub, shift = res, g
        while not (res >> shift) & 1:
            for x in mask_members(sub):
                res |= 1 << add[x][shift]
            shift = add[shift][g]
    return res


def _row_masks(member):
    """The bit mask of each row of a boolean matrix."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(member, axis=1, bitorder="little")]


def _ref_sums(ring, xs, rest):
    """The mask of ``{x + y}`` for ``x`` in ``xs`` and ``y`` in each element list of ``rest``."""
    owner = np.repeat(np.arange(len(rest)), [len(ys) for ys in rest])
    ys = np.array([y for members in rest for y in members], dtype=np.intp)
    member = np.zeros((len(rest), ring.order), dtype=bool)
    member[owner, ring.add_table[np.array(xs)[:, None], ys]] = True
    return _row_masks(member)


def _side_ring(R, side):
    return opposite(R) if side is Side.RIGHT else R


def _ref_principals(ring):
    """Each distinct left principal ideal ``Ra`` (column ``a``) with its least ``a``, ascending."""
    member = np.zeros((ring.order, ring.order), dtype=bool)
    member[np.arange(ring.order)[:, None], ring.mul_table.T] = True
    least = {}
    for a, mask in enumerate(_row_masks(member)):
        least.setdefault(mask, a)
    return dict(sorted(least.items()))


def _ref_annihilators(ring):
    """The distinct left annihilators ``l(b)`` (the zeros of column ``b``)."""
    return set(_row_masks(ring.mul_table.T == ring.zero))


def _ref_all_ideals(ring):
    """Breadth-first closure from {0} by single principal-ideal extensions."""
    zero_mask = 1 << ring.zero
    generators = {m: mask_members(m) for m in _ref_principals(ring) if m != zero_mask}
    found = {zero_mask}
    frontier = [zero_mask]
    while frontier:
        next_frontier = []
        for ideal in frontier:
            rest = [members for m, members in generators.items() if m & ~ideal]
            for bigger in _ref_sums(ring, mask_members(ideal), rest):
                if bigger not in found:
                    found.add(bigger)
                    next_frontier.append(bigger)
        frontier = next_frontier
    return sorted(found)


def _ref_bezout(ring):
    least = _ref_principals(ring)
    masks = list(least)
    members = [mask_members(m) for m in masks]
    for i, m1 in enumerate(masks[:-1]):
        for m2, total in zip(masks[i + 1 :], _ref_sums(ring, members[i], members[i + 1 :])):
            if total not in least:
                return False, (least[m1], least[m2])
    return True, None


def _ref_exchange_failure(R, side, ideals):
    other = Side.RIGHT if side is Side.LEFT else Side.LEFT
    members = [mask_members(annihilator(R, other, m)) for m in ideals]
    for i, m1 in enumerate(ideals):
        for m2, total in zip(ideals[i:], _ref_sums(R, members[i], members[i:])):
            lhs = annihilator(R, other, m1 & m2)
            if lhs != total:
                return m1, m2, lhs, total
    return None


def _corpus(max_order):
    from morphring.cli import build_ring, default_corpus, parse_ring_expr

    return [(text, build_ring(parse_ring_expr(text))) for text in default_corpus(max_order)]


def test_subgroup_sum_matches_cyclic_extension_on_corpus():
    for text, R in _corpus(64):
        add = R.add_table.tolist()
        for side in (Side.LEFT, Side.RIGHT):
            ring = _side_ring(R, side)
            masks = sorted(set(_ref_principals(ring)) | _ref_annihilators(ring))
            for m1 in masks:
                for m2 in masks:
                    assert subgroup_sum(ring, m1, m2) == _ref_subgroup_sum(add, m1, m2), text


def test_essential_and_singular_match_their_definitions_on_corpus():
    # Essential: meets every nonzero ideal of the reference lattice beyond
    # zero; singular: the elements whose annihilator on that side is essential.
    for text, R in _corpus(64):
        for side in (Side.LEFT, Side.RIGHT):
            ring = _side_ring(R, side)
            rows = ring.mul_table.tolist()
            zero_bit = 1 << ring.zero
            lattice = _ref_all_ideals(ring)

            def essential(mask):
                return all(mask & ideal & ~zero_bit for ideal in lattice if ideal != zero_bit)

            assert [is_essential(R, side, m) for m in lattice] == [essential(m) for m in lattice], text
            singular = mask_of(a for a in ring.elements
                               if essential(mask_of(x for x in ring.elements if rows[x][a] == ring.zero)))
            assert singular_ideal(R, side) == singular, (text, side)


def test_lattice_engine_matches_pair_loops_on_corpus():
    from morphring.classify import _bezout, _exchange_failure

    for text, R in _corpus(256):
        for side in (Side.LEFT, Side.RIGHT):
            ring = _side_ring(R, side)
            lattice = all_ideals(R, side)
            assert lattice == _ref_all_ideals(ring), (text, side)
            flag = _bezout(R, side)
            assert (flag.status, flag.counterexample) == _ref_bezout(ring), (text, side)
            assert _exchange_failure(R, side, lattice) == _ref_exchange_failure(R, side, lattice), (text, side)


def test_lattice_overflow_text_and_bezout_fallback(monkeypatch):
    from morphring.classify import _bezout
    from morphring.cli import build_ring, parse_ring_expr

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
                assert (flag.status, flag.counterexample) == _ref_bezout(_side_ring(fresh, side)), (text, side, cap)
                monkeypatch.delenv("IDEAL_LATTICE_CAP")
                assert len(all_ideals(R, side, cap=size)) == size


def test_bezout_ignores_the_lattice_cap(monkeypatch, capsys):
    from morphring.classify import _bezout
    from morphring.cli import build_ring, parse_ring_expr, run_command

    # 512 ideals per side, all principal, against a lattice cap of 100
    text = "prod(" + ",".join(["z2"] * 9) + ")"
    monkeypatch.setenv("IDEAL_LATTICE_CAP", "100")
    R = build_ring(parse_ring_expr(text))
    start = time.perf_counter()
    flags = [(flag.status, flag.counterexample) for flag in (_bezout(R, side) for side in Side)]
    assert time.perf_counter() - start < 2.0
    assert flags == [_ref_bezout(R)] * 2 == [(True, None)] * 2  # commutative: one reference
    assert run_command(["classify", text, "--json"]) == 0
    status = {r["predicate"]: r["status"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert status["bezout_left"] == status["bezout_right"] == "true"
    assert status["dual_ring"] == "indeterminate"
