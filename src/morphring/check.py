"""The definitional reference: each ring concept the engine decides fast, stated once.

Every function reads raw tables (``add`` and ``mul``, square arrays of element indices,
and the indices ``zero`` and ``one``), which need not be a ring, and states a concept by
its definition, with no class ids, counting rules or caches.  Left-sided concepts read
``mul``; pass ``mul.T`` for the right side.  A subset is a bit mask, bit ``i`` for element
``i``.  Only numpy is imported, so the tests' oracle shares no code with the engine;
``search`` loads it only to re-validate a hit.
"""

from __future__ import annotations

import functools
import operator

import numpy as np


def _row_masks(member: np.ndarray) -> list[int]:
    """The bit mask of each row of a boolean matrix."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(member, axis=1, bitorder="little")]


def members(mask: int) -> list[int]:
    """The elements of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def least(values) -> dict:
    """Each distinct entry of a per-element list with the least element that has it, ascending."""
    first: dict = {}
    for a, value in enumerate(values):
        first.setdefault(value, a)
    return dict(sorted(first.items()))


def principals(mul) -> list[int]:
    """Per element ``a``, the mask of ``Ra = {xa}``."""
    mul = np.asarray(mul)
    member = np.zeros(mul.shape, dtype=bool)
    member[np.arange(len(mul))[:, None], mul.T] = True
    return _row_masks(member)


def annihilators(mul, zero: int) -> list[int]:
    """Per element ``b``, the mask of ``l(b) = {x : xb = 0}``."""
    return _row_masks(np.asarray(mul).T == zero)


def annihilator(mul, zero: int, mask: int) -> int:
    """The mask of ``l(S) = {x : xs = 0 for every s in S}``; ``l`` of the empty set is the ring."""
    return _row_masks((np.asarray(mul)[:, members(mask)] == zero).all(axis=1)[None])[0]


def witnesses(mul, zero: int) -> list[tuple]:
    """Per element ``a``: the least ``b`` with ``Ra = l(b)`` (pseudo), with ``l(a) = Rb``
    (generalized) and with both (morphic), each None when there is none."""
    pri, ann = principals(mul), annihilators(mul, zero)
    by_ann, by_pri, by_both = least(ann), least(pri), least(zip(ann, pri))
    return [(by_ann.get(p), by_pri.get(q), by_both.get((p, q))) for p, q in zip(pri, ann)]


def left_flags(mul, zero: int) -> tuple[bool, bool]:
    """(pseudo, generalized): every ``Ra`` is some ``l(b)``, and every ``l(a)`` some ``Rb``."""
    pri, ann = set(principals(mul)), set(annihilators(mul, zero))
    return pri <= ann, ann <= pri


def sums(add, xs, rest) -> list[int]:
    """The mask of ``{x + y}`` for ``x`` in ``xs`` and ``y`` in each element list of ``rest``."""
    add = np.asarray(add)
    owner = np.repeat(np.arange(len(rest)), [len(ys) for ys in rest])
    ys = np.array([y for group in rest for y in group], dtype=np.intp)
    member = np.zeros((len(rest), len(add)), dtype=bool)
    member[owner, add[np.array(xs, dtype=np.intp)[:, None], ys]] = True
    return _row_masks(member)


def subgroup_sum(add, m1: int, m2: int) -> int:
    """The mask of ``A + B = {x + y}``, the sum of two additive subgroups."""
    return sums(add, members(m1), [members(m2)])[0]


def all_ideals(add, mul, zero: int) -> list[int]:
    """Every left ideal, ascending: the closure of ``{0}`` under adding a principal ideal."""
    zero_mask = 1 << zero
    generators = {m: members(m) for m in least(principals(mul)) if m != zero_mask}
    found, frontier = {zero_mask}, [zero_mask]
    while frontier:
        bigger = [total for ideal in frontier for total in sums(
            add, members(ideal), [g for m, g in generators.items() if m & ~ideal])]
        frontier = [m for m in dict.fromkeys(bigger) if m not in found]
        found.update(frontier)
    return sorted(found)


def bezout(add, mul, zero: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether every sum of two principal left ideals is principal; if not, the least
    generators of the first pair of principal ideals, as ascending masks, whose sum is not."""
    first = least(principals(mul))
    masks = list(first)
    elements = [members(m) for m in masks]
    for i, m1 in enumerate(masks[:-1]):
        for m2, total in zip(masks[i + 1:], sums(add, elements[i], elements[i + 1:])):
            if total not in first:
                return False, (first[m1], first[m2])
    return True, None


def exchange_failure(add, mul, zero: int, ideals: list[int]) -> tuple[int, int, int, int] | None:
    """The first pair ``i <= j`` of the left ideals with ``r(I1 ∩ I2) != r(I1) + r(I2)``, as
    ``(I1, I2, r(I1 ∩ I2), r(I1) + r(I2))``, or None; ``r`` is the right annihilator."""
    right = functools.cache(functools.partial(annihilator, np.asarray(mul).T, zero))
    anns = [members(right(m)) for m in ideals]
    for i, m1 in enumerate(ideals):
        for m2, total in zip(ideals[i:], sums(add, anns[i], anns[i:])):
            if right(m1 & m2) != total:
                return m1, m2, right(m1 & m2), total
    return None


def essential(lattice: list[int], zero: int, mask: int) -> bool:
    """``mask`` meets every nonzero ideal of ``lattice`` beyond zero."""
    zero_bit = 1 << zero
    return all(mask & ideal & ~zero_bit for ideal in lattice if ideal != zero_bit)


def singular(mul, zero: int, lattice: list[int]) -> int:
    """The mask of the elements whose left annihilator is essential in the left ``lattice``."""
    return sum(1 << a for a, m in enumerate(annihilators(mul, zero))
               if essential(lattice, zero, m))


def _units(mul, one: int) -> np.ndarray:
    """Per element: it has a two-sided inverse."""
    return ((mul == one) & (mul.T == one)).any(axis=1)


def census(add, mul, zero: int, one: int) -> dict:
    """The masks of the units, idempotents (``a² = a``), nilpotents (``aᵏ = 0`` for some
    ``k <= n``) and radical (every ``1 - xa`` a unit), and whether the ring is strongly
    clean: every ``a`` is ``e + u``, ``e`` an idempotent and ``u`` a unit with ``eu = ue``."""
    add, mul = np.asarray(add), np.asarray(mul)
    idx = np.arange(len(mul))
    units, idempotents = _units(mul, one), mul.diagonal() == idx
    nilpotents, power = np.zeros(len(mul), dtype=bool), idx
    for _ in idx:
        nilpotents |= power == zero
        power = mul[power, idx]
    neg = (add == zero).argmax(axis=1)
    e = np.flatnonzero(idempotents)
    u = add[:, neg[e]]  # [a, e]: a - e
    radical = units[add[one, neg[mul]]].all(axis=0)  # [x, a]: 1 - xa
    found = _row_masks(np.stack([units, idempotents, nilpotents, radical]))
    return {**dict(zip(("units", "idempotents", "nilpotents", "radical"), found)),
            "strongly_clean": bool((units[u] & (mul[e, u] == mul[u, e])).any(axis=1).all())}


def element_definitions(mul, zero: int, one: int) -> dict:
    """The element predicates the class-table flags decide, by definition, one element at a time."""
    mul = np.asarray(mul)
    units = np.flatnonzero(_units(mul, one))
    return {
        "regular": lambda a: (mul[mul[a], a] == a).any(),                  # axa = a
        "unit_regular": lambda a: (mul[mul[a, units], a] == a).any(),      # aua = a, u a unit
        "strongly_regular": lambda a: (mul[mul[a, a]] == a).any(),         # a²x = a
        "semiprime": lambda a: a == zero or (mul[mul[a], a] != zero).any(),  # aRa != 0
    }


def symmetry_violation(mul, zero: int) -> tuple[int, int, int] | None:
    """The least ``(a, b, c)`` in row-major order with ``abc = 0`` but ``acb`` or ``bac``
    nonzero: the two transpositions generate every reordering."""
    mul = np.asarray(mul)
    idx = np.arange(len(mul))
    for a in idx.tolist():
        abc = mul[mul[a][:, None], idx[None, :]]     # [b, c] = (ab)c
        acb = mul[mul[a][None, :], idx[:, None]]     # [b, c] = (ac)b
        bac = mul[mul[:, a][:, None], idx[None, :]]  # [b, c] = (ba)c
        viol = (abc == zero) & ((acb != zero) | (bac != zero))
        if viol.any():
            b, c = np.argwhere(viol)[0]
            return a, int(b), int(c)
    return None


def lemma(mul, zero: int) -> tuple[str, dict]:
    """``annihilator_chain_equivalence`` by definition: per element ``a``, (2) some ``c`` with
    ``Ra = l(c)`` has ``Rc`` an annihilator, against (3) some ``d`` with ``l(d) = l(c)``
    for such a ``c`` has ``Rd`` one."""
    pri, ann = principals(mul), annihilators(mul, zero)
    holders: dict[int, list[int]] = {}  # per mask, the b with l(b) equal to it
    for b, m in enumerate(ann):
        holders.setdefault(m, []).append(b)
    both = 0
    for a, p in enumerate(pri):
        candidates = holders.get(p, ())
        pred2 = any(pri[c] in holders for c in candidates)
        pred3 = any(pri[d] in holders for c in candidates for d in holders.get(ann[c], ()))
        if pred2 != pred3:
            return "refuted", {"element": a, "direct_form": pred2, "isomorphism_form": pred3}
        both += pred2
    return "verified", {"elements": len(pri), "satisfying_both": both}


def witness_identities(add, mul, zero: int) -> tuple[str, dict]:
    """``sum_intersection_witnesses`` by definition, every sum formed as a set.

    On every pair of elements ``(a1, a2)`` at once: ``b1``, ``b2`` are the
    least ``b`` with ``l(b) = Ra1``, ``Ra2`` and ``c`` the one for
    ``R(a2 b1)``, and then ``Ra1 + Ra2 = l(b1 c)``; dually, from ``Rb = l(a)``
    and ``Rc = l(b1 a2)``, ``l(a1) ∩ l(a2) = R(c b1)``.  Pairs with a missing
    witness are skipped; each pair of masks met is combined once.
    """
    mul = np.asarray(mul)
    n = len(mul)
    pri, ann = principals(mul), annihilators(mul, zero)
    kinds = (("sum", mul, pri, ann, functools.partial(subgroup_sum, add)),
             ("intersection", mul.T, ann, pri, operator.and_))
    results = []
    for _, table, masks, dual, combine in kinds:
        first = least(dual)
        w = np.array([first.get(m, -1) for m in masks])  # per a: its witness, or -1
        b1, b2 = np.meshgrid(w, w, indexing="ij")
        c = w[table[np.arange(n)[None, :], b1]]
        checked = (b1 >= 0) & (b2 >= 0) & (c >= 0)
        ids: dict[int, int] = {}  # every mask met, numbered in order
        x = np.array([ids.setdefault(m, len(ids)) for m in masks])
        distinct = list(ids)
        met, where = np.unique((x[:, None] * n + x[None, :])[checked], return_inverse=True)
        formed = [combine(distinct[k // n], distinct[k % n]) for k in met.tolist()]
        lhs = np.full((n, n), -1)
        lhs[checked] = np.array([ids.setdefault(m, len(ids)) for m in formed], dtype=np.int64)[where]
        rhs = np.array([ids.setdefault(m, len(ids)) for m in dual])[table[b1, c]]
        results.append((checked, ~checked | (lhs == rhs), (b1, b2, c)))
    # pairs in order, the sum before the intersection of the same pair
    bad = np.stack([~ok for _, ok, _ in results], axis=-1)
    if bad.any():
        a1, a2, k = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        kind, table, masks, dual, combine = kinds[k]
        b1, b2, c = (int(w[a1, a2]) for w in results[k][2])
        return "refuted", {"kind": kind, "pair": [a1, a2], "witnesses": [b1, b2, c],
                           "lhs": combine(masks[a1], masks[a2]), "rhs": dual[table[b1, c]]}
    checked_sum, checked_meet = (int(checked.sum()) for checked, _, _ in results)
    return "verified", {"checked_sum": checked_sum, "skipped_sum": n * n - checked_sum,
                        "checked_intersection": checked_meet,
                        "skipped_intersection": n * n - checked_meet}


def _first_failure(laws) -> tuple[bool, str | None, tuple[int, ...] | None]:
    """``(True, None, None)``, or ``(False, axiom, witness)`` for the first law whose sides
    differ, the witness being the first differing index in row-major order."""
    for axiom, lhs, rhs in laws:
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            return False, axiom, tuple(int(v) for v in bad[0])
    return True, None, None


def _group_laws(add, zero: int, prefix: str) -> list:
    return [
        (f"{prefix}add_identity", add[zero], np.arange(len(add))),
        (f"{prefix}add_inverse", (add == zero).any(axis=1), True),
        (f"{prefix}add_commutative", add, add.T),
        (f"{prefix}add_associative", add[add], add[:, add]),
    ]


def ring_axioms(add, mul, zero: int, one: int) -> tuple:
    """The ring axioms, each formed over the whole table, in ``check_ring_axioms``' order."""
    add, mul = np.asarray(add), np.asarray(mul)
    idx = np.arange(len(add))
    return _first_failure(_group_laws(add, zero, "") + [
        ("identity", mul[one], idx),
        ("identity", mul[:, one], idx),
        ("mul_associative", mul[mul], mul[:, mul]),
        ("left_distributive", mul[:, add], add[mul[:, :, None], mul[:, None, :]]),
        ("right_distributive", mul[add], add[mul[:, None, :], mul[None, :, :]]),
    ])


def bimodule_axioms(add, lact, ract, zero: int, left, right) -> tuple:
    """The laws of a bimodule over ``R`` on the left and ``S`` on the right, each formed over
    the whole table, in ``check_bimodule``'s order; ``left`` and ``right`` are the
    ``(add, mul, one)`` of ``R`` and ``S``."""
    add, lact, ract = np.asarray(add), np.asarray(lact), np.asarray(ract)
    (radd, rmul, rone), (sadd, smul, sone) = left, right
    idx = np.arange(len(add))
    return _first_failure(_group_laws(add, zero, "module_") + [
        ("left_action_additive_in_module", lact[:, add], add[lact[:, :, None], lact[:, None, :]]),
        ("left_action_additive_in_ring", lact[radd], add[lact[:, None, :], lact[None]]),
        ("left_action_associative", lact[rmul], lact[:, lact]),
        ("right_action_additive_in_module", ract[add], add[ract[:, None, :], ract[None]]),
        ("right_action_additive_in_ring", ract[:, sadd], add[ract[:, :, None], ract[:, None, :]]),
        ("right_action_associative", ract[:, smul], ract[ract]),
        ("action_compatible", ract[lact], lact[:, ract]),
        ("left_action_unital", lact[rone], idx),
        ("right_action_unital", ract[:, sone], idx),
    ])
