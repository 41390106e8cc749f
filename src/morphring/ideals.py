"""One-sided ideals, annihilators, radical, socle, and singular ideals.

Subsets of a ring are bit-vector masks: bit ``i`` set means element ``i``
is a member.  Masks are plain Python integers, so set algebra is ``&``,
``|`` and friends, and two masks are equal exactly when the subsets are.
Right-sided computations are left-sided computations on the opposite ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .rings import FiniteRing, _env_cap, opposite

__all__ = [
    "ElementCensus",
    "LatticeOverflow",
    "Side",
    "all_ideals",
    "annihilator",
    "element_census",
    "fg_ideal",
    "is_essential",
    "is_ideal",
    "jacobson_radical",
    "lattice_cap",
    "mask_members",
    "mask_of",
    "principal_ideal",
    "singular_ideal",
    "socle",
    "subgroup_sum",
]

_DEFAULT_LATTICE_CAP = 20000


class LatticeOverflow(Exception):
    """An ideal-lattice enumeration exceeded its cap."""


def lattice_cap() -> int:
    """Maximum number of ideals ``all_ideals`` will enumerate."""
    return _env_cap("IDEAL_LATTICE_CAP", _DEFAULT_LATTICE_CAP)


class Side(Enum):
    """Which side a module structure lives on."""

    LEFT = "left"
    RIGHT = "right"


def mask_of(elements: Iterable[int]) -> int:
    """Mask with exactly the given element indices set."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def mask_members(mask: int) -> list[int]:
    """Element indices of a mask, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _mask_from_bool(col: np.ndarray) -> int:
    return int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")


def _bool_from_mask(mask: int, n: int) -> np.ndarray:
    """Membership array of length ``n``: the inverse of ``_mask_from_bool``."""
    data = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").astype(bool)


def _row_masks(bits: np.ndarray) -> list[int]:
    """One mask per row of a 2-D boolean array."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


@dataclass(frozen=True)
class SideTables:
    """Left annihilator and principal-ideal masks of one ring, with inverse indexes.

    ``ann[b]`` is the mask of ``l(b)`` and ``pri[a]`` the mask of ``Ra``.
    ``ann_first`` and ``pri_first`` map each distinct mask to its least
    generating element, ``ann_members`` maps each annihilator mask to all
    its ``b`` in ascending order, and ``pri_distinct`` lists the distinct
    principal masks in ascending order.  ``ann_of_mask`` memoises
    ``annihilator`` on this side.
    """

    ann: list[int]
    pri: list[int]
    ann_first: dict[int, int]
    ann_members: dict[int, list[int]]
    pri_first: dict[int, int]
    pri_distinct: list[int]
    ann_of_mask: dict[int, int] = field(default_factory=dict)


def _side_tables(R: FiniteRing) -> SideTables:
    """The left ``SideTables`` of ``R``, built once and cached on it."""
    tables = R._cache.get("side_tables")
    if tables is not None:
        return tables
    n = R.order
    mul = R.mul_table
    ann = _row_masks(mul.T == R.zero)          # row b: {x : x b = 0}
    hit = np.zeros((n, n), dtype=bool)
    hit[np.arange(n)[None, :], mul] = True     # row a: {x a : x in R}
    pri = _row_masks(hit)
    ann_first: dict[int, int] = {}
    ann_members: dict[int, list[int]] = {}
    for b, m in enumerate(ann):
        ann_first.setdefault(m, b)
        ann_members.setdefault(m, []).append(b)
    pri_first: dict[int, int] = {}
    for a, m in enumerate(pri):
        pri_first.setdefault(m, a)
    tables = SideTables(ann, pri, ann_first, ann_members, pri_first, sorted(pri_first))
    R._cache["side_tables"] = tables
    return tables


def _resolve(R: FiniteRing, side: Side) -> tuple[FiniteRing, SideTables]:
    """Ring to compute on (``R`` or its opposite) plus its left tables."""
    ring = opposite(R) if side is Side.RIGHT else R
    return ring, _side_tables(ring)


def annihilator(R: FiniteRing, side: Side, S: int | Iterable[int]) -> int:
    """Mask of the side annihilator of ``S`` (a mask or an element list).

    For ``Side.LEFT`` this is ``{x : x s = 0 for all s in S}``; the empty
    set annihilates to the whole ring.
    """
    ring, tables = _resolve(R, side)
    target = S if isinstance(S, int) else mask_of(S)
    full = (1 << ring.order) - 1
    if target == 0:
        return full
    memo = tables.ann_of_mask
    cached = memo.get(target)
    if cached is not None:
        return cached
    ann = tables.ann
    result = full
    for s in mask_members(target):
        result &= ann[s]
    memo[target] = result
    return result


def principal_ideal(R: FiniteRing, side: Side, a: int) -> int:
    """Mask of ``Ra`` (left) or ``aR`` (right)."""
    ring, tables = _resolve(R, side)
    if not 0 <= a < ring.order:
        raise ValueError(f"element index {a} out of range [0, {ring.order})")
    return tables.pri[a]


def subgroup_sum(R: FiniteRing, m1: int, m2: int) -> int:
    """Additive closure of the union of two additive subgroups.

    Each member ``g`` of ``m2`` outside the running sum ``H`` extends it to
    ``H + <g>`` by coset doubling: translating ``H + {0, ..., k-1}g`` by
    ``kg`` gives ``H + {0, ..., 2k-1}g``, until ``kg`` already lies in it.
    """
    if m2 & ~m1 == 0:
        return m1
    if m1 & ~m2 == 0:
        return m2
    key = (m1, m2) if m1 <= m2 else (m2, m1)
    memo = R._cache.setdefault("subgroup_sums", {})
    cached = memo.get(key)
    if cached is not None:
        return cached
    add = R.add_table
    res = _bool_from_mask(m1, R.order)
    todo = _bool_from_mask(m2, R.order)
    while (rest := todo & ~res).any():
        shift = int(rest.argmax())
        while not res[shift]:
            res[add[np.flatnonzero(res), shift]] = True
            shift = int(add[shift, shift])
    result = memo[key] = _mask_from_bool(res)
    return result


def fg_ideal(R: FiniteRing, side: Side, generators: Sequence[int]) -> int:
    """Mask of the side ideal generated by the given elements."""
    if not generators:
        raise ValueError("generator list must be nonempty")
    ring, tables = _resolve(R, side)
    pri = tables.pri
    result = pri[generators[0]]
    for g in generators[1:]:
        result = subgroup_sum(ring, result, pri[g])
    return result


def is_ideal(R: FiniteRing, side: Side, mask: int) -> bool:
    """True iff the mask is an additive subgroup absorbing the side's multiplication."""
    ring, _ = _resolve(R, side)
    if not (mask >> ring.zero) & 1:
        return False
    if mask >> ring.order:
        raise ValueError(f"mask has bits beyond ring order {ring.order}")
    inside = _bool_from_mask(mask, ring.order)
    members = np.flatnonzero(inside)
    return bool(inside[ring.add_table[np.ix_(members, members)]].all()
                and inside[ring.mul_table[:, members]].all())


def all_ideals(R: FiniteRing, side: Side, cap: int | None = None) -> list[int]:
    """All side ideals, sorted as masks.

    Every side ideal of a finite ring is a sum of principal ones, so the
    lattice is the join closure of the nonzero principal ideals.  Starting
    from ``{0}``, each principal ideal ``P`` in order of size adds ``I + P``
    for every ideal ``I`` found so far, and is skipped when it is already
    one of them, since the set found so far is closed under sums.  Raises
    ``LatticeOverflow`` if more than ``cap`` ideals appear (default:
    ``lattice_cap()``); never silently truncates.  A complete lattice is
    cached on the ring and checked against the cap of every call; each call
    gets a fresh list.
    """
    ring, tables = _resolve(R, side)
    if cap is None:
        cap = lattice_cap()
    overflow = f"more than {cap} {side.value} ideals; raise IDEAL_LATTICE_CAP"
    cached = ring._cache.get("ideals")
    if cached is not None:
        if len(cached) > cap:
            raise LatticeOverflow(overflow)
        return list(cached)
    zero_mask = 1 << ring.zero
    generators = sorted((m for m in tables.pri_distinct if m != zero_mask),
                        key=lambda m: (m.bit_count(), m))
    found = {zero_mask}
    for gen in generators:
        if gen in found:
            continue
        for ideal in list(found):
            found.add(subgroup_sum(ring, ideal, gen))
            if len(found) > cap:
                raise LatticeOverflow(overflow)
    ring._cache["ideals"] = tuple(sorted(found))
    return list(ring._cache["ideals"])


@dataclass(frozen=True)
class ElementCensus:
    """Masks of the units, idempotents, and nilpotents of a ring."""

    units: int
    idempotents: int
    nilpotents: int


def element_census(R: FiniteRing) -> ElementCensus:
    """Census of units (two-sided inverses), idempotents, and nilpotents."""
    cached = R._cache.get("census")
    if cached is not None:
        return cached
    n = R.order
    mul = R.mul_table
    is_one = mul == R.one
    units = _mask_from_bool((is_one & is_one.T).any(axis=1))
    idx = np.arange(n)
    idem = _mask_from_bool(mul.diagonal() == idx)
    # a is nilpotent iff a^k = 0 for some k <= n, iff a^(2^j) = 0 once 2^j >= n
    power = idx
    for _ in range(max(1, (n - 1).bit_length())):
        power = mul[power, power]
    nilp = _mask_from_bool(power == R.zero)
    census = ElementCensus(units, idem, nilp)
    R._cache["census"] = census
    return census


def jacobson_radical(R: FiniteRing) -> int:
    """Mask of ``J(R) = {a : 1 - xa is a unit for every x}``."""
    cached = R._cache.get("jacobson")
    if cached is not None:
        return cached
    is_unit = _bool_from_mask(element_census(R).units, R.order)
    # column a holds 1 - x a for every x
    one_minus = R.add_table[R.one][R.neg_table[R.mul_table]]
    radical = _mask_from_bool(is_unit[one_minus].all(axis=0))
    R._cache["jacobson"] = radical
    return radical


def is_essential(R: FiniteRing, side: Side, mask: int) -> bool:
    """True iff the side ideal meets every nonzero side ideal nontrivially.

    It suffices to meet every nonzero principal ideal, since every nonzero
    ideal contains one.
    """
    if not is_ideal(R, side, mask):
        raise ValueError(f"mask {mask:#x} is not a {side.value} ideal")
    return _meets_every_principal(*_resolve(R, side), mask)


def _meets_every_principal(ring: FiniteRing, tables: SideTables, mask: int) -> bool:
    """Whether ``mask`` meets every nonzero principal ideal beyond zero."""
    zero_bit = 1 << ring.zero
    return all(m & mask & ~zero_bit for m in tables.pri_distinct if m != zero_bit)


def singular_ideal(R: FiniteRing, side: Side) -> int:
    """Mask of the side singular ideal: elements whose side annihilator is essential."""
    ring, tables = _resolve(R, side)
    return mask_of(a for a in range(ring.order)
                   if _meets_every_principal(ring, tables, tables.ann[a]))


def _minimal_principal_masks(ring: FiniteRing, tables: SideTables) -> list[int]:
    zero_bit = 1 << ring.zero
    pri = tables.pri
    minimal = []
    for m in tables.pri_distinct:
        if m == zero_bit:
            continue
        if all(pri[b] == m for b in mask_members(m & ~zero_bit)):
            minimal.append(m)
    return minimal


def socle(R: FiniteRing, side: Side) -> int:
    """Mask of the sum of all minimal side ideals ({0} if there are none)."""
    ring, tables = _resolve(R, side)
    result = 1 << ring.zero
    for m in _minimal_principal_masks(ring, tables):
        result = subgroup_sum(ring, result, m)
    return result
