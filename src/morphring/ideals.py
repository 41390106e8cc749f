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

from .rings import (FiniteRing, _check_element, _columns, _distinct, _env_cap, _gather,
                    _is_commutative, _per_ring, _row_blocks, opposite)

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

    @property
    def other(self) -> Side:
        """The opposite side."""
        return Side.LEFT if self is Side.RIGHT else Side.RIGHT


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


@dataclass(frozen=True)
class SideTables:
    """Left annihilators and principal ideals of one ring, as interned class ids.

    ``masks`` lists, ascending, every distinct mask that is some ``l(b)`` or
    some ``Ra``, and ``index`` maps each of them to its position, its id.
    ``ann_id[b]`` is the id of ``l(b)`` and ``pri_id[a]`` the id of ``Ra``
    (dense ``int32`` arrays over the elements).  Per id, ``ann_least`` holds
    the least ``b`` with ``l(b)`` equal to that mask and ``pri_least`` the
    least ``a`` with ``Ra`` equal to it, ``-1`` meaning there is none.
    ``ann_of_mask`` memoises ``annihilator`` on this side.
    """

    masks: list[int]
    index: dict[int, int]
    ann_id: np.ndarray
    pri_id: np.ndarray
    ann_least: np.ndarray
    pri_least: np.ndarray
    ann_of_mask: dict[int, int] = field(default_factory=dict)

    def ann_witness(self, mask: int) -> int | None:
        """Least ``b`` with ``l(b) = mask``, or None."""
        return _least(self.ann_least, self.index.get(mask))

    def pri_witness(self, mask: int) -> int | None:
        """Least ``a`` with ``Ra = mask``, or None."""
        return _least(self.pri_least, self.index.get(mask))

    @property
    def principal_masks(self) -> list[int]:
        """The distinct principal ideals, ascending."""
        return [self.masks[i] for i in np.flatnonzero(self.pri_least >= 0).tolist()]


def _least(least: np.ndarray, i: int | None) -> int | None:
    if i is None or least[i] < 0:
        return None
    return int(least[i])


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """Each row of a bool matrix as the bytes of its mask, big-endian.

    Big-endian rows sort as bytes in the order of the mask integers.
    """
    return np.packbits(bits, axis=1, bitorder="little")[:, ::-1]


def _packed_side_rows(R: FiniteRing) -> np.ndarray:
    """``l(b)`` for every ``b``, then ``Ra`` for every ``a``: ``2n`` rows of ``_packed_rows``,
    filled a block of columns of ``R.mul_table`` at a time (a block's scratch is freed
    before the next block's columns are read)."""
    n = R.order
    packed = np.empty((2 * n, (n + 7) // 8), dtype=np.uint8)
    for rows in _row_blocks(n, n):
        cols = _columns(R.mul_table, rows)  # row i: x a for every x, a = rows.start + i
        packed[rows] = _packed_rows(cols == R.zero)  # l(a) = {x : x a = 0}
        members = np.zeros(cols.shape, dtype=bool)   # Ra, set within each row
        for sub in _row_blocks(len(cols), n << 4):   # an index of 1/16 of a block
            offsets = np.arange(sub.start * n, sub.stop * n, n)
            members.reshape(-1)[offsets[:, None] + cols[sub]] = True
        packed[n + rows.start:n + rows.stop] = _packed_rows(members)
        del cols, members
    return packed


@_per_ring
def _side_tables(R: FiniteRing) -> SideTables:
    """The left ``SideTables`` of ``R``, built once and cached on it.

    One ``argsort`` orders the packed rows as bytes, which is the order of
    their masks; a row that differs from the one before it in that order
    starts a new id.  Sorted rows are compared a block at a time, so no
    sorted copy of the rows is held.
    """
    n = R.order
    packed = _packed_side_rows(R)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    order = np.argsort(keys)
    new = np.ones(2 * n, dtype=bool)  # new[k]: sorted row k is not sorted row k - 1
    for block in _row_blocks(2 * n - 1, packed.shape[1]):
        run = keys[order[block.start:block.stop + 1]]
        new[block.start + 1:block.stop + 1] = run[1:] != run[:-1]
    masks = [int.from_bytes(keys[i].tobytes(), "big") for i in order[new].tolist()]
    ids = np.empty(2 * n, dtype=np.int32)
    ids[order] = np.cumsum(new) - 1
    ids = ids.reshape(2, n)                      # rows: ann_id, pri_id
    least = np.full((2, len(masks)), -1, dtype=np.int32)
    for side_ids, side_least in zip(ids, least):
        seen, first = np.unique(side_ids, return_index=True)
        side_least[seen] = first
    return SideTables(masks, {m: i for i, m in enumerate(masks)}, *ids, *least)


def _check_mask(R: FiniteRing, mask: int) -> None:
    """Raise ``ValueError`` if the mask has bits at or beyond the order (or is negative)."""
    if mask >> R.order:
        raise ValueError(f"mask has bits beyond ring order {R.order}")


def _resolve(R: FiniteRing, side: Side) -> tuple[FiniteRing, SideTables]:
    """Ring to compute on (``R`` or its opposite) plus its left tables.

    A commutative ring is its own opposite, so both sides compute on ``R``
    and share its tables.
    """
    ring = opposite(R) if side is Side.RIGHT and not _is_commutative(R) else R
    return ring, _side_tables(ring)


def annihilator(R: FiniteRing, side: Side, S: int | Iterable[int]) -> int:
    """Mask of the side annihilator of ``S`` (a mask or an element list).

    For ``Side.LEFT`` this is ``{x : x s = 0 for all s in S}``; the empty
    set annihilates to the whole ring.
    """
    ring, tables = _resolve(R, side)
    target = S if isinstance(S, int) else mask_of(_check_element(ring, s) for s in S)
    _check_mask(ring, target)
    memo = tables.ann_of_mask
    if target not in memo:
        result = (1 << ring.order) - 1
        for i in _distinct(tables.ann_id[_bool_from_mask(target, ring.order)]).tolist():
            result &= tables.masks[i]
        memo[target] = result
    return memo[target]


def principal_ideal(R: FiniteRing, side: Side, a: int) -> int:
    """Mask of ``Ra`` (left) or ``aR`` (right)."""
    ring, tables = _resolve(R, side)
    return tables.masks[tables.pri_id[_check_element(ring, a)]]


def subgroup_sum(R: FiniteRing, m1: int, m2: int) -> int:
    """Additive closure of the union of two additive subgroups.

    Each member ``g`` of ``m2`` outside the running sum ``H`` extends it to
    ``H + <g>`` by coset doubling: translating ``H + {0, ..., k-1}g`` by
    ``kg`` gives ``H + {0, ..., 2k-1}g``, until ``kg`` already lies in it.
    The running sum starts from ``m1`` and zero, so each translate by an
    element outside it adds that element, and the call returns on any masks.
    """
    _check_mask(R, m1 | m2)
    if m2 & ~m1 == 0:
        return m1
    if m1 & ~m2 == 0:
        return m2
    add = R.add_table
    res = _bool_from_mask(m1 | 1 << R.zero, R.order)
    todo = _bool_from_mask(m2, R.order)
    while (rest := todo & ~res).any():
        shift = int(rest.argmax())
        while not res[shift]:
            res[add[np.flatnonzero(res), shift]] = True
            shift = int(add[shift, shift])
    return _mask_from_bool(res)


def fg_ideal(R: FiniteRing, side: Side, generators: Sequence[int]) -> int:
    """Mask of the side ideal generated by the given elements."""
    if not generators:
        raise ValueError("generator list must be nonempty")
    ring, tables = _resolve(R, side)
    result = 1 << ring.zero
    for g in generators:
        result = subgroup_sum(ring, result, tables.masks[tables.pri_id[_check_element(ring, g)]])
    return result


def is_ideal(R: FiniteRing, side: Side, mask: int) -> bool:
    """True iff the mask holds zero and is the sum of its members' principal ideals (``a ∈ Ra``)."""
    ring, tables = _resolve(R, side)
    if not (mask >> ring.zero) & 1:
        return False
    _check_mask(ring, mask)
    total = 1 << ring.zero
    for i in _distinct(tables.pri_id[_bool_from_mask(mask, ring.order)]).tolist():
        if tables.masks[i] & ~mask or (total := subgroup_sum(ring, total, tables.masks[i])) & ~mask:
            return False
    return True


def all_ideals(R: FiniteRing, side: Side, cap: int | None = None) -> list[int]:
    """All side ideals, sorted as masks.

    Every side ideal of a finite ring is a sum of principal ones, so the
    lattice is the join closure of the nonzero principal ideals.  Starting
    from ``{0}``, each principal ideal ``P`` in order of size adds ``I + P``
    for every ideal ``I`` found so far, and is skipped when it is already
    one of them, since the set found so far is closed under sums.  Raises
    ``LatticeOverflow`` if more than ``cap`` ideals appear (default:
    ``lattice_cap()``); never silently truncates.  A ``cap`` equal to the
    number of principal ideals overflows exactly when some ideal is not
    principal.  A complete lattice, or the largest cap that overflowed, is
    kept on the ring and checked against every later cap; calls get fresh lists.
    """
    ring, tables = _resolve(R, side)
    if cap is None:
        cap = lattice_cap()
    overflow = f"more than {cap} {side.value} ideals; raise IDEAL_LATTICE_CAP"
    cached = ring._cache.get("ideals")
    if cap <= ring._cache.get("ideals_overflow", -1) or cached is not None and len(cached) > cap:
        raise LatticeOverflow(overflow)
    if cached is not None:
        return list(cached)
    zero_mask = 1 << ring.zero
    generators = sorted((m for m in tables.principal_masks if m != zero_mask),
                        key=lambda m: (m.bit_count(), m))
    found = {zero_mask}
    for gen in generators:
        if gen in found:
            continue
        for ideal in list(found):
            found.add(subgroup_sum(ring, ideal, gen))
            if len(found) > cap:
                ring._cache["ideals_overflow"] = cap
                raise LatticeOverflow(overflow)
    ring._cache["ideals"] = tuple(sorted(found))
    return list(ring._cache["ideals"])


@dataclass(frozen=True)
class ElementCensus:
    """Masks of the units, idempotents, and nilpotents of a ring."""

    units: int
    idempotents: int
    nilpotents: int


@_per_ring
def element_census(R: FiniteRing) -> ElementCensus:
    """Census of units (a right inverse suffices: finite rings are directly finite),
    idempotents and nilpotents."""
    n = R.order
    mul, one = R.mul_table, R.one
    units = _mask_from_bool(np.concatenate([(mul[a] == one).any(axis=1)
                                            for a in _row_blocks(n, n)]))
    idx = np.arange(n)
    idem = _mask_from_bool(mul.diagonal() == idx)
    # a is nilpotent iff a^k = 0 for some k <= n, iff a^(2^j) = 0 once 2^j >= n
    power = idx
    for _ in range(max(1, (n - 1).bit_length())):
        power = _gather(mul, power, power)
    nilp = _mask_from_bool(power == R.zero)
    return ElementCensus(units, idem, nilp)


@_per_ring
def jacobson_radical(R: FiniteRing) -> int:
    """Mask of ``J(R)``: in a finite ring, the ``a`` whose ``Ra`` consists of nilpotents.

    ``J`` of a finite ring is nilpotent and contains every nil left ideal.
    """
    tables, nilpotents = _side_tables(R), element_census(R).nilpotents
    return _mask_from_bool(np.array([m & ~nilpotents == 0 for m in tables.masks])[tables.pri_id])


def is_essential(R: FiniteRing, side: Side, mask: int) -> bool:
    """True iff the side ideal meets every nonzero side ideal nontrivially.

    In a finite ring: exactly when it contains every minimal one, the socle.
    """
    if not is_ideal(R, side, mask):
        raise ValueError(f"mask {mask:#x} is not a {side.value} ideal")
    return socle(R, side) & ~mask == 0


def singular_ideal(R: FiniteRing, side: Side) -> int:
    """Mask of the side singular ideal: elements whose side annihilator is essential.

    By ``is_essential`` that is the other-side annihilator of the side socle.
    """
    return annihilator(R, side.other, socle(R, side))


def _minimal_principals(tables: SideTables) -> np.ndarray:
    """Per id: minimal principal ideal ``m``, i.e. all ``|m| - 1`` nonzero members generate it."""
    generators = np.bincount(tables.pri_id, minlength=len(tables.masks))
    sizes = np.array([m.bit_count() for m in tables.masks])
    return generators == sizes - 1


def socle(R: FiniteRing, side: Side) -> int:
    """Mask of the sum of all minimal side ideals: ``r(J)`` on the left, ``l(J)`` on the right.

    ``J`` kills every simple module, so the left socle lies in ``r(J)``; ``J·r(J) = 0`` makes
    ``r(J)`` a module over the semisimple ``R/J``, so it lies in the socle.
    """
    return annihilator(R, side.other, jacobson_radical(R))
