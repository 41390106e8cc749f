"""Finite rings as explicit Cayley tables, built from composable constructors.

A ring of order ``n`` is stored as two ``n x n`` tables of element indices
(addition and multiplication), read-only ``uint16`` arrays, together with
the indices of 0 and 1.  A ``uint16`` entry indexes at most 65,536
elements, so no ring has a larger order.  Every constructor produces a
canonical element ordering, so that reports built from them are
reproducible bit for bit.
Finite fields and the composite constructors (products, matrix and
triangular rings, truncated polynomials, trivial extensions) state their
components and biadditive product rules; one structure-constant builder,
``_structure_ring``, fixes their element encoding and builds their tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .common import OrderCapExceeded, _env_cap, order_cap

__all__ = [
    "AxiomCheck",
    "BimoduleSpec",
    "FiniteRing",
    "OrderCapExceeded",
    "build_cap",
    "check_bimodule",
    "check_ring_axioms",
    "direct_product",
    "formal_triangular",
    "ideal_bimodule",
    "make_gf",
    "make_zmod",
    "matrix_ring",
    "opposite",
    "order_cap",
    "pierce_corner",
    "regular_bimodule",
    "ring_from_tables",
    "trivial_extension",
    "truncated_poly",
    "zero_bimodule",
]

_DEFAULT_BUILD_CAP = 4096

_TABLE_DTYPE = np.dtype(np.uint16)  # the one dtype of every stored table
_INDEX_LIMIT = 1 << 16        # element indices lie in [0, _INDEX_LIMIT)

# Entries per row block when a table is filled or scanned a block at a time.
_BLOCK_ENTRIES = 1 << 19


def build_cap() -> int:
    """Largest ring order accepted by the constructors.

    Single-predicate element scans remain tractable well past the full
    classification cap, so constructions are allowed up to the larger of
    ``order_cap()`` and 4096, but never past 65,536, the most elements a
    ``uint16`` table can index.
    """
    return min(max(order_cap(), _DEFAULT_BUILD_CAP), _INDEX_LIMIT)


class AxiomCheck(NamedTuple):
    """Outcome of a table validation: flag, violated axiom, witness indices."""

    ok: bool
    axiom: str | None
    witness: tuple[int, ...] | None


class _Labels(Sequence):
    """Element labels, each formed when it is read.

    Element ``i`` has the digit tuple of ``i`` in the mixed radix ``orders``,
    first digit most significant (the encoding of ``_structure_ring``), and
    ``name`` turns that tuple into its label.  No command prints a label, so
    building a ring forms none.  The sequence compares equal to the tuple of
    its labels, hashes as it and pickles as it.  A constructor's ``name``
    closes over its factors' labels, never the factors, so no table is kept
    alive by another ring's labels.
    """

    __slots__ = ("_name", "_orders", "_len")

    def __init__(self, name: Callable[[tuple], str], orders: Sequence[int]) -> None:
        self._name, self._orders, self._len = name, tuple(orders), math.prod(orders)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self._len))))
        i = operator.index(i)
        if not -self._len <= i < self._len:
            raise IndexError("label index out of range")
        i %= self._len
        digits = []
        for m in reversed(self._orders):
            i, digit = divmod(i, m)
            digits.append(digit)
        return self._name(tuple(reversed(digits)))

    def __iter__(self) -> Iterator[str]:
        return map(self._name, itertools.product(*map(range, self._orders)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Labels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


def _numerals(n: int) -> _Labels:
    """The labels ``"0", ..., "n-1"``."""
    return _Labels(lambda d: str(d[0]), (n,))


def _member_labels(labels: Sequence[str], members: list[int]) -> _Labels:
    """The labels of the elements ``members``, in that order."""
    return _Labels(lambda d: labels[members[d[0]]], (len(members),))


class _AdditionTable:
    """``FiniteRing.add_table``, kept in ``_add``, a list shared with the opposite ring: the
    table, or a built ring's parts until the first read forms the table in their place."""

    def __get__(self, R, owner=None) -> np.ndarray:
        held = R._add  # read on the class, an AttributeError: the field has no default
        if not isinstance(held[0], np.ndarray):
            held[0] = _frozen(_addition_table(held[0]))
        return held[0]


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """An associative ring with identity, given by Cayley tables.

    ``add_table[a, b]`` and ``mul_table[a, b]`` are element indices in
    ``[0, order)``, read-only ``uint16`` arrays of shape ``(order, order)``,
    and ``order`` is at most 65,536.  A built ring keeps its parts' addition
    tables, not its own: that is formed on first read.  The opposite ring
    shares ``add_table`` and has the transposed view of ``mul_table``.
    Every ``FiniteRing`` is a ring: a direct call checks its tables as
    ``check_ring_axioms`` does, raises ``ValueError`` at the first violated
    axiom and keeps read-only ``uint16`` copies.  The constructors,
    ``pierce_corner``, ``opposite`` and unpickling check and copy nothing.
    ``construction`` is the canonical expression text that built the ring,
    when one exists.  ``labels`` names the elements; the constructors give
    a read-only sequence that forms each label when it is read.  Two rings
    are equal when their tables, distinguished elements, labels and
    construction agree.  ``_cache`` holds derived tables (annihilator
    masks, the opposite ring) and the results of ``_per_ring`` functions,
    built lazily by other modules.
    """

    order: int
    add_table: np.ndarray = _AdditionTable()
    mul_table: np.ndarray
    zero: int
    one: int
    labels: Sequence[str]
    construction: str | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        add, mul, n = _validate_tables(self.add_table, self.mul_table, self.zero, self.one)
        if (self.order, len(self.labels)) != (n, n):
            raise ValueError(f"order {self.order}, {len(self.labels)} labels: tables of order {n}")
        if not (check := _ring_axioms(add, mul, self.zero, self.one)).ok:
            raise ValueError(f"tables violate ring axiom {check.axiom} at {check.witness}")
        self.__dict__.update(_add=[_frozen(add)], mul_table=_frozen(mul))
        del self.__dict__["add_table"]  # __init__ stored it; it is read through _add

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (
            (self.order, self.zero, self.one, self.labels, self.construction)
            == (other.order, other.zero, other.one, other.labels, other.construction)
            and np.array_equal(self.add_table, other.add_table)
            and np.array_equal(self.mul_table, other.mul_table)
        )

    def __hash__(self) -> int:
        return hash((self.order, self.zero, self.one, self.construction))

    def __reduce__(self):  # unpickled through _ring: read-only tables, an empty cache
        return _ring, (self.order, self.add_table, self.mul_table, self.zero, self.one,
                       self.labels, self.construction)

    @property
    def neg_table(self) -> np.ndarray:
        """Read-only ``uint16`` array whose entry ``a`` is the index of ``-a``."""
        negs = self._cache.get("neg")
        if negs is None:
            negs = self._cache["neg"] = _frozen(np.argmax(self.add_table == self.zero, axis=1))
        return negs

    def add(self, a: int, b: int) -> int:
        """Return the index of ``a + b``."""
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        """Return the index of ``a * b``."""
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        """Return the index of ``-a``."""
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        """Return the index of ``a - b``."""
        return int(self.add_table[a, self.neg_table[b]])

    @property
    def elements(self) -> range:
        """All element indices."""
        return range(self.order)

    def label(self, a: int) -> str:
        """Display string for element ``a``."""
        return self.labels[a]

    def __repr__(self) -> str:  # keep reprs short; tables can be huge
        name = self.construction or "<tables>"
        return f"FiniteRing(order={self.order}, construction={name!r})"


def _ring(order: int, add, mul: np.ndarray, zero: int, one: int,
          labels: Sequence[str], construction: str | None = None) -> FiniteRing:
    """``FiniteRing`` on tables proved to be a ring, frozen as ``uint16``: no check, no copy;
    ``add`` is a table or an ``_add`` list (``_AdditionTable``), which is shared."""
    R = object.__new__(FiniteRing)
    R.__dict__.update(order=order, _add=add if isinstance(add, list) else [_frozen(add)],
                      mul_table=_frozen(mul), zero=zero, one=one, labels=labels,
                      construction=construction, _cache={})
    return R


def _per_ring(compute: Callable) -> Callable:
    """Decorate ``compute(R, *args)`` to run once per ring and arguments, kept in ``R._cache``."""
    @functools.wraps(compute)
    def cached(R: FiniteRing, *args):
        key = (compute, *args)
        if key not in R._cache:
            R._cache[key] = compute(R, *args)
        return R._cache[key]
    return cached


def _frozen(table) -> np.ndarray:
    """``table`` as a read-only ``uint16`` array, with no copy when it already is one;
    an entry outside ``[0, 65536)`` raises ``ValueError`` rather than wrapping."""
    out = np.asarray(table)
    if out.dtype != _TABLE_DTYPE:
        if out.size and (out.min() < 0 or out.max() >= _INDEX_LIMIT):
            raise ValueError(f"table entries must lie in [0, {_INDEX_LIMIT}) to fit uint16")
        out = out.astype(_TABLE_DTYPE)
    out.flags.writeable = False
    return out


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``range(rows)`` of about ``_BLOCK_ENTRIES / width`` rows each."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def _gather(table: np.ndarray, rows, cols) -> np.ndarray:
    """``table[rows, cols]`` for broadcast index arrays, as one flat ``take`` (a negative index
    reads an unrelated cell, which the caller must mask); a transposed view is read through
    its base with the index arrays swapped, so no table is copied."""
    if not table.flags.c_contiguous and table.T.flags.c_contiguous:
        table, rows, cols = table.T, cols, rows
    flat = np.add(np.multiply(rows, table.shape[1], dtype=np.intp), cols, dtype=np.intp)
    return table.reshape(-1).take(flat)


def _columns(table: np.ndarray, rows: slice) -> np.ndarray:
    """``table[:, rows].T``, C-contiguous, copied in strips of 64 source rows that stay in
    cache; the columns of a transposed view are rows of its base, read with no copy."""
    if not table.flags.c_contiguous and table.T.flags.c_contiguous:
        return table.T[rows]
    out = np.empty((table[0, rows].size, len(table)), dtype=table.dtype)
    for start in range(0, len(table), 64):
        out[:, start:start + 64] = table[start:start + 64, rows].T
    return out


def _validate_tables(add_table, mul_table, zero: int, one: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Structural validation; returns ``uint16`` copies of the tables and the order."""
    add = np.asarray(add_table)
    mul = np.asarray(mul_table)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise ValueError(f"addition table must be square, got shape {add.shape}")
    if mul.shape != add.shape:
        raise ValueError(f"table shapes differ: add {add.shape}, mul {mul.shape}")
    n = add.shape[0]
    if n == 0:
        raise ValueError("tables must be nonempty")
    if n > _INDEX_LIMIT:
        raise ValueError(f"order {n} is above {_INDEX_LIMIT}, the most a uint16 table can index")
    if not (np.issubdtype(add.dtype, np.integer) and np.issubdtype(mul.dtype, np.integer)):
        raise ValueError("tables must contain integer element indices")
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.min() < 0 or t.max() >= n:
            raise ValueError(f"{name} table entries must lie in [0, {n})")
    for name, e in (("zero", zero), ("one", one)):
        if not 0 <= e < n:
            raise ValueError(f"{name} index {e} out of range [0, {n})")
    return add.astype(_TABLE_DTYPE), mul.astype(_TABLE_DTYPE), n


def _check_element(R: FiniteRing, a: int) -> int:
    """``a``, after checking that it is an element index of ``R``."""
    if not 0 <= a < R.order:
        raise ValueError(f"element index {a} out of range [0, {R.order})")
    return a


def _first_violation(rows: int, width: int,
                     violated: Callable[[slice], np.ndarray]) -> tuple[int, ...] | None:
    """The first index, in row-major order, at which a scan finds a violation, or None.

    ``violated(block)`` is the bool array of rows ``block`` of the scanned
    array, whose rows have ``width`` entries each; the blocks come from
    ``_row_blocks``, so each holds about ``_BLOCK_ENTRIES`` entries, and
    the scan stops at the first block with a violation.  ``argmax`` finds
    the first one without listing the others.
    """
    for block in _row_blocks(rows, width):
        bad = violated(block)
        if bad.any():
            first = np.unravel_index(np.argmax(bad), bad.shape)
            return (int(first[0]) + block.start, *map(int, first[1:]))
    return None


@_per_ring
def _is_commutative(R: FiniteRing) -> bool:
    """``R``'s multiplication table is symmetric."""
    mul = R.mul_table
    return _first_violation(R.order, R.order, lambda a: mul[a] != _columns(mul, a)) is None


def _axiom_check(scans: Sequence[tuple[str, int, int, Callable]]) -> AxiomCheck:
    """The failure of the first ``(axiom, rows, width, violated)`` scan that finds one.

    Each scan is a ``_first_violation`` over ``rows`` rows of ``width``
    entries; a later scan runs only when every earlier one passed.
    """
    for axiom, rows, width, violated in scans:
        witness = _first_violation(rows, width, violated)
        if witness is not None:
            return AxiomCheck(False, axiom, witness)
    return AxiomCheck(True, None, None)


def _group_axioms(add: np.ndarray, zero: int, prefix: str) -> tuple:
    """The scans of the abelian-group axioms of ``add`` with identity ``zero``."""
    n = len(add)
    idx = np.arange(n)
    return (
        (f"{prefix}add_identity", n, 1, lambda x: add[zero, x] != idx[x]),
        (f"{prefix}add_inverse", n, n, lambda a: ~(add[a] == zero).any(axis=1)),
        (f"{prefix}add_commutative", n, n, lambda a: add[a] != _columns(add, a)),
        # (a+b)+c vs a+(b+c)
        (f"{prefix}add_associative", n, n * n, lambda a: add[add[a]] != add[a][:, add]),
    )


def check_ring_axioms(add_table, mul_table, zero: int, one: int) -> AxiomCheck:
    """Validate that the tables define a ring with the given 0 and 1.

    Structural defects (non-square tables, out-of-range indices) raise
    ``ValueError`` before any axiom is considered.  Axiom failures are
    reported as ``AxiomCheck(False, axiom, witness)`` with the first
    violating element tuple in lexicographic order; identity axioms are
    checked before associativity so that a broken identity row is named
    as such rather than as an associativity fallout.
    """
    add, mul, _ = _validate_tables(add_table, mul_table, zero, one)
    return _ring_axioms(add, mul, zero, one)


def _ring_axioms(add: np.ndarray, mul: np.ndarray, zero: int, one: int) -> AxiomCheck:
    """``check_ring_axioms`` on tables that passed ``_validate_tables``."""
    n = len(add)
    idx = np.arange(n)
    return _axiom_check((
        *_group_axioms(add, zero, ""),
        ("identity", n, 1, lambda x: mul[one, x] != idx[x]),
        ("identity", n, 1, lambda x: mul[x, one] != idx[x]),
        # (ab)c vs a(bc)
        ("mul_associative", n, n * n, lambda a: mul[mul[a]] != mul[a][:, mul]),
        # a*(b+c) vs a*b + a*c
        ("left_distributive", n, n * n,
         lambda a: mul[a][:, add] != _gather(add, mul[a][:, :, None], mul[a][:, None, :])),
        # (a+b)*c vs a*c + b*c
        ("right_distributive", n, n * n,
         lambda a: mul[add[a]] != _gather(add, mul[a][:, None, :], mul)),
    ))


def ring_from_tables(
    add_table,
    mul_table,
    zero: int,
    one: int,
    labels: Sequence[str] | None = None,
    construction: str | None = None,
) -> FiniteRing:
    """``FiniteRing`` on raw tables, which checks them; the labels default to numerals."""
    n = len(add_table)
    labels = _numerals(n) if labels is None else tuple(labels)
    return FiniteRing(n, add_table, mul_table, zero, one, labels, construction)


def _power(base: int, exp: int, limit: int) -> int:
    """``base ** exp``, saturating at ``limit + 1`` without forming large powers."""
    if base > 1 and exp * (base.bit_length() - 1) >= limit.bit_length():
        return limit + 1  # base ** exp >= 2 ** limit.bit_length() > limit
    return min(base ** exp, limit + 1)


def _require_order(order: int, what: str) -> None:
    """Refuse a ring of ``order`` past ``build_cap()``; ``order`` may be saturated by ``_power``.

    The message leaves the order out: it may be too large to print.
    """
    cap = build_cap()
    if order > cap:
        why = ", the most elements a uint16 table can index" if cap == _INDEX_LIMIT else ""
        raise OrderCapExceeded(f"{what} would have order above the cap {cap}{why}")


# ---------------------------------------------------------------------------
# basic constructors


def make_zmod(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` with elements ``0..n-1``."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    _require_order(n, "the integers modulo n")
    idx = np.arange(n, dtype=np.int64)  # a product of two indices needs up to 32 bits
    add, mul = np.empty((n, n), dtype=_TABLE_DTYPE), np.empty((n, n), dtype=_TABLE_DTYPE)
    for rows in _row_blocks(n, n):
        np.remainder(idx[rows, None] + idx, n, out=add[rows], casting="unsafe")
        np.remainder(idx[rows, None] * idx, n, out=mul[rows], casting="unsafe")
    one = 1 if n > 1 else 0
    return _ring(n, add, mul, 0, one, _numerals(n), f"z{n}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of ``num`` by monic ``den`` over ``Z_p`` (little-endian)."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        lead = num[-1]
        for i, c in enumerate(den):
            num[i + shift] = (num[i + shift] - lead * c) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_is_irreducible(f: list[int], p: int) -> bool:
    """Trial division of monic ``f`` by all lower-degree monic polynomials."""
    k = len(f) - 1
    for deg in range(1, k // 2 + 1):
        for m in range(p**deg):
            g = _digits(m, p, deg) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def _digits(m: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(m % p)
        m //= p
    return out


def _least_irreducible(p: int, k: int) -> list[int]:
    """Least monic irreducible of degree ``k`` over ``Z_p``, little-endian.

    "Least" orders the coefficient tuple (c_{k-1}, ..., c_0) of
    x^k + sum c_i x^i lexicographically, which is ascending order of the
    integer encoding sum c_i p^i.
    """
    for m in range(p**k):
        f = _digits(m, p, k) + [1]
        if _poly_is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {k} over Z_{p}")


def _poly_label(coeffs: Sequence[int], labels: Sequence[str], zero: int, one: int,
                var: str, simple: bool) -> str:
    """``sum c_i var^i`` for little-endian coefficient indices, named by ``labels``.

    A coefficient ``one`` is left out, and a coefficient label is
    parenthesised unless ``simple`` (every label numeric).
    """
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == zero:
            continue
        cl = labels[c]
        if i == 0:
            terms.append(cl)
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == one:
            terms.append(power)
        elif simple:
            terms.append(cl + power)
        else:
            terms.append(f"({cl}){power}")
    return "+".join(terms) if terms else labels[zero]


def make_gf(p: int, k: int) -> FiniteRing:
    """The field of order ``p**k`` as ``Z_p[x]`` modulo the least irreducible ``f``.

    Element ``i`` is the polynomial with base-``p`` digits of ``i`` as
    coefficients, constant term least significant: the encoding of
    ``truncated_poly``, which is the case ``f = x**k``.  The ring is built
    on ``k`` copies of ``Z_p`` by structure constants: coefficient ``c``
    times coefficient ``d`` adds ``r x y`` into coefficient ``t`` for each
    term ``r x**t`` of ``x**(c+d) mod f``.
    """
    what = "the field gf(p,k)"
    _require_order(_power(p, k, build_cap()), what)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"degree must be positive, got {k}")
    Zp = make_zmod(p)
    labels = Zp.labels
    f = _least_irreducible(p, k)
    powers = [_poly_mod([0] * m + [1], f, p) for m in range(2 * k - 1)]  # x**m mod f
    scaled = {r: Zp.mul_table[r, Zp.mul_table] for power in powers for r in power if r > 1}
    scaled[1] = Zp.mul_table  # scaled[r][x, y] is r x y
    # digit k-1-c holds coefficient c, as in truncated_poly
    rules = [(k - 1 - c, k - 1 - d, k - 1 - t, scaled[r])
             for c in range(k) for d in range(k)
             for t, r in enumerate(powers[c + d]) if r]
    return _structure_ring(
        [Zp.add_table] * k, rules, [0] * k, [0] * (k - 1) + [1],
        lambda d: _poly_label(d[::-1], labels, 0, 1, "x", True), f"gf({p},{k})", what)


# ---------------------------------------------------------------------------
# composite constructors


def _addition_table(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The digitwise addition table of ``_structure_ring``'s encoding on ``parts``, in place.

    The table of level ``q`` (digits before ``q`` all index 0) is the corner of side
    ``m s`` of the whole table, ``s`` the stride of digit ``q``: its block ``(x, y)`` is
    the level below, the corner of side ``s``, plus part ``q``'s ``(x, y)`` times ``s``.
    Rows of digits ``x != 0`` read the corner; the rows of ``x = 0`` then overwrite it from
    a copy, a block of rows at a time.  A scaled or copied block holds at most
    ``_BLOCK_ENTRIES / 2`` entries, so with numpy's buffers it stays under a block's bytes.
    """
    n = math.prod(map(len, parts))
    add, size = np.zeros((n, n), dtype=_TABLE_DTYPE), 1  # the corner [[0]]: the empty level
    for part in (part for part in reversed(parts) if len(part) > 1):  # order 1 adds nothing
        m = len(part)
        below, level = add[:size, :size], add[:m * size, :m * size].reshape(m, size, m, size)
        for xs in _row_blocks(m - 1, 2 * m):
            xs = slice(xs.start + 1, xs.stop + 1)  # the digits x != 0
            np.add(np.multiply(part[xs], size, dtype=_TABLE_DTYPE)[:, None, :, None],
                   below[None, :, None, :], out=level[xs])
        scaled = np.multiply(part[0], size, dtype=_TABLE_DTYPE)
        for rows in _row_blocks(size, 2 * size):
            np.add(scaled[:, None], below[rows, None, :].copy(), out=level[0, rows])
        size *= m
    return add


def _structure_ring(parts: Sequence, rules: Sequence[tuple[int, int, int, object]],
                    zero: Sequence[int], one: Sequence[int], label: Callable[[tuple], str],
                    construction: str | None, what: str) -> FiniteRing:
    """The ring on a direct sum of abelian groups with a biadditive product.

    ``parts`` are the additive tables of the components; every part and
    rule table is a ring's or a ``BimoduleSpec``'s ``uint16`` array.  An element is a
    digit tuple ``(x_0, ..., x_{P-1})``, digit ``p`` an index into part
    ``p``, and its index is the mixed-radix number with the first digit
    most significant; this is the one element encoding of ``make_gf`` and
    every composite constructor.  Addition is digitwise.  A rule
    ``(i, j, t, table)`` says that digit ``i`` of the left factor times
    digit ``j`` of the right factor adds ``table[x_i, y_j]`` into digit
    ``t`` of the product.  ``zero`` and ``one`` are digit tuples, and
    ``label`` names an element from its digit tuple; the ring's ``labels``
    call it when a label is read, so it must close over the labels of the
    parts, never over a ring.  ``what`` names the ring when its order is
    past the cap.

    Precondition: every rule table is biadditive, so it sends a zero
    digit on either side to the zero of part ``t``.  The callers ensure
    it: their ring tables are a ``FiniteRing``'s and their bimodules
    passed ``check_bimodule``, so the result is a ring and is not checked.

    The multiplication table is filled from ``_addition_table(parts)``,
    which the ring does not keep, level by level from the least significant
    digit up; level ``q`` holds the elements whose digits before ``q`` are
    zeros.  It is filled by distributivity, a column (all ``a`` times one
    ``b``) at a time.  The column of a one-digit element (digit ``q`` is
    ``y``, every other digit is its part's zero) is read off the rules on
    the digits of all ``n`` elements.  An element of level ``q`` is such a one-digit
    element plus an element of the level below, so its column is one
    gather of the two columns from ``add``.  The slab of level ``q`` whose
    digit ``q`` is part ``q``'s zero ``z`` is the level below itself: it is
    not gathered, only copied into place when ``z`` is not index 0.  So a
    level of a part of order ``m`` gathers ``(m - 1) / m`` of its entries,
    ``n (n - 1)`` entries in all when every part has order 2.  Rows of
    ``mul`` are independent, so it is filled a block of rows at a time,
    each block through every level in place.  Digit sums run in ``int32``;
    each gather writes into ``mul`` a run of rows whose ``intp`` index
    holds at most ``_BLOCK_ENTRIES / 16`` entries (or one row), and values
    are cast to ``uint16`` on store.
    """
    orders = [len(part) for part in parts]
    n = math.prod(orders)
    _require_order(n, what)
    strides = [math.prod(orders[q + 1:]) for q in range(len(orders))]
    # rules_at[j]: the rules whose right factor is digit j, as (i, t, table)
    rules_at = [[] for _ in parts]
    for i, j, t, table in rules:
        rules_at[j].append((i, t, table))

    def index(digit_tuple: Sequence) -> np.integer | np.ndarray:
        return sum(np.multiply(d, s, dtype=np.int32) for d, s in zip(digit_tuple, strides))

    add = _addition_table(parts)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for rows in _row_blocks(n, n):
        block = mul[rows]
        digits = np.unravel_index(np.arange(rows.start, rows.stop), orders)
        block[:, 0] = index(zero)  # the column of 0
        for q in reversed(range(len(parts))):
            m, size, z = orders[q], strides[q], zero[q]
            # products[t][a, y]: digit t of a times the one-digit element y in digit q
            products = list(zero)
            for i, t, table in rules_at[q]:
                products[t] = _gather(parts[t], products[t], table[digits[i]])
            columns = np.broadcast_to(index(products), (len(block), m))
            below = block[:, z * size:(z + 1) * size]  # slab y = z is the level below
            if z:
                below[...] = block[:, :size]
            for start, stop in ((0, z), (z + 1, m)):  # the slabs y != z, in two runs
                if start == stop:
                    continue
                for sub in _row_blocks(len(block), (stop - start) * size << 4):
                    gathered = _gather(add, columns[sub, start:stop, None], below[sub, None, :])
                    block[sub, start * size:stop * size] = gathered.reshape(len(gathered), -1)
    return _ring(n, [tuple(parts)], mul, int(index(zero)), int(index(one)),
                 _Labels(label, orders), construction)


def direct_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Componentwise product; indices are mixed-radix, first factor most significant."""
    rings = list(rings)
    if not rings:
        raise ValueError("direct product needs at least one factor")
    names = [r.construction for r in rings]
    factors = [r.labels for r in rings]
    return _structure_ring(
        [r.add_table for r in rings],
        [(t, t, t, r.mul_table) for t, r in enumerate(rings)],
        [r.zero for r in rings], [r.one for r in rings],
        lambda d: "(" + ",".join(labels[x] for labels, x in zip(factors, d)) + ")",
        None if None in names else "prod(" + ",".join(names) + ")", "direct product")


def matrix_ring(R: FiniteRing, k: int, shape: str = "full") -> FiniteRing:
    """``k x k`` matrices over ``R``; ``shape`` is ``"full"`` or ``"lower_triangular"``.

    Entries are ordered row-major and encoded mixed-radix with the first
    entry most significant.
    """
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    if shape not in ("full", "lower_triangular"):
        raise ValueError(f"unknown shape {shape!r}")
    what = f"{shape} matrices over order {R.order}"
    entries = k * k if shape == "full" else k * (k + 1) // 2
    _require_order(_power(R.order, entries, build_cap()), what)
    pos = [(i, j) for i in range(k) for j in range(k if shape == "full" else i + 1)]
    where = {ij: t for t, ij in enumerate(pos)}
    rules = [(where[(i, l)], where[(l, j)], t, R.mul_table)
             for t, (i, j) in enumerate(pos) for l in range(k)
             if (i, l) in where and (l, j) in where]
    labels, zero = R.labels, R.zero

    def lab(digits: tuple[int, ...]) -> str:
        entry = {ij: labels[d] for ij, d in zip(pos, digits)}
        zl = labels[zero]
        rows = ("[" + ",".join(entry.get((i, j), zl) for j in range(k)) + "]" for i in range(k))
        return "[" + ",".join(rows) + "]"

    tag = "mat" if shape == "full" else "tri"
    construction = f"{tag}({R.construction},{k})" if R.construction else None
    return _structure_ring(
        [R.add_table] * len(pos), rules, [R.zero] * len(pos),
        [R.one if i == j else R.zero for i, j in pos], lab, construction, what)


def truncated_poly(R: FiniteRing, n: int) -> FiniteRing:
    """``R[x]`` with ``x**n = 0``; coefficient ``i`` has stride ``|R|**i``."""
    if n < 1:
        raise ValueError(f"truncation degree must be positive, got {n}")
    what = f"truncated polynomials over order {R.order}"
    _require_order(_power(R.order, n, build_cap()), what)
    # digit n-1-i holds coefficient i, so the constant term is least significant
    rules = [(n - 1 - i, n - 1 - (d - i), n - 1 - d, R.mul_table)
             for d in range(n) for i in range(d + 1)]
    labels, zero, one = R.labels, R.zero, R.one

    @functools.cache
    def style() -> tuple[str, bool]:
        """The variable, ``y`` when a coefficient label holds ``x``, and whether all are numeric."""
        return ("y" if any("x" in lbl for lbl in labels) else "x",
                all(lbl.isdigit() for lbl in labels))

    construction = f"poly({R.construction},{n})" if R.construction else None
    return _structure_ring(
        [R.add_table] * n, rules, [zero] * n, [zero] * (n - 1) + [one],
        lambda d: _poly_label(d[::-1], labels, zero, one, *style()), construction, what)


# ---------------------------------------------------------------------------
# bimodules and extensions


@dataclass(frozen=True, eq=False)
class BimoduleSpec:
    """An explicit bimodule: abelian group tables plus two action tables.

    ``left_action[r, m]`` is the module index of ``r . m`` for a ring index
    ``r``; ``right_action[m, s]`` is ``m . s``; every action is a full table.
    Construction checks that ``add_table`` is ``order x order``, that every
    entry is an integer in ``[0, order)``, that ``zero`` is one and that
    there are ``order`` labels, and keeps read-only ``uint16`` tables: a
    ``uint16`` array is kept and made read-only, any other is converted;
    ``check_bimodule`` checks the rest.
    """

    order: int
    add_table: np.ndarray
    left_action: np.ndarray
    right_action: np.ndarray
    zero: int
    labels: Sequence[str]
    description: str | None = None

    def __post_init__(self) -> None:
        m, shape = self.order, np.shape(self.add_table)
        if shape != (m, m):
            raise ValueError(f"module addition table shape {shape} != ({m}, {m})")
        if m > _INDEX_LIMIT:
            raise ValueError(f"order {m} is above {_INDEX_LIMIT}, the most a uint16 table can index")
        if not 0 <= self.zero < m:
            raise ValueError(f"zero index {self.zero} out of range [0, {m})")
        if len(self.labels) != m:
            raise ValueError(f"order {m}, {len(self.labels)} labels")
        for attr, name in (("add_table", "module addition"), ("left_action", "left action"),
                           ("right_action", "right action")):
            t = np.asarray(getattr(self, attr))
            if not np.issubdtype(t.dtype, np.integer):
                raise ValueError(f"{name} entries must be integer element indices")
            if t.size and (t.min() < 0 or t.max() >= m):
                raise ValueError(f"{name} entries must lie in [0, {m})")
            object.__setattr__(self, attr, _frozen(t.astype(_TABLE_DTYPE, copy=False)))


def check_bimodule(left: tuple, M: BimoduleSpec, right: tuple) -> AxiomCheck:
    """Validate the abelian group and both unital, compatible actions of ``M``; ``left``
    and ``right`` are the raw ``(add, mul, one)`` tables of its two rings, which need not
    be a ring, as in ``check.bimodule_axioms``."""
    m, add, lact, ract = M.order, M.add_table, M.left_action, M.right_action
    (radd, rmul, rone), (sadd, smul, sone) = left, right
    nr, ns = len(radd), len(sadd)
    if lact.shape != (nr, m):
        raise ValueError(f"left action shape {lact.shape} != ({nr}, {m})")
    if ract.shape != (m, ns):
        raise ValueError(f"right action shape {ract.shape} != ({m}, {ns})")
    idx = np.arange(m)
    return _axiom_check((
        *_group_axioms(add, M.zero, "module_"),
        # r.(m1+m2) vs r.m1 + r.m2, axes [r, m1, m2]
        ("left_action_additive_in_module", nr, m * m,
         lambda r: lact[r][:, add] != _gather(add, lact[r][:, :, None], lact[r][:, None, :])),
        # (r1+r2).m vs r1.m + r2.m, axes [r1, r2, m]
        ("left_action_additive_in_ring", nr, nr * m,
         lambda r: lact[radd[r]] != _gather(add, lact[r][:, None, :], lact)),
        # (r1 r2).m vs r1.(r2.m), axes [r1, r2, m]
        ("left_action_associative", nr, nr * m, lambda r: lact[rmul[r]] != lact[r][:, lact]),
        # (m1+m2).s vs m1.s + m2.s, axes [m1, m2, s]
        ("right_action_additive_in_module", m, m * ns,
         lambda x: ract[add[x]] != _gather(add, ract[x][:, None, :], ract)),
        # m.(s1+s2) vs m.s1 + m.s2, axes [m, s1, s2]
        ("right_action_additive_in_ring", m, ns * ns,
         lambda x: ract[x][:, sadd] != _gather(add, ract[x][:, :, None], ract[x][:, None, :])),
        # m.(s1 s2) vs (m.s1).s2, axes [m, s1, s2]
        ("right_action_associative", m, ns * ns, lambda x: ract[x][:, smul] != ract[ract[x]]),
        # (r.m).s vs r.(m.s), axes [r, m, s]
        ("action_compatible", nr, m * ns, lambda r: ract[lact[r]] != lact[r][:, ract]),
        ("left_action_unital", m, 1, lambda x: lact[rone, x] != idx[x]),
        ("right_action_unital", m, 1, lambda x: ract[x, sone] != idx[x]),
    ))


def regular_bimodule(R: FiniteRing) -> BimoduleSpec:
    """``R`` as a bimodule over itself, both actions ring multiplication."""
    return BimoduleSpec(R.order, R.add_table, R.mul_table, R.mul_table,
                        R.zero, R.labels, "self")


def zero_bimodule(R: FiniteRing) -> BimoduleSpec:
    """The one-element bimodule over ``R``."""
    zeros = np.zeros((R.order, 1), dtype=_TABLE_DTYPE)
    return BimoduleSpec(1, [[0]], zeros, zeros.T,
                        0, _member_labels(R.labels, [R.zero]), "ideal(0)")


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a nonnegative integer vector, in its dtype.

    A bare ``np.unique`` would import ``numpy.ma`` to test for a mask.
    """
    return np.flatnonzero(np.bincount(values)).astype(values.dtype)


def _positions(R: FiniteRing, members: np.ndarray) -> np.ndarray:
    """Map sending each entry of the sorted index array ``members`` to its position."""
    pos = np.zeros(R.order, dtype=_TABLE_DTYPE)
    pos[members] = np.arange(members.size)
    return pos


def ideal_bimodule(R: FiniteRing, d: int) -> BimoduleSpec:
    """The principal ideal ``dR`` of a commutative ``R`` as a bimodule.

    ``d`` is an element index; ``d = zero`` gives the zero bimodule.  The
    base must be commutative so that the two restricted actions agree.
    """
    _check_element(R, d)
    if not _is_commutative(R):
        raise ValueError("ideal bimodules require a commutative base ring")
    mul = R.mul_table
    members = _distinct(mul[:, d])
    pos = _positions(R, members)
    add = pos[R.add_table[np.ix_(members, members)]]
    lact = pos[mul[:, members]]
    ract = pos[mul[members, :]]
    return BimoduleSpec(members.size, add, lact, ract, int(pos[R.zero]),
                        _member_labels(R.labels, members.tolist()), f"ideal({d})")


def trivial_extension(R: FiniteRing, M: BimoduleSpec) -> FiniteRing:
    """The ring on pairs ``(r, m)`` with ``(r1,m1)(r2,m2) = (r1 r2, r1 m2 + m1 r2)``."""
    what = f"trivial extension of order {R.order} by module of order {M.order}"
    _require_order(R.order * M.order, what)  # before the bimodule check's cubic scans
    result = check_bimodule((R.add_table, R.mul_table, R.one), M, (R.add_table, R.mul_table, R.one))
    if not result.ok:
        raise ValueError(f"invalid bimodule: {result.axiom} fails at {result.witness}")
    construction = (
        f"trivext({R.construction},{M.description})"
        if R.construction and M.description else None
    )
    ring_labels, module_labels = R.labels, M.labels
    return _structure_ring(
        [R.add_table, M.add_table],
        [(0, 0, 0, R.mul_table), (0, 1, 1, M.left_action), (1, 0, 1, M.right_action)],
        (R.zero, M.zero), (R.one, M.zero),
        lambda d: f"({ring_labels[d[0]]},{module_labels[d[1]]})", construction, what)


def formal_triangular(R: FiniteRing, S: FiniteRing, V: BimoduleSpec) -> FiniteRing:
    """The triangular ring of triples ``(r, v, s)`` with ``V`` a left-``R`` right-``S`` bimodule.

    Multiplication is ``(r1,v1,s1)(r2,v2,s2) = (r1 r2, r1 v2 + v1 s2, s1 s2)``.
    """
    what = f"triangular ring of order {R.order}*{V.order}*{S.order}"
    _require_order(R.order * V.order * S.order, what)
    result = check_bimodule((R.add_table, R.mul_table, R.one), V, (S.add_table, S.mul_table, S.one))
    if not result.ok:
        raise ValueError(f"invalid bimodule: {result.axiom} fails at {result.witness}")
    rl, vl, sl = R.labels, V.labels, S.labels
    return _structure_ring(
        [R.add_table, V.add_table, S.add_table],
        [(0, 0, 0, R.mul_table), (0, 1, 1, V.left_action), (1, 2, 1, V.right_action),
         (2, 2, 2, S.mul_table)],
        (R.zero, V.zero, S.zero), (R.one, V.zero, S.one),
        lambda d: f"[[{rl[d[0]]},{vl[d[1]]}],[0,{sl[d[2]]}]]", None, what)


def pierce_corner(R: FiniteRing, e: int) -> FiniteRing:
    """The corner ring ``eRe`` for an idempotent ``e``, with identity ``e``."""
    _check_element(R, e)
    mul = R.mul_table
    if mul[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    members = _distinct(mul[mul[e], e])
    pos = _positions(R, members)
    corner = np.ix_(members, members)
    return _ring(members.size, pos[R.add_table[corner]], pos[mul[corner]],
                 int(pos[R.zero]), int(pos[e]), _member_labels(R.labels, members.tolist()))


def opposite(R: FiniteRing) -> FiniteRing:
    """The opposite ring: same elements, reversed multiplication.

    Its ``mul_table`` is the transposed view of ``R.mul_table``, and the two
    share ``add_table``, formed once for both, so no table is copied.  ``R`` caches
    the result, which refers back to ``R`` weakly: ``opposite(opposite(R))``
    is ``R`` while ``R`` lives, and no reference cycle outlives ``R``.
    """
    cached = R._cache.get("opposite")
    if isinstance(cached, weakref.ref):
        cached = cached()
    if cached is not None:
        return cached
    construction = f"opp({R.construction})" if R.construction else None
    opp = _ring(R.order, R._add, R.mul_table.T, R.zero, R.one, R.labels, construction)
    R._cache["opposite"] = opp
    opp._cache["opposite"] = weakref.ref(R)
    return opp
