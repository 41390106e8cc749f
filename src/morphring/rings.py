"""Finite rings as explicit Cayley tables, built from composable constructors.

A ring of order ``n`` is stored as two ``n x n`` tables of element indices
(addition and multiplication), read-only ``int32`` arrays, together with
the indices of 0 and 1.  All
constructors produce canonical element orderings (mixed-radix or row-major
encodings of component indices) so that reports built from them are
reproducible bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

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

_DEFAULT_ORDER_CAP = 512
_DEFAULT_BUILD_CAP = 4096


class OrderCapExceeded(ValueError):
    """A construction would exceed the configured order cap."""


def _env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, else ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{name} must be positive, got {cap}")
    return cap


def order_cap() -> int:
    """Largest ring order accepted for full classification profiles."""
    return _env_cap("RING_ORDER_CAP", _DEFAULT_ORDER_CAP)


def build_cap() -> int:
    """Largest ring order accepted by the constructors.

    Single-predicate element scans remain tractable well past the full
    classification cap, so constructions are allowed up to the larger of
    ``order_cap()`` and 4096.
    """
    return max(order_cap(), _DEFAULT_BUILD_CAP)


class AxiomCheck(NamedTuple):
    """Outcome of a table validation: flag, violated axiom, witness indices."""

    ok: bool
    axiom: str | None
    witness: tuple[int, ...] | None


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """An associative ring with identity, given by Cayley tables.

    ``add_table[a, b]`` and ``mul_table[a, b]`` are element indices in
    ``[0, order)``, held as read-only ``int32`` arrays of shape
    ``(order, order)``; they are the only stored form of the tables.  The
    opposite ring's ``mul_table`` is the transposed view of this one's.
    ``add_rows`` and ``mul_rows`` are the same tables as nested lists of
    Python ints, built on first use, for loops that index one entry at a
    time.  ``construction`` is the canonical expression text that built
    the ring, when one exists.  Two rings are equal when their tables,
    distinguished elements, labels and construction agree.  ``_cache``
    holds derived tables (annihilator masks, the opposite ring) built
    lazily by other modules.
    """

    order: int
    add_table: np.ndarray
    mul_table: np.ndarray
    zero: int
    one: int
    labels: tuple[str, ...]
    construction: str | None = None
    _cache: dict = field(default_factory=dict, repr=False)

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

    @property
    def add_rows(self) -> list[list[int]]:
        """``add_table`` as nested lists; shared with the opposite ring."""
        rows = self._cache.get("add_rows")
        if rows is None:
            twin = self._cache.get("opposite")
            rows = twin._cache.get("add_rows") if twin is not None else None
            if rows is None:
                rows = self.add_table.tolist()
            self._cache["add_rows"] = rows
        return rows

    @property
    def mul_rows(self) -> list[list[int]]:
        """``mul_table`` as nested lists."""
        rows = self._cache.get("mul_rows")
        if rows is None:
            rows = self._cache["mul_rows"] = self.mul_table.tolist()
        return rows

    @property
    def neg_table(self) -> np.ndarray:
        """Read-only ``int32`` array whose entry ``a`` is the index of ``-a``."""
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


def _frozen(table) -> np.ndarray:
    """``table`` as a read-only ``int32`` array (no copy when it already is one)."""
    out = np.asarray(table, dtype=np.int32)
    out.flags.writeable = False
    return out


def _validate_tables(add_table, mul_table, zero: int, one: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Structural validation; returns numpy views and the order."""
    add = np.asarray(add_table)
    mul = np.asarray(mul_table)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise ValueError(f"addition table must be square, got shape {add.shape}")
    if mul.shape != add.shape:
        raise ValueError(f"table shapes differ: add {add.shape}, mul {mul.shape}")
    n = add.shape[0]
    if n == 0:
        raise ValueError("tables must be nonempty")
    if not (np.issubdtype(add.dtype, np.integer) and np.issubdtype(mul.dtype, np.integer)):
        raise ValueError("tables must contain integer element indices")
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.min() < 0 or t.max() >= n:
            raise ValueError(f"{name} table entries must lie in [0, {n})")
    for name, e in (("zero", zero), ("one", one)):
        if not 0 <= e < n:
            raise ValueError(f"{name} index {e} out of range [0, {n})")
    return add.astype(np.int32), mul.astype(np.int32), n


def _chunk_rows(n: int) -> int:
    # keep (chunk, n, n) int32 blocks around 64 MB
    return max(1, (1 << 24) // max(1, n * n))


def _first_diff3(lhs: np.ndarray, rhs: np.ndarray, offset: int) -> tuple[int, int, int]:
    where = np.argwhere(lhs != rhs)[0]
    return (int(where[0]) + offset, int(where[1]), int(where[2]))


def _check_assoc(t: np.ndarray, n: int) -> tuple[int, int, int] | None:
    """First (a, b, c) with t[t[a,b],c] != t[a,t[b,c]], or None."""
    step = _chunk_rows(n)
    for start in range(0, n, step):
        rows = t[start : start + step]
        lhs = t[rows]            # [i,b,c] = t[t[a,b], c]
        rhs = rows[:, t]         # [i,b,c] = t[a, t[b,c]]
        if not np.array_equal(lhs, rhs):
            return _first_diff3(lhs, rhs, start)
    return None


def _check_abelian_group(add: np.ndarray, zero: int, prefix: str) -> AxiomCheck | None:
    """First failing abelian-group axiom of ``add`` with identity ``zero``, or None."""
    bad = np.nonzero(add[zero] != np.arange(len(add)))[0]
    if bad.size:
        return AxiomCheck(False, f"{prefix}add_identity", (int(bad[0]),))
    no_inverse = np.nonzero(~np.any(add == zero, axis=1))[0]
    if no_inverse.size:
        return AxiomCheck(False, f"{prefix}add_inverse", (int(no_inverse[0]),))
    if not np.array_equal(add, add.T):
        where = np.argwhere(add != add.T)[0]
        return AxiomCheck(False, f"{prefix}add_commutative", (int(where[0]), int(where[1])))
    witness = _check_assoc(add.astype(np.int32, copy=False), len(add))
    if witness is not None:
        return AxiomCheck(False, f"{prefix}add_associative", witness)
    return None


def check_ring_axioms(add_table, mul_table, zero: int, one: int) -> AxiomCheck:
    """Validate that the tables define a ring with the given 0 and 1.

    Structural defects (non-square tables, out-of-range indices) raise
    ``ValueError`` before any axiom is considered.  Axiom failures are
    reported as ``AxiomCheck(False, axiom, witness)`` with the first
    violating element tuple in lexicographic order; identity axioms are
    checked before associativity so that a broken identity row is named
    as such rather than as an associativity fallout.
    """
    add, mul, n = _validate_tables(add_table, mul_table, zero, one)
    group = _check_abelian_group(add, zero, "")
    if group is not None:
        return group
    idx = np.arange(n, dtype=np.int32)
    if not (np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)):
        bad_row = np.nonzero(mul[one] != idx)[0]
        bad = bad_row if bad_row.size else np.nonzero(mul[:, one] != idx)[0]
        return AxiomCheck(False, "identity", (int(bad[0]),))
    witness = _check_assoc(mul, n)
    if witness is not None:
        return AxiomCheck(False, "mul_associative", witness)

    step = _chunk_rows(n)
    for start in range(0, n, step):
        rows = mul[start : start + step]
        lhs = rows[:, add]                                   # a*(b+c)
        rhs = add[rows[:, :, None], rows[:, None, :]]        # a*b + a*c
        if not np.array_equal(lhs, rhs):
            return AxiomCheck(False, "left_distributive", _first_diff3(lhs, rhs, start))
    for start in range(0, n, step):
        lhs = mul[add[start : start + step]]                 # (a+b)*c
        rhs = add[mul[start : start + step][:, None, :], mul[None, :, :]]  # a*c + b*c
        if not np.array_equal(lhs, rhs):
            return AxiomCheck(False, "right_distributive", _first_diff3(lhs, rhs, start))
    return AxiomCheck(True, None, None)


def ring_from_tables(
    add_table,
    mul_table,
    zero: int,
    one: int,
    labels: Sequence[str] | None = None,
    construction: str | None = None,
    check: bool = True,
) -> FiniteRing:
    """Build a ``FiniteRing`` from raw tables, validating the axioms."""
    add, mul, n = _validate_tables(add_table, mul_table, zero, one)
    if check:
        result = check_ring_axioms(add, mul, zero, one)
        if not result.ok:
            raise ValueError(f"tables violate ring axiom {result.axiom} at {result.witness}")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
    return FiniteRing(n, _frozen(add), _frozen(mul), zero, one, labels, construction)


def _require_order(n: int, what: str) -> None:
    cap = build_cap()
    if n > cap:
        raise OrderCapExceeded(f"{what} has order {n}, above the cap {cap}")


# ---------------------------------------------------------------------------
# basic constructors


def make_zmod(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` with elements ``0..n-1``."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    _require_order(n, f"z{n}")
    idx = np.arange(n, dtype=np.int32)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    one = 1 if n > 1 else 0
    labels = tuple(str(i) for i in range(n))
    return FiniteRing(n, _frozen(add), _frozen(mul), 0, one, labels, f"z{n}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


def _poly_label(coeffs: Sequence[int], var: str = "x") -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            power = var if i == 1 else f"{var}^{i}"
            terms.append(head + power)
    return "+".join(terms) if terms else "0"


def make_gf(p: int, k: int) -> FiniteRing:
    """The field of order ``p**k`` as ``Z_p[x]`` modulo the least irreducible.

    Element ``i`` is the polynomial with base-``p`` digits of ``i`` as
    coefficients, constant term least significant.  Multiplication tables
    are assembled from discrete logarithms of a primitive element.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"degree must be positive, got {k}")
    n = p**k
    _require_order(n, f"gf({p},{k})")
    f = _least_irreducible(p, k)

    def mul_poly(a: int, b: int) -> int:
        ca, cb = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_mod(prod, f, p)
        return sum(c * p**i for i, c in enumerate(rem))

    # additive table: componentwise digits mod p
    digits = np.zeros((n, k), dtype=np.int64)
    rest = np.arange(n)
    for i in range(k):
        digits[:, i] = rest % p
        rest = rest // p
    weights = p ** np.arange(k)
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights

    # multiplicative table from a primitive element
    mul = np.zeros((n, n), dtype=np.int64)
    if n > 2:
        factors = _prime_factors(n - 1)

        def power(a: int, e: int) -> int:
            out = 1
            while e:
                if e & 1:
                    out = mul_poly(out, a)
                a = mul_poly(a, a)
                e >>= 1
            return out

        g = next(
            a for a in range(2, n)
            if all(power(a, (n - 1) // q) != 1 for q in factors)
        )
        exp = np.empty(n - 1, dtype=np.int64)
        acc = 1
        for t in range(n - 1):
            exp[t] = acc
            acc = mul_poly(acc, g)
        log = np.zeros(n, dtype=np.int64)
        log[exp] = np.arange(n - 1)
        nz = np.arange(1, n)
        mul[np.ix_(nz, nz)] = exp[(log[nz][:, None] + log[nz][None, :]) % (n - 1)]
    elif n == 2:
        mul[1][1] = 1

    labels = tuple(_poly_label(_digits(i, p, k)) for i in range(n))
    return FiniteRing(n, _frozen(add), _frozen(mul), 0, 1, labels, f"gf({p},{k})")


# ---------------------------------------------------------------------------
# composite constructors


def _components_construction(rings: Sequence[FiniteRing]) -> str | None:
    parts = [r.construction for r in rings]
    if any(c is None for c in parts):
        return None
    return "prod(" + ",".join(parts) + ")"  # type: ignore[arg-type]


def direct_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Componentwise product; indices are mixed-radix, first factor most significant."""
    rings = list(rings)
    if not rings:
        raise ValueError("direct product needs at least one factor")
    n = 1
    for r in rings:
        n *= r.order
    _require_order(n, "direct product")
    strides = []
    s = n
    for r in rings:
        s //= r.order
        strides.append(s)
    idx = np.arange(n)
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for r, stride in zip(rings, strides):
        comp = (idx // stride) % r.order
        add += r.add_table[comp[:, None], comp[None, :]].astype(np.int64) * stride
        mul += r.mul_table[comp[:, None], comp[None, :]].astype(np.int64) * stride
    zero = sum(r.zero * s for r, s in zip(rings, strides))
    one = sum(r.one * s for r, s in zip(rings, strides))

    def lab(i: int) -> str:
        parts = [r.labels[(i // s) % r.order] for r, s in zip(rings, strides)]
        return "(" + ",".join(parts) + ")"

    labels = tuple(lab(i) for i in range(n))
    return FiniteRing(n, _frozen(add), _frozen(mul), zero, one, labels,
                      _components_construction(rings))


def matrix_ring(R: FiniteRing, k: int, shape: str = "full") -> FiniteRing:
    """``k x k`` matrices over ``R``; ``shape`` is ``"full"`` or ``"lower_triangular"``.

    Entries are ordered row-major and encoded mixed-radix with the first
    entry most significant.
    """
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    if shape not in ("full", "lower_triangular"):
        raise ValueError(f"unknown shape {shape!r}")
    if shape == "full":
        pos = [(i, j) for i in range(k) for j in range(k)]
    else:
        pos = [(i, j) for i in range(k) for j in range(i + 1)]
    e = len(pos)
    m = R.order
    n = m**e
    _require_order(n, f"{shape} {k}x{k} matrices over order {m}")
    strides = [m ** (e - 1 - t) for t in range(e)]
    where = {ij: t for t, ij in enumerate(pos)}
    idx = np.arange(n)
    comp = [(idx // strides[t]) % m for t in range(e)]
    radd, rmul = R.add_table, R.mul_table

    add = np.zeros((n, n), dtype=np.int64)
    for t in range(e):
        add += radd[comp[t][:, None], comp[t][None, :]].astype(np.int64) * strides[t]

    mul = np.zeros((n, n), dtype=np.int64)
    for (i, j), t in where.items():
        acc = None
        for l in range(k):
            if (i, l) not in where or (l, j) not in where:
                continue
            term = rmul[comp[where[(i, l)]][:, None], comp[where[(l, j)]][None, :]]
            acc = term if acc is None else radd[acc, term]
        assert acc is not None
        mul += acc.astype(np.int64) * strides[t]

    zero = sum(R.zero * s for s in strides)
    one = sum(R.one * strides[where[(i, i)]] for i in range(k)) + sum(
        R.zero * strides[t] for (i, j), t in where.items() if i != j
    )

    zl = R.labels[R.zero]

    def lab(x: int) -> str:
        entries = {ij: R.labels[(x // strides[t]) % m] for ij, t in where.items()}
        rows = []
        for i in range(k):
            rows.append("[" + ",".join(entries.get((i, j), zl) for j in range(k)) + "]")
        return "[" + ",".join(rows) + "]"

    labels = tuple(lab(x) for x in range(n))
    tag = "mat" if shape == "full" else "tri"
    construction = f"{tag}({R.construction},{k})" if R.construction else None
    return FiniteRing(n, _frozen(add), _frozen(mul), zero, one, labels, construction)


def truncated_poly(R: FiniteRing, n: int) -> FiniteRing:
    """``R[x]`` with ``x**n = 0``; coefficient ``i`` has stride ``|R|**i``."""
    if n < 1:
        raise ValueError(f"truncation degree must be positive, got {n}")
    m = R.order
    order = m**n
    _require_order(order, f"degree-{n} truncated polynomials over order {m}")
    idx = np.arange(order)
    comp = [(idx // m**i) % m for i in range(n)]
    radd, rmul = R.add_table, R.mul_table

    add = np.zeros((order, order), dtype=np.int64)
    for i in range(n):
        add += radd[comp[i][:, None], comp[i][None, :]].astype(np.int64) * (m**i)

    mul = np.zeros((order, order), dtype=np.int64)
    for d in range(n):
        acc = None
        for i in range(d + 1):
            term = rmul[comp[i][:, None], comp[d - i][None, :]]
            acc = term if acc is None else radd[acc, term]
        mul += acc.astype(np.int64) * (m**d)

    zero, one = R.zero, R.one
    var = "x" if not any("x" in lbl for lbl in R.labels) else "y"
    simple = all(lbl.isdigit() for lbl in R.labels)

    def lab(x: int) -> str:
        terms = []
        for i in range(n - 1, -1, -1):
            c = (x // m**i) % m
            if c == R.zero:
                continue
            cl = R.labels[c]
            if i == 0:
                terms.append(cl)
                continue
            power = var if i == 1 else f"{var}^{i}"
            if c == R.one:
                terms.append(power)
            elif simple:
                terms.append(cl + power)
            else:
                terms.append(f"({cl}){power}")
        return "+".join(terms) if terms else R.labels[R.zero]

    labels = tuple(lab(x) for x in range(order))
    construction = f"poly({R.construction},{n})" if R.construction else None
    return FiniteRing(order, _frozen(add), _frozen(mul), zero, one, labels, construction)


# ---------------------------------------------------------------------------
# bimodules and extensions


@dataclass(frozen=True, eq=False)
class BimoduleSpec:
    """An explicit bimodule: abelian group tables plus two action tables.

    ``left_action[r, m]`` is the module index of ``r . m`` for a ring index
    ``r``; ``right_action[m, s]`` is ``m . s``.  No implicit coercions:
    every action is a full table.  The constructors here give read-only
    ``int32`` arrays; ``check_bimodule`` also accepts nested integer
    sequences, so that a hand-written spec can be validated before use.
    """

    order: int
    add_table: np.ndarray
    left_action: np.ndarray
    right_action: np.ndarray
    zero: int
    labels: tuple[str, ...]
    description: str | None = None


def check_bimodule(left_ring: FiniteRing, M: BimoduleSpec, right_ring: FiniteRing) -> AxiomCheck:
    """Validate the abelian group and both unital, compatible actions."""
    m = M.order
    add = np.asarray(M.add_table)
    if add.shape != (m, m):
        raise ValueError(f"module addition table shape {add.shape} != ({m}, {m})")
    lact = np.asarray(M.left_action)
    ract = np.asarray(M.right_action)
    if lact.shape != (left_ring.order, m):
        raise ValueError(f"left action shape {lact.shape} != ({left_ring.order}, {m})")
    if ract.shape != (m, right_ring.order):
        raise ValueError(f"right action shape {ract.shape} != ({m}, {right_ring.order})")
    for name, t in (("module addition", add), ("left action", lact), ("right action", ract)):
        if t.size and (t.min() < 0 or t.max() >= m):
            raise ValueError(f"{name} entries must lie in [0, {m})")

    group = _check_abelian_group(add, M.zero, "module_")
    if group is not None:
        return group
    idx = np.arange(m)

    radd, rmul = left_ring.add_table, left_ring.mul_table
    sadd, smul = right_ring.add_table, right_ring.mul_table

    checks: list[tuple[str, np.ndarray, np.ndarray]] = []
    # r.(m1+m2) vs r.m1 + r.m2, axes [r, m1, m2]
    checks.append(("left_action_additive_in_module",
                   lact[:, add], add[lact[:, :, None], lact[:, None, :]]))
    # (r1+r2).m vs r1.m + r2.m, axes [r1, r2, m]
    checks.append(("left_action_additive_in_ring",
                   lact[radd], add[lact[:, None, :], lact[None, :, :]]))
    # (r1 r2).m vs r1.(r2.m), axes [r1, r2, m]
    checks.append(("left_action_associative", lact[rmul], lact[:, lact]))
    # (m1+m2).s vs m1.s + m2.s, axes [m1, m2, s]
    checks.append(("right_action_additive_in_module",
                   ract[add], add[ract[:, None, :], ract[None, :, :]]))
    # m.(s1+s2) vs m.s1 + m.s2, axes [m, s1, s2]
    checks.append(("right_action_additive_in_ring",
                   ract[:, sadd], add[ract[:, :, None], ract[:, None, :]]))
    # m.(s1 s2) vs (m.s1).s2, axes [m, s1, s2]
    checks.append(("right_action_associative", ract[:, smul], ract[ract]))
    # (r.m).s vs r.(m.s), axes [r, m, s]
    checks.append(("action_compatible", ract[lact], lact[:, ract]))

    for name, lhs, rhs in checks:
        if not np.array_equal(lhs, rhs):
            w = np.argwhere(lhs != rhs)[0]
            return AxiomCheck(False, name, tuple(int(v) for v in w))

    if not np.array_equal(lact[left_ring.one], idx):
        bad = np.nonzero(lact[left_ring.one] != idx)[0]
        return AxiomCheck(False, "left_action_unital", (int(bad[0]),))
    if not np.array_equal(ract[:, right_ring.one], idx):
        bad = np.nonzero(ract[:, right_ring.one] != idx)[0]
        return AxiomCheck(False, "right_action_unital", (int(bad[0]),))
    return AxiomCheck(True, None, None)


def regular_bimodule(R: FiniteRing) -> BimoduleSpec:
    """``R`` as a bimodule over itself, both actions ring multiplication."""
    return BimoduleSpec(R.order, R.add_table, R.mul_table, R.mul_table,
                        R.zero, R.labels, "self")


def zero_bimodule(R: FiniteRing) -> BimoduleSpec:
    """The one-element bimodule over ``R``."""
    zeros = _frozen(np.zeros((R.order, 1)))
    return BimoduleSpec(1, _frozen([[0]]), zeros, zeros.T,
                        0, (R.labels[R.zero],), "ideal(0)")


def _positions(R: FiniteRing, members: np.ndarray) -> np.ndarray:
    """Map sending each entry of the sorted index array ``members`` to its position."""
    pos = np.zeros(R.order, dtype=np.int32)
    pos[members] = np.arange(members.size)
    return pos


def ideal_bimodule(R: FiniteRing, d: int) -> BimoduleSpec:
    """The principal ideal ``dR`` of a commutative ``R`` as a bimodule.

    ``d`` is an element index; ``d = zero`` gives the zero bimodule.  The
    base must be commutative so that the two restricted actions agree.
    """
    if not 0 <= d < R.order:
        raise ValueError(f"element index {d} out of range [0, {R.order})")
    mul = R.mul_table
    if not np.array_equal(mul, mul.T):
        raise ValueError("ideal bimodules require a commutative base ring")
    members = np.unique(mul[:, d])
    pos = _positions(R, members)
    add = pos[R.add_table[np.ix_(members, members)]]
    lact = pos[mul[:, members]]
    ract = pos[mul[members, :]]
    labels = tuple(R.labels[v] for v in members.tolist())
    return BimoduleSpec(members.size, _frozen(add), _frozen(lact), _frozen(ract),
                        int(pos[R.zero]), labels, f"ideal({d})")


def trivial_extension(R: FiniteRing, M: BimoduleSpec) -> FiniteRing:
    """The ring on pairs ``(r, m)`` with ``(r1,m1)(r2,m2) = (r1 r2, r1 m2 + m1 r2)``."""
    result = check_bimodule(R, M, R)
    if not result.ok:
        raise ValueError(f"invalid bimodule: {result.axiom} fails at {result.witness}")
    nr, nm = R.order, M.order
    n = nr * nm
    _require_order(n, f"trivial extension of order {nr} by module of order {nm}")
    idx = np.arange(n)
    ra, mm = idx // nm, idx % nm
    radd, rmul = R.add_table, R.mul_table
    madd = np.asarray(M.add_table, dtype=np.int32)
    lact = np.asarray(M.left_action, dtype=np.int32)
    ract = np.asarray(M.right_action, dtype=np.int32)

    add = radd[ra[:, None], ra[None, :]].astype(np.int64) * nm + madd[mm[:, None], mm[None, :]]
    mul = rmul[ra[:, None], ra[None, :]].astype(np.int64) * nm + madd[
        lact[ra[:, None], mm[None, :]], ract[mm[:, None], ra[None, :]]
    ]
    zero = R.zero * nm + M.zero
    one = R.one * nm + M.zero
    labels = tuple(f"({R.labels[i // nm]},{M.labels[i % nm]})" for i in range(n))
    construction = (
        f"trivext({R.construction},{M.description})"
        if R.construction and M.description else None
    )
    return FiniteRing(n, _frozen(add), _frozen(mul), int(zero), int(one), labels, construction)


def formal_triangular(R: FiniteRing, S: FiniteRing, V: BimoduleSpec) -> FiniteRing:
    """The triangular ring of triples ``(r, v, s)`` with ``V`` a left-``R`` right-``S`` bimodule.

    Multiplication is ``(r1,v1,s1)(r2,v2,s2) = (r1 r2, r1 v2 + v1 s2, s1 s2)``.
    """
    result = check_bimodule(R, V, S)
    if not result.ok:
        raise ValueError(f"invalid bimodule: {result.axiom} fails at {result.witness}")
    nr, nv, ns = R.order, V.order, S.order
    n = nr * nv * ns
    _require_order(n, f"triangular ring of order {nr}*{nv}*{ns}")
    idx = np.arange(n)
    sa = idx % ns
    va = (idx // ns) % nv
    ra = idx // (ns * nv)
    radd, rmul = R.add_table, R.mul_table
    sadd, smul = S.add_table, S.mul_table
    vadd = np.asarray(V.add_table, dtype=np.int32)
    lact = np.asarray(V.left_action, dtype=np.int32)
    ract = np.asarray(V.right_action, dtype=np.int32)

    add = (
        radd[ra[:, None], ra[None, :]].astype(np.int64) * (nv * ns)
        + vadd[va[:, None], va[None, :]].astype(np.int64) * ns
        + sadd[sa[:, None], sa[None, :]]
    )
    mul = (
        rmul[ra[:, None], ra[None, :]].astype(np.int64) * (nv * ns)
        + vadd[lact[ra[:, None], va[None, :]], ract[va[:, None], sa[None, :]]].astype(np.int64) * ns
        + smul[sa[:, None], sa[None, :]]
    )
    zero = (R.zero * nv + V.zero) * ns + S.zero
    one = (R.one * nv + V.zero) * ns + S.one
    labels = tuple(
        f"[[{R.labels[i // (ns * nv)]},{V.labels[(i // ns) % nv]}],[0,{S.labels[i % ns]}]]"
        for i in range(n)
    )
    return FiniteRing(n, _frozen(add), _frozen(mul), int(zero), int(one), labels, None)


def pierce_corner(R: FiniteRing, e: int) -> FiniteRing:
    """The corner ring ``eRe`` for an idempotent ``e``, with identity ``e``."""
    if not 0 <= e < R.order:
        raise ValueError(f"element index {e} out of range [0, {R.order})")
    mul = R.mul_table
    if mul[e, e] != e:
        raise ValueError(f"element {e} is not idempotent")
    members = np.unique(mul[mul[e], e])
    pos = _positions(R, members)
    corner = np.ix_(members, members)
    labels = tuple(R.labels[v] for v in members.tolist())
    return FiniteRing(members.size, _frozen(pos[R.add_table[corner]]),
                      _frozen(pos[mul[corner]]), int(pos[R.zero]), int(pos[e]), labels, None)


def opposite(R: FiniteRing) -> FiniteRing:
    """The opposite ring: same elements, reversed multiplication.

    Its ``mul_table`` is the transposed view of ``R.mul_table`` and its
    ``add_table`` is the same array, so no table is copied.  The result is
    cached on both rings so that ``opposite(opposite(R))`` returns ``R``
    itself.
    """
    cached = R._cache.get("opposite")
    if cached is not None:
        return cached
    construction = f"opp({R.construction})" if R.construction else None
    opp = FiniteRing(R.order, R.add_table, R.mul_table.T, R.zero, R.one, R.labels, construction)
    R._cache["opposite"] = opp
    opp._cache["opposite"] = R
    return opp
