"""Executable checks for the structure theorems behind the morphic hierarchy.

Each function runs one theorem's assertions on a concrete ring and returns
a ``VerificationReport`` with status ``verified``, ``refuted``, ``vacuous``
(hypothesis failed on this ring), or ``indeterminate`` (an enumeration
budget was hit).  Refuted reports always carry a counterexample that can be
re-checked directly against the ideal engine.  Finiteness hypotheses that
are automatic here (noetherian, finite Goldie dimension, direct finiteness)
are instantiated as dropped and noted where relevant.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .classify import (
    PREDICATES,
    _bezout,
    _double_annihilator_failure,
    _exchange_failure,
    element_class,
)
from .common import VerificationReport
from .ideals import (
    LatticeOverflow,
    Side,
    all_ideals,
    annihilator,
    jacobson_radical,
    principal_ideal,
    singular_ideal,
    socle,
    subgroup_sum,
    _bool_from_mask,
    _minimal_principals,
    _resolve,
)
from .rings import (
    BimoduleSpec,
    FiniteRing,
    formal_triangular,
    make_zmod,
    matrix_ring,
    opposite,
    order_cap,
    pierce_corner,
    trivial_extension,
    truncated_poly,
    _first_violation,
    _is_commutative,
    _per_ring,
)

__all__ = [
    "RING_THEOREMS",
    "CornerCase",
    "TriangularCase",
    "TrivialExtensionCase",
    "VerificationReport",
    "search_counterexample",
    "verify_extension_heredity",
    "verify_finite_qf",
    "verify_lemma_equivalences",
    "verify_pseudo_consequences",
    "verify_quasi_equivalence",
    "verify_reduced_equivalences",
    "verify_regular_criteria",
    "verify_triangular_example_identity",
    "verify_witness_identities",
]


def _expr(R: FiniteRing) -> str:
    return R.construction or f"<order-{R.order} ring>"


# The theorem checks run on every ring, by name, in definition order.
RING_THEOREMS: dict[str, Callable[..., VerificationReport]] = {}


def _theorem(name: str) -> Callable:
    """Register a ring check returning ``(status, details)`` as a timed report maker."""
    def register(check: Callable[..., tuple[str, dict]]) -> Callable[..., VerificationReport]:
        @functools.wraps(check)
        def run(R: FiniteRing, *args, **kwargs) -> VerificationReport:
            start = time.perf_counter()
            status, details = check(R, *args, **kwargs)
            return VerificationReport(name, _expr(R), status, details, time.perf_counter() - start)
        RING_THEOREMS[name] = run
        return run
    return register


_PSEUDO_BOTH = ("left_pseudo_morphic", "right_pseudo_morphic")
# The flags that agree on a reduced ring.
_COLLAPSING = (*_PSEUDO_BOTH, "left_quasi_morphic", "right_quasi_morphic", "left_morphic",
               "right_morphic", "regular", "unit_regular", "strongly_regular")


def _refuted(check: str, **payload) -> tuple[str, dict]:
    return "refuted", {"check": check, **payload}


@_per_ring
def _fg_masks(R: FiniteRing, side: Side) -> list[int]:
    """Distinct ideals generated by at most two elements: on a Bézout side, the principal ones."""
    ring, tables = _resolve(R, side)
    masks = tables.principal_masks
    if _bezout(R, side).status:
        return masks
    return sorted({subgroup_sum(ring, m1, m2) for i, m1 in enumerate(masks) for m2 in masks[i:]})


@_theorem("annihilator_chain_equivalence")
def verify_lemma_equivalences(R: FiniteRing) -> tuple[str, dict]:
    """Equivalence of the two annihilator-chain descriptions of an element.

    For each ``a``, compares (2) "some ``c`` has ``Ra = l(c)`` and ``Rc``
    is itself an annihilator ``l(b)``" with (3) the same up to replacing
    ``Rc`` by an isomorphic cyclic ``Rd``, encoded through the generator
    criterion ``Rc ≅ Rd`` with ``l(d) = l(c)``.  Those ``d`` are the ``c``
    of (2), so the forms agree by construction: this guards the consistency
    of the class-id tables, not the lemma.  Both are formed once per id of ``Ra``.
    """
    _, tables = _resolve(R, Side.LEFT)
    ann_id, pri_id = tables.ann_id, tables.pri_id
    direct = np.zeros(len(tables.masks), dtype=bool)  # per l(c): some such c has Rc an annihilator
    direct[ann_id[tables.ann_least[pri_id] >= 0]] = True
    isomorphic = np.zeros_like(direct)                # per l(c): some d with l(d) = l(c) does
    isomorphic[ann_id[direct[ann_id]]] = True
    pred2, pred3 = direct[pri_id], isomorphic[pri_id]
    differ = np.flatnonzero(pred2 != pred3)
    if differ.size:
        a = int(differ[0])
        return "refuted", {"element": a, "direct_form": bool(pred2[a]),
                           "isomorphism_form": bool(pred3[a])}
    return "verified", {"elements": R.order, "satisfying_both": int(pred2.sum())}


def _witness_failure(kind: str, masks: list[int], mul: np.ndarray, own: np.ndarray,
                     least: np.ndarray, other: np.ndarray, holds: Callable[..., np.ndarray],
                     join: Callable[[int, int], int]) -> int | dict:
    """One kind of witness identity over all pairs ``(a1, a2)``, in row-major order.

    With ``b_i = least[own[a_i]]`` and ``c = least[own[a2 b1]]``, products in
    ``mul``, checks ``holds(x, y, z)``, that ``join(A1, A2) = S`` for the class
    id arrays ``x = own[a1]``, ``y = own[a2]`` and ``z = other[b1 c]``, ``-1``
    for a pair with no ``c``, which is skipped.  A row depends on ``a1`` only
    through ``own[a1]``: one row per class, led by its least element, is checked.
    Returns the number of pairs checked if all hold, else the first failure's details.
    """
    b = least[own]
    valid = np.flatnonzero(b >= 0)
    a1 = valid[np.sort(np.unique(own[valid], return_index=True)[1])]
    weight = np.bincount(own[valid], minlength=len(masks))[own[a1]]
    checked = []  # per block of rows

    def violated(rows: slice) -> np.ndarray:
        b1 = b[a1[rows], None]
        c = least[own[mul[valid, b1]]]
        checked.append(int(((c >= 0).sum(axis=1) * weight[rows]).sum()))
        z = np.where(c >= 0, other[mul[b1, c]], -1)
        return (z >= 0) & ~holds(own[a1[rows], None], own[valid], z)

    first = _first_violation(len(a1), len(valid), violated)
    if first is None:
        return sum(checked)
    x, y = int(a1[first[0]]), int(valid[first[1]])
    c = int(least[own[mul[y, b[x]]]])
    return {"kind": kind, "pair": [x, y], "witnesses": [int(b[x]), int(b[y]), c],
            "lhs": join(masks[own[x]], masks[own[y]]), "rhs": masks[other[mul[b[x], c]]]}


@_theorem("sum_intersection_witnesses")
def verify_witness_identities(R: FiniteRing) -> tuple[str, dict]:
    """Constructive sum and intersection witnesses.

    For each pair ``(a1, a2)``: from ``Ra_i = l(b_i)`` and ``R(a2 b1) =
    l(c)`` it follows that ``Ra1 + Ra2 = l(b1 c)``; dually from ``l(a_i) =
    R b_i`` and ``l(b1 a2) = Rc`` that ``l(a1) ∩ l(a2) = R(c b1)``.  Pairs
    lacking any witness are skipped and counted.  The first failing pair in
    row-major order is reported, its sum before its intersection.  With
    ``meet[x, y] = |A ∩ B|`` over the class masks, ``S = A ∩ B`` iff
    ``|A ∩ S| = |B ∩ S| = |A ∩ B| = |S|``; subgroups ``S ⊇ A ∪ B`` with
    ``|S|·|A ∩ B| = |A|·|B|`` are ``A + B``.  On tables that are not a ring,
    a pair touching a mask that is not a subgroup is decided by the formed sum.
    """
    ring, tables = _resolve(R, Side.LEFT)
    masks = tables.masks
    bits = np.array([_bool_from_mask(m, ring.order) for m in masks], dtype=np.float32)
    meet = (bits @ bits.T).astype(np.int32)  # exact: each partial sum is an integer < 2**24
    size = meet.diagonal().astype(np.int64)  # |S|·|A ∩ B| overflows int32
    zero = 1 << ring.zero
    group = np.array([subgroup_sum(ring, zero, m & ~zero) == m for m in masks])

    def sum_holds(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        holds = ((meet[z, x] == size[x]) & (meet[z, y] == size[y])
                 & (size[z] * meet[x, y] == size[x] * size[y]))
        odd = (z >= 0) & ~(group[x] & group[y] & group[z])  # only on tables that are not a ring
        triples = zip(*([masks[i] for i in v[odd].tolist()] for v in np.broadcast_arrays(x, y, z)))
        holds[odd] = [subgroup_sum(ring, m1, m2) == s for m1, m2, s in triples]
        return holds

    sums = _witness_failure(
        "sum", masks, R.mul_table, tables.pri_id, tables.ann_least, tables.ann_id,
        sum_holds, functools.partial(subgroup_sum, ring))
    meets = _witness_failure(
        "intersection", masks, R.mul_table.T, tables.ann_id, tables.pri_least, tables.pri_id,
        lambda x, y, z: (meet[x, z] == size[z]) & (meet[y, z] == size[z]) & (meet[x, y] == size[z]),
        int.__and__)
    failures = [f for f in (sums, meets) if isinstance(f, dict)]
    if failures:
        return "refuted", min(failures, key=lambda f: f["pair"])
    pairs = R.order * R.order
    return "verified", {"checked_sum": sums, "skipped_sum": pairs - sums,
                        "checked_intersection": meets, "skipped_intersection": pairs - meets}


@_theorem("pseudo_morphic_consequences")
def verify_pseudo_consequences(R: FiniteRing) -> tuple[str, dict]:
    """Consequences of left pseudo-morphicity (vacuous otherwise).

    Asserts: double annihilator ``lr(I) = I`` on principal and 2-generated
    left ideals; ``lr(a) = Ra`` for every element; the Jacobson radical
    equals the right singular ideal; right socle contained in left socle;
    and minimality transfer from ``aR`` to ``Ra``.
    """
    if not PREDICATES["left_pseudo_morphic"](R).status:
        return "vacuous", {"note": "ring is not left pseudo-morphic"}
    p_injective = PREDICATES["p_injective_right"](R)
    if not p_injective.status:
        return _refuted("lr(a)=Ra", element=p_injective.counterexample)
    fg = _fg_masks(R, Side.LEFT)
    double = _double_annihilator_failure(R, Side.LEFT, fg)
    if double is not None:
        return _refuted("lr(I)=I", ideal=double)
    if jacobson_radical(R) != singular_ideal(R, Side.RIGHT):
        return _refuted("radical=right_singular", radical=jacobson_radical(R),
                        right_singular=singular_ideal(R, Side.RIGHT))
    s_r, s_l = socle(R, Side.RIGHT), socle(R, Side.LEFT)
    if s_r & ~s_l:
        return _refuted("right_socle_in_left_socle", right=s_r, left=s_l)
    left, right = (_resolve(R, side)[1] for side in Side)
    simple_left = _minimal_principals(left)[left.pri_id]      # per a: Ra is minimal
    simple_right = _minimal_principals(right)[right.pri_id]   # per a: aR is minimal
    lost = np.flatnonzero(simple_right & ~simple_left)
    if lost.size:
        return _refuted("simple_aR_implies_simple_Ra", element=int(lost[0]))
    return "verified", {"fg_ideals": len(fg),
                        "minimal_right_principals": int(simple_right.sum())}


@_theorem("pseudo_quasi_equivalence")
def verify_quasi_equivalence(R: FiniteRing) -> tuple[str, dict]:
    """Pseudo-morphic (both sides) is equivalent to quasi-morphic (both sides).

    Additionally: a commutative pseudo-morphic ring is morphic, and a
    quasi-morphic ring satisfies the annihilator exchange laws
    ``r(I1 ∩ I2) = r(I1) + r(I2)`` and ``l(T1 ∩ T2) = l(T1) + l(T2)`` over
    finitely generated (≤ 2 generator) ideals.
    """
    pseudo_l, pseudo_r, quasi_l, quasi_r, morphic_l = (PREDICATES[name](R) for name in (
        *_PSEUDO_BOTH, "left_quasi_morphic", "right_quasi_morphic", "left_morphic"))
    pseudo_both = bool(pseudo_l.status and pseudo_r.status)
    quasi_both = bool(quasi_l.status and quasi_r.status)
    details: dict = {"pseudo_both": pseudo_both, "quasi_both": quasi_both}
    if pseudo_both != quasi_both:
        details["counterexample"] = {"left": quasi_l.counterexample, "right": quasi_r.counterexample}
        return "refuted", details
    if _is_commutative(R) and pseudo_both:
        if not morphic_l.status:
            details["counterexample"] = morphic_l.counterexample
            details["check"] = "commutative_pseudo_implies_morphic"
            return "refuted", details
        details["commutative_morphic"] = True
    if quasi_both:
        for side in Side:
            masks = _fg_masks(R, side)
            try:
                failure = _exchange_failure(R, side, masks)
            except LatticeOverflow as exc:
                details["note"] = str(exc)
                return "indeterminate", details
            if failure:
                m1, m2, lhs, rhs = failure
                details["check"] = f"exchange_law_{side.value}"
                details["counterexample"] = {"ideals": [m1, m2], "lhs": lhs, "rhs": rhs}
                return "refuted", details
            details[f"exchange_pairs_{side.value}"] = len(masks) * (len(masks) + 1) // 2
    return "verified", details


@_theorem("finite_dual_ring_battery")
def verify_finite_qf(R: FiniteRing) -> tuple[str, dict]:
    """Dual-ring battery for rings pseudo-morphic on both sides.

    A finite ring is artinian and noetherian, so both-sided pseudo-morphic
    rings must be dual rings with all one-sided ideals principal and
    single-element annihilators, and strongly clean; semiprime ones have
    zero radical.
    """
    if not all(PREDICATES[name](R).status for name in _PSEUDO_BOTH):
        return "vacuous", {"note": "ring is not pseudo-morphic on both sides"}
    dual = PREDICATES["dual_ring"](R)
    if dual.status is None:
        return "indeterminate", {"note": dual.note}
    if not dual.status:
        return _refuted("dual_ring", counterexample=dual.counterexample)
    for check, name in (("all_ideals_principal", "bezout_left"),
                        ("all_ideals_are_annihilators", "lear_left"),
                        ("all_ideals_principal", "bezout_right"),
                        ("all_ideals_are_annihilators", "lear_right")):
        flag = PREDICATES[name](R)
        if flag.status is not True:
            return _refuted(check, side=name.rpartition("_")[2], counterexample=flag.counterexample)
    clean = PREDICATES["strongly_clean"](R)
    if clean.status is not True:
        return _refuted("strongly_clean", counterexample=clean.counterexample)
    details = {f"{side.value}_ideals": len(all_ideals(R, side)) for side in Side}
    if PREDICATES["semiprime"](R).status:
        if jacobson_radical(R) != 1 << R.zero:
            return _refuted("semiprime_radical_zero", radical=jacobson_radical(R))
        details["semiprime_radical_zero"] = True
    return "verified", details


@_theorem("regular_criteria")
def verify_regular_criteria(R: FiniteRing) -> tuple[str, dict]:
    """Regularity criteria with the finite Goldie hypothesis dropped.

    Asserts the three-way equivalence [semiprime and pseudo-morphic both
    sides] ⟺ [regular] ⟺ [zero radical], plus the mixed criteria
    [left p.p. and right pseudo-morphic] ⟹ regular and its mirror.
    """
    semiprime = bool(PREDICATES["semiprime"](R).status)
    pseudo_l, pseudo_r = (PREDICATES[name](R).status for name in _PSEUDO_BOTH)
    regular = bool(PREDICATES["regular"](R).status)
    rad_zero = jacobson_radical(R) == 1 << R.zero
    a = semiprime and pseudo_l and pseudo_r
    details = {"semiprime_pseudo": a, "regular": regular, "radical_zero": rad_zero}
    if not (a == regular == rad_zero):
        return "refuted", details

    for pp, side_pseudo, label in (("pp_left", pseudo_r, "left_pp_right_pseudo"),
                                   ("pp_right", pseudo_l, "right_pp_left_pseudo")):
        antecedent = PREDICATES[pp](R).status and side_pseudo
        details[label] = antecedent
        if antecedent and not regular:
            details["check"] = label
            return "refuted", details
    return "verified", details


@_theorem("reduced_ring_collapse")
def verify_reduced_equivalences(R: FiniteRing, nmax: int = 2) -> tuple[str, dict]:
    """Collapse of the hierarchy over reduced rings, with polynomial transfer.

    For reduced rings the nine flags (pseudo, quasi, morphic on both sides;
    regular; unit regular; strongly regular) must agree.  When strongly
    regular, every truncated polynomial ring up to degree ``nmax`` (order
    cap permitting) must be morphic.  For arbitrary rings the transfer
    direction is checked: a left pseudo-morphic truncated extension forces
    the base to be left pseudo-morphic.
    """
    if nmax < 2:
        raise ValueError(f"nmax must be at least 2, got {nmax}")
    reduced = bool(PREDICATES["reduced"](R).status)
    details: dict = {"reduced": reduced}
    flags = {name: bool(PREDICATES[name](R).status) for name in _COLLAPSING}
    if reduced:
        if len(set(flags.values())) != 1:
            details["flags"] = flags
            return "refuted", details
        details["nine_way"] = flags["strongly_regular"]
    checked_n, capped_n = [], []
    for n in range(2, nmax + 1):
        if R.order**n > order_cap():  # the constructors' cap is never lower
            capped_n.append(n)
            continue
        P = truncated_poly(R, n)
        if reduced and flags["strongly_regular"]:
            left, right = (PREDICATES[name](P) for name in ("left_morphic", "right_morphic"))
            if not (left.status and right.status):
                details.update(check="strongly_regular_truncation_morphic", degree=n,
                               counterexample=left.counterexample)
                return "refuted", details
        if PREDICATES["left_pseudo_morphic"](P).status and not flags["left_pseudo_morphic"]:
            details.update(check="truncation_transfer", degree=n)
            return "refuted", details
        checked_n.append(n)
    details["checked_degrees"] = checked_n
    if capped_n:
        details["capped_degrees"] = capped_n
    return "verified", details


@dataclass(frozen=True)
class TriangularCase:
    """A formal triangular ring ``[[R, V], [0, S]]``."""

    corner_left: FiniteRing
    corner_right: FiniteRing
    bimodule: BimoduleSpec

    def claims(self) -> tuple[str, FiniteRing, list]:
        big = formal_triangular(self.corner_left, self.corner_right, self.bimodule)
        return _expr(big), big, [
            ("generalized_to_corners", "left_generalized_morphic",
             (self.corner_left, self.corner_right)),
            ("left_pseudo_to_right_corner", "left_pseudo_morphic", (self.corner_right,)),
            ("right_pseudo_to_left_corner", "right_pseudo_morphic", (self.corner_left,)),
        ]


@dataclass(frozen=True)
class TrivialExtensionCase:
    """A trivial extension ``R ⋉ M``."""

    base: FiniteRing
    bimodule: BimoduleSpec
    extension: FiniteRing | None = None  # the ring R ⋉ M, when already built

    def claims(self) -> tuple[str, FiniteRing, list]:
        big = self.extension or trivial_extension(self.base, self.bimodule)
        return _expr(big), big, [("generalized_to_base", "left_generalized_morphic", (self.base,))]


@dataclass(frozen=True)
class CornerCase:
    """A ring with an idempotent ``e`` satisfying ``(1-e)Re = 0``."""

    ring: FiniteRing
    idempotent: int

    def claims(self) -> tuple[str, FiniteRing, list | str]:
        """The claims, or the note saying why the corollary does not apply."""
        R, e = self.ring, self.idempotent
        eRe = pierce_corner(R, e)  # raises unless e is an idempotent element of R
        f = R.sub(R.one, e)
        expression = f"{_expr(R)} corner e={e}"
        if any(R.mul(R.mul(f, x), e) != R.zero for x in R.elements):
            return expression, R, "(1-e)Re != 0; the corner corollary does not apply"
        fRf = pierce_corner(R, f)
        return expression, R, [
            ("generalized_to_both_corners", "left_generalized_morphic", (eRe, fRf)),
            ("left_pseudo_to_complement_corner", "left_pseudo_morphic", (fRf,)),
            ("right_pseudo_to_corner", "right_pseudo_morphic", (eRe,)),
        ]


def verify_extension_heredity(
    case: TriangularCase | TrivialExtensionCase | CornerCase,
) -> VerificationReport:
    """Heredity of generalized and pseudo-morphicity under constructions.

    Triangular: the big ring left generalized morphic forces both corners
    to be; left pseudo passes to the right corner and right pseudo to the
    left corner.  Trivial extensions pass left generalized morphic to the
    base.  Corners with ``(1-e)Re = 0``: left generalized passes to both
    Peirce corners, left pseudo to ``(1-e)R(1-e)``, right pseudo to ``eRe``.
    Each case lists its claims as rows ``(name, flag, rings)``, the flag by
    record name: every ring has the flag if the big ring has it, and the
    claim is vacuous if the big ring has not.
    """
    start = time.perf_counter()
    expression, big, claims = case.claims()
    if isinstance(claims, str):
        return VerificationReport("extension_heredity", expression, "vacuous",
                                  {"note": claims}, time.perf_counter() - start)
    checked: dict[str, bool] = {}
    vacuous: list[str] = []
    for name, flag, rings in claims:
        if PREDICATES[flag](big).status:
            checked[name] = all(PREDICATES[flag](ring).status for ring in rings)
        else:
            vacuous.append(name)
    details = {"checked": sorted(checked), "vacuous": sorted(vacuous)}
    failures = sorted(name for name, ok in checked.items() if not ok)
    if failures:
        details["failures"] = failures
    status = "refuted" if failures else "verified" if checked else "vacuous"
    return VerificationReport("extension_heredity", expression, status, details,
                              time.perf_counter() - start)


def _raw_left_flags(R: FiniteRing) -> tuple[bool, bool]:
    """(pseudo, generalized) by raw set scans, bypassing all cached tables."""
    n = R.order
    mul = R.mul_table.tolist()
    pri = [frozenset(mul[x][a] for x in range(n)) for a in range(n)]
    ann = [
        frozenset(x for x in range(n) if mul[x][a] == R.zero)
        for a in range(n)
    ]
    ann_set, pri_set = set(ann), set(pri)
    pseudo = all(p in ann_set for p in pri)
    generalized = all(a in pri_set for a in ann)
    return pseudo, generalized


def _search_hit(R: FiniteRing) -> dict | None:
    """Hit record if ``R`` looks left pseudo- but not quasi-morphic, else None.

    Any hit is re-validated with raw scans independent of the classifier's
    caches before being reported.
    """
    quasi = PREDICATES["left_quasi_morphic"](R)
    if not PREDICATES["left_pseudo_morphic"](R).status or quasi.status:
        return None
    raw_pseudo, raw_generalized = _raw_left_flags(R)
    return {
        "expression": _expr(R),
        "quasi_counterexample": quasi.counterexample,
        "raw_revalidation": {
            "left_pseudo": raw_pseudo,
            "left_generalized": raw_generalized,
        },
        "confirmed": raw_pseudo and not raw_generalized,
    }


def _search_report(expressions: list[str], hits: Iterable[dict | None],
                   start: float) -> VerificationReport:
    """The search report over ``expressions``, given each ring's hit or None.

    ``hits`` is consumed before ``expressions`` is read, so it may fill
    that list as it goes.
    """
    hits = [hit for hit in hits if hit]
    fingerprint = hashlib.sha256("\n".join(sorted(expressions)).encode()).hexdigest()
    status = "refuted" if any(h["confirmed"] for h in hits) else "verified"
    details = {"rings": len(expressions), "fingerprint": fingerprint, "hits": hits}
    return VerificationReport("pseudo_not_quasi_search",
                              f"corpus[{len(expressions)}]", status, details,
                              time.perf_counter() - start)


def search_counterexample(rings: Iterable[FiniteRing]) -> VerificationReport:
    """Search for a left pseudo-morphic ring that is not left quasi-morphic.

    This is the open-question falsifier.  ``rings`` is consumed in one
    pass, so a generator keeps a single ring alive at a time.  A clean run
    reports the corpus size and a fingerprint of the sorted expression list.
    """
    start = time.perf_counter()
    expressions: list[str] = []

    def hit(R: FiniteRing) -> dict | None:
        expressions.append(_expr(R))
        return _search_hit(R)

    return _search_report(expressions, map(hit, rings), start)


def verify_triangular_example_identity() -> VerificationReport:
    """Expected divergence of one displayed identity in the triangular example.

    The headline claims about the lower triangular ring over Z_2 hold
    exactly: ``l(E21)`` is the 4-element principal ideal generated by
    ``E11 + E21``, and ``R·E21`` is nobody's left annihilator, so the ring
    is left generalized morphic but not left pseudo-morphic.  The displayed
    intersection identity ``R·E21 = l(E11+E21) ∩ l(E22)``, however, does
    not reproduce under either multiplication convention (row or its
    transpose); this check passes exactly when the headline claims hold and
    the displayed identity fails both ways.
    """
    start = time.perf_counter()
    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    E22, E21, E11 = 1, 2, 4
    l_e21 = annihilator(T, Side.LEFT, [E21])
    headline = (
        l_e21 == principal_ideal(T, Side.LEFT, E11 + E21)
        and l_e21.bit_count() == 4
        and not element_class(T, Side.LEFT, E21).pseudo
        and PREDICATES["left_generalized_morphic"](T).status
        and not PREDICATES["left_pseudo_morphic"](T).status
    )
    diverges = {}
    for tag, ring in (("row", T), ("transpose", opposite(T))):
        displayed = annihilator(ring, Side.LEFT, [E11 + E21]) & annihilator(ring, Side.LEFT, [E22])
        diverges[tag] = displayed != principal_ideal(ring, Side.LEFT, E21)
    ok = headline and diverges["row"] and diverges["transpose"]
    details = {"headline_claims": headline, "identity_diverges": diverges}
    return VerificationReport(
        "triangular_example_identity", "tri(z2,2)",
        "verified" if ok else "refuted", details,
        time.perf_counter() - start,
    )
