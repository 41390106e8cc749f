"""Executable checks for the structure theorems behind the morphic hierarchy.

Each function runs one theorem's assertions on a concrete ring and returns
a ``VerificationReport`` with status ``verified``, ``refuted``, ``vacuous``
(hypothesis failed on this ring), or ``indeterminate`` (an enumeration
budget was hit).  Refuted reports always carry a counterexample that can be
re-checked directly against the ideal engine.  Finiteness hypotheses that
are automatic here (noetherian, finite Goldie dimension, direct finiteness)
are instantiated as dropped and noted where relevant.  The corpus search
for a pseudo- but not quasi-morphic ring lives in ``search``;
``search_counterexample`` is re-exported here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classify import (
    PREDICATES,
    _double_annihilator_failure,
    _exchange_failure,
    _fg_ideals,
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
    _gather,
    _is_commutative,
    _row_blocks,
)
from .search import _expr, search_counterexample

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


# The theorem checks run on every ring, by name, in definition order.
RING_THEOREMS: dict[str, Callable[..., VerificationReport]] = {}


def _theorem(name: str) -> Callable:
    """Register a ring check returning ``(status, details)`` as a report maker."""
    def register(check: Callable[..., tuple[str, dict]]) -> Callable[..., VerificationReport]:
        @functools.wraps(check)
        def run(R: FiniteRing, *args, **kwargs) -> VerificationReport:
            return VerificationReport(name, _expr(R), *check(R, *args, **kwargs))
        RING_THEOREMS[name] = run
        return run
    return register


_PSEUDO_BOTH = ("left_pseudo_morphic", "right_pseudo_morphic")
# The flags that agree on a reduced ring.
_COLLAPSING = (*_PSEUDO_BOTH, "left_quasi_morphic", "right_quasi_morphic", "left_morphic",
               "right_morphic", "regular", "unit_regular", "strongly_regular")


def _refuted(check: str, **payload) -> tuple[str, dict]:
    return "refuted", {"check": check, **payload}


@_theorem("annihilator_chain_equivalence")
def verify_lemma_equivalences(R: FiniteRing) -> tuple[str, dict]:
    """Equivalence of the two annihilator-chain descriptions of an element.

    For each ``a``: (2) some ``c`` has ``Ra = l(c)`` and ``Rc`` an annihilator
    ``l(b)``; (3) the same with ``Rc`` replaced by an isomorphic cyclic ``Rd``,
    through the generator criterion ``l(d) = l(c)``.  Those ``d`` are the ``c``
    of (2), so (3) holds exactly where (2) does on any class tables: the record
    counts the elements satisfying both, formed once per id of ``Ra``, and
    cannot be refuted.
    """
    _, tables = _resolve(R, Side.LEFT)
    direct = np.zeros(len(tables.masks), dtype=bool)  # per l(c): some such c has Rc an annihilator
    direct[tables.ann_id[tables.ann_least[tables.pri_id] >= 0]] = True
    return "verified", {"elements": R.order, "satisfying_both": int(direct[tables.pri_id].sum())}


def _witness_count(mul: np.ndarray, own: np.ndarray, least: np.ndarray) -> int:
    """The pairs ``(a1, a2)`` whose three witnesses exist.

    With ``b_i = least[own[a_i]]`` and ``c = least[own[a2 b1]]``, products in
    ``mul``, counts the pairs with ``b1``, ``b2`` and ``c`` all ``>= 0``.  A row
    depends on ``a1`` only through ``own[a1]``: one row per class is read, a
    block of rows at a time, and weighted by the number of ``a1`` in the class.
    """
    b = least[own]
    valid = np.flatnonzero(b >= 0)
    _, first, weight = np.unique(own[valid], return_index=True, return_counts=True)
    b1 = b[valid[first]]
    count = 0
    for rows in _row_blocks(len(b1), len(valid)):
        c = least[own[_gather(mul, valid, b1[rows, None])]]
        count += int(((c >= 0).sum(axis=1) * weight[rows]).sum())
    return count


@_theorem("sum_intersection_witnesses")
def verify_witness_identities(R: FiniteRing) -> tuple[str, dict]:
    """Constructive sum and intersection witnesses.

    For each pair ``(a1, a2)``: from ``Ra_i = l(b_i)`` and ``R(a2 b1) =
    l(c)`` it follows that ``Ra1 + Ra2 = l(b1 c)``; dually from ``l(a_i) =
    R b_i`` and ``l(b1 a2) = Rc`` that ``l(a1) ∩ l(a2) = R(c b1)``.
    Both identities hold in every ring.  Sum: ``a1 b1 = 0`` and ``a2 b1 c =
    0`` give ``⊇``; if ``x b1 c = 0``, then ``x b1 = r a2 b1`` for some ``r``,
    so ``x - r a2 ∈ l(b1) = Ra1``.  Intersection: ``b1 a1 = 0`` and ``c b1 a2
    = 0`` give ``⊇``; ``x = r b1`` with ``r b1 a2 = 0`` puts ``r`` in ``Rc``.
    So, like ``annihilator_chain_equivalence``, this check cannot be refuted:
    the record counts, per identity, the pairs whose three witnesses exist
    and the pairs skipped for lacking one.
    """
    _, tables = _resolve(R, Side.LEFT)
    sums = _witness_count(R.mul_table, tables.pri_id, tables.ann_least)
    meets = _witness_count(R.mul_table.T, tables.ann_id, tables.pri_least)
    pairs = R.order * R.order
    return "verified", {"checked_sum": sums, "skipped_sum": pairs - sums,
                        "checked_intersection": meets, "skipped_intersection": pairs - meets}


@_theorem("pseudo_morphic_consequences")
def verify_pseudo_consequences(R: FiniteRing) -> tuple[str, dict]:
    """Consequences of left pseudo-morphicity (vacuous otherwise).

    Asserts: double annihilator ``lr(I) = I`` on every left ideal, each
    finitely generated in a finite ring; ``lr(a) = Ra`` for every element;
    the Jacobson radical equals the right singular ideal; right socle
    contained in left socle; and minimality transfer from ``aR`` to ``Ra``.
    """
    if not PREDICATES["left_pseudo_morphic"](R).status:
        return "vacuous", {"note": "ring is not left pseudo-morphic"}
    p_injective = PREDICATES["p_injective_right"](R)
    if not p_injective.status:
        return _refuted("lr(a)=Ra", element=p_injective.counterexample)
    try:
        fg = _fg_ideals(R, Side.LEFT)
    except LatticeOverflow as exc:
        return "indeterminate", {"note": str(exc)}
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
    all one-sided ideals, each finitely generated in a finite ring.
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
        for side in (Side.LEFT,) if _is_commutative(R) else Side:  # R = R^op: one pass
            try:
                masks = _fg_ideals(R, side)
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
        details.setdefault("exchange_pairs_right", details["exchange_pairs_left"])
    return "verified", details


@_theorem("finite_dual_ring_battery")
def verify_finite_qf(R: FiniteRing) -> tuple[str, dict]:
    """Dual-ring battery for rings pseudo-morphic on both sides.

    A finite ring is artinian and noetherian, so both-sided pseudo-morphic
    rings must be dual rings with all one-sided ideals principal and
    single-element annihilators, and strongly clean; semiprime ones have
    zero radical.  The ``strongly_clean`` conjunct holds on every finite
    ring (see ``classify._strongly_clean``), so it is not checked.
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
    expression, big, claims = case.claims()
    if isinstance(claims, str):
        return VerificationReport("extension_heredity", expression, "vacuous", {"note": claims})
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
    return VerificationReport("extension_heredity", expression, status, details)


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
    return VerificationReport("triangular_example_identity", "tri(z2,2)",
                              "verified" if ok else "refuted", details)
