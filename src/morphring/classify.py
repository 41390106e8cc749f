"""Element and ring classification along the morphic hierarchy.

An element ``a`` is, on the left: pseudo-morphic when ``Ra = l(b)`` for
some ``b``; generalized morphic when ``l(a)`` is principal; quasi-morphic
when both hold (witnesses independent); morphic when a single ``b``
satisfies ``Ra = l(b)`` and ``l(a) = Rb``.  Ring-level flags quantify over
all elements.  Right-side versions are the left-side versions on the
opposite ring.  All witnesses are least-index, so profiles are canonical.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .ideals import (
    LatticeOverflow,
    Side,
    all_ideals,
    annihilator,
    element_census,
    lattice_cap,
    mask_members,
    subgroup_sum,
    _bool_from_mask,
    _resolve,
)
from .rings import (FiniteRing, OrderCapExceeded, _check_element, _columns, _first_violation,
                    _gather, _is_commutative, _per_ring, _row_blocks, order_cap)

__all__ = [
    "PREDICATES",
    "ClassProfile",
    "CommutationProfile",
    "ElementClass",
    "Flag",
    "MorphicProfile",
    "RegularityProfile",
    "SideHierarchy",
    "StructuralProfile",
    "classify_ring",
    "commutation_profile",
    "element_class",
    "regularity_profile",
    "ring_morphic_profile",
    "structural_profile",
]

_PAIR_BUDGET = 4_000_000


@dataclass(frozen=True)
class Flag:
    """A ternary predicate outcome with optional witness or counterexample.

    ``status`` is ``True``, ``False``, or ``None`` for indeterminate;
    indeterminate arises only from enumeration limits (ideal-lattice or
    pair budgets), never from guessing.
    """

    status: bool | None
    witness: object = None
    counterexample: object = None
    note: str | None = None

    @property
    def text(self) -> str:
        if self.status is None:
            return "indeterminate"
        return "true" if self.status else "false"


@dataclass(frozen=True)
class ElementClass:
    """Morphic-hierarchy membership of one element on one side."""

    element: int
    side: Side
    pseudo: bool
    pseudo_witness: int | None
    generalized: bool
    generalized_witness: int | None
    quasi: bool
    quasi_witnesses: tuple[int, int] | None
    morphic: bool
    morphic_witness: int | None


@dataclass(frozen=True)
class SideHierarchy:
    """Ring-level hierarchy flags for one side."""

    side: Side
    pseudo: Flag
    generalized: Flag
    quasi: Flag
    morphic: Flag


@dataclass(frozen=True)
class MorphicProfile:
    left: SideHierarchy
    right: SideHierarchy


@dataclass(frozen=True)
class RegularityProfile:
    regular: Flag
    unit_regular: Flag
    strongly_regular: Flag


@dataclass(frozen=True)
class CommutationProfile:
    reduced: Flag
    reversible: Flag
    symmetric: Flag
    semiprime: Flag
    directly_finite: Flag


@dataclass(frozen=True)
class StructuralProfile:
    bezout_left: Flag
    bezout_right: Flag
    p_injective_left: Flag
    p_injective_right: Flag
    dual_ring: Flag
    qf_finite: Flag
    lear_left: Flag
    lear_right: Flag
    pp_left: Flag
    pp_right: Flag
    strongly_clean: Flag
    ikeda_nakayama_left: Flag
    ikeda_nakayama_right: Flag


@dataclass(frozen=True)
class ClassProfile:
    """Full classification of a ring."""

    expression: str | None
    order: int
    morphic: MorphicProfile
    regularity: RegularityProfile
    commutation: CommutationProfile
    structural: StructuralProfile

    @property
    def flags(self) -> dict[str, Flag]:
        """Every flag by record name, in record order: the keys of ``PREDICATES``."""
        flags = {name: getattr(hierarchy, field)
                 for hierarchy in (self.morphic.left, self.morphic.right)
                 for field, name in _HIERARCHY_NAMES[hierarchy.side].items()}
        for group in (self.regularity, self.commutation, self.structural):
            flags.update(vars(group))
        return flags


def _all_true(ok: np.ndarray) -> Flag:
    """True when every entry of ``ok`` holds; else the first failing index."""
    if ok.all():
        return Flag(True)
    return Flag(False, counterexample=int(np.argmin(ok)))


def _witness_vectors(R: FiniteRing, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per element ``a``: the least ``b`` with ``Ra = l(b)``, with ``l(a) = Rb``, and with both.

    ``-1`` means none.  The morphic ``b`` has class pair ``(l(b), Rb) = (Ra, l(a))``:
    one sort gives the least ``b`` per class pair, and a binary search looks it up.
    """
    _, tables = _resolve(R, side)
    count = len(tables.masks)
    ann, pri = tables.ann_id.astype(np.int64), tables.pri_id.astype(np.int64)
    pairs, least = np.unique(ann * count + pri, return_index=True)
    wanted = pri * count + ann
    at = np.minimum(np.searchsorted(pairs, wanted), len(pairs) - 1)
    morphic = np.where(pairs[at] == wanted, least[at], -1)
    return tables.ann_least[tables.pri_id], tables.pri_least[tables.ann_id], morphic


def element_class(R: FiniteRing, side: Side, a: int) -> ElementClass:
    """Classify one element; witnesses are the least satisfying indices."""
    _check_element(R, a)
    pseudo_witness, generalized_witness, morphic_witness = (
        int(w[a]) if w[a] >= 0 else None for w in _witness_vectors(R, side))
    pseudo = pseudo_witness is not None
    generalized = generalized_witness is not None
    quasi = pseudo and generalized
    return ElementClass(
        element=a,
        side=side,
        pseudo=pseudo,
        pseudo_witness=pseudo_witness,
        generalized=generalized,
        generalized_witness=generalized_witness,
        quasi=quasi,
        quasi_witnesses=(pseudo_witness, generalized_witness) if quasi else None,
        morphic=morphic_witness is not None,
        morphic_witness=morphic_witness,
    )


@_per_ring
def _side_hierarchy(R: FiniteRing, side: Side) -> SideHierarchy:
    """Each flag is its element predicate checked over the whole ring."""
    pseudo, generalized, morphic = (w >= 0 for w in _witness_vectors(R, side))
    return SideHierarchy(side, *map(_all_true, (pseudo, generalized, pseudo & generalized, morphic)))


def ring_morphic_profile(R: FiniteRing) -> MorphicProfile:
    """Hierarchy flags for both sides; first failing element as counterexample."""
    return MorphicProfile(*(_side_hierarchy(R, side) for side in Side))


@_per_ring
def regularity_profile(R: FiniteRing) -> RegularityProfile:
    """Von Neumann regularity and its unit and strong refinements, read off the class tables.

    ``axa = a`` iff ``Ra = Re`` for an idempotent ``e = xa``; ``aua = a`` for a unit ``u``
    iff ``a = eu`` for an idempotent ``e = au``; and ``a ∈ a²R`` iff ``a²R = aR``.
    """
    mul = R.mul_table
    census = element_census(R)
    idempotents, units = (np.array(mask_members(m)) for m in (census.idempotents, census.units))
    unit_regular = np.zeros(R.order, dtype=bool)
    for rows in _row_blocks(len(idempotents), len(units)):
        unit_regular[_gather(mul, idempotents[rows, None], units)] = True
    left, right = (_resolve(R, side)[1] for side in Side)
    regular = _idempotent_classes(R, Side.LEFT)[left.pri_id]
    strongly_regular = right.pri_id == right.pri_id[mul.diagonal()]
    return RegularityProfile(*map(_all_true, (regular, unit_regular, strongly_regular)))


@_per_ring
def commutation_profile(R: FiniteRing) -> CommutationProfile:
    """Reduced, reversible, symmetric, semiprime, and directly finite flags.

    A finite ring is directly finite, so that flag needs no scan: if ``ab = 1``, then
    ``x ↦ bx`` is injective, hence onto, so ``bc = 1`` for some ``c``, ``a = abc = c``.
    """
    n = R.order
    zero, one = R.zero, R.one
    mul = R.mul_table

    reduced = _all_true(~_bool_from_mask(element_census(R).nilpotents & ~(1 << zero), n))

    reversible = symmetric = Flag(True)
    if not _is_commutative(R):  # a commutative ring is reversible and symmetric
        bad = _first_violation(n, n, lambda a: (mul[a] == zero) & (_columns(mul, a) != zero))
        if bad is not None:
            # a reversibility failure ab = 0, ba != 0 breaks symmetry at the
            # triple (a, b, 1): abc = 0 but bac = ba != 0
            reversible = Flag(False, counterexample=bad)
            symmetric = Flag(False, counterexample=(*bad, one))
        else:
            def asymmetric(a: slice) -> np.ndarray:
                # abc = 0 but acb != 0; in a reversible ring (ba)c = 0 iff
                # b(ac) = 0 iff (ac)b = 0, so bac needs no term of its own
                abc = mul[mul[a]]                    # [a,b,c] = (a b) c
                return (abc == zero) & (abc.swapaxes(1, 2) != zero)
            bad = _first_violation(n, n * n, asymmetric)
            if bad is not None:
                symmetric = Flag(False, counterexample=bad)

    # aRa = 0 iff aR ⊆ l(a): one mask test per distinct pair (class of aR, class of l(a))
    left, right = (_resolve(R, side)[1] for side in Side)
    pairs = right.pri_id.astype(np.int64) * len(left.masks) + left.ann_id
    _, first, pair_of = np.unique(pairs, return_index=True, return_inverse=True)
    null = np.array([right.masks[right.pri_id[a]] & ~left.masks[left.ann_id[a]] == 0
                     for a in first.tolist()])
    semiprime = _all_true(~null[pair_of] | (np.arange(n) == zero))

    return CommutationProfile(reduced, reversible, symmetric, semiprime, Flag(True))


def _fg_ideals(R: FiniteRing, side: Side) -> list[int]:
    """Every side ideal, each finitely generated in a finite ring: the lattice at a cap
    no lower than the principal count, so only a side that is not Bézout can overflow."""
    return all_ideals(R, side, max(len(_resolve(R, side)[1].principal_masks), lattice_cap()))


def _bezout(R: FiniteRing, side: Side) -> Flag:
    """Every finitely generated side ideal is principal.

    In a finite ring every side ideal is a sum of principal ones, and the
    principal ideals are among the ideals, so this holds exactly when the
    lattice has no more ideals than there are principal ones; an overflow
    of ``_fg_ideals`` also decides it.  Otherwise the first pair of
    principal ideals whose sum is not principal is the canonical
    counterexample; pairs suffice, as sums fold two generators at a time, and
    one exists, else every sum of principal ideals, so every ideal, would be
    principal.  A pair ``(A, B)`` of subgroups is decided by counting: a
    principal ``P ⊇ A ∪ B`` contains ``A + B``, and is it exactly when
    ``|P|·|A ∩ B| = |A|·|B|``, so only principal ideals of that size are searched.
    """
    _, tables = _resolve(R, side)
    masks = tables.principal_masks
    with suppress(LatticeOverflow):
        if len(_fg_ideals(R, side)) == len(masks):
            return Flag(True)
    by_size: dict[int, list[int]] = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)

    def principal_sum(m1: int, m2: int) -> bool:
        union, size = m1 | m2, m1.bit_count() * m2.bit_count() // (m1 & m2).bit_count()
        return any(p & union == union for p in by_size.get(size, ()))

    m1, m2 = next((m1, m2) for i, m1 in enumerate(masks) for m2 in masks[i + 1 :]
                  if not principal_sum(m1, m2))
    return Flag(False, counterexample=(tables.pri_witness(m1), tables.pri_witness(m2)))


def _p_injective(R: FiniteRing, side: Side) -> Flag:
    """Left flag: ``rl(a) = aR`` for all ``a``; right flag: ``lr(a) = Ra``."""
    _, own = _resolve(R, side)            # side annihilators, e.g. l(a) for Left
    _, mirrored = _resolve(R, side.other) # other-side principal ideals, e.g. aR for Left
    back = np.full(len(own.masks), -1)    # per annihilator id: id of its other-side annihilator
    for i in np.flatnonzero(own.ann_least >= 0).tolist():
        back[i] = mirrored.index.get(annihilator(R, side.other, own.masks[i]), -1)
    return _all_true(back[own.ann_id] == mirrored.pri_id)


def _double_annihilator_failure(R: FiniteRing, side: Side, ideals: Iterable[int]) -> int | None:
    """First side ideal ``I`` with ``ann(ann(I)) != I``, the inner one on the other side, or None."""
    return next((ideal for ideal in ideals
                 if annihilator(R, side, annihilator(R, side.other, ideal)) != ideal), None)


@_per_ring  # keyed on the cap too, as ``all_ideals`` checks it on every call
def _dual_ring(R: FiniteRing, cap: int) -> Flag:
    """Every one-sided ideal, on either side, is its double annihilator."""
    try:
        lattices = [(side, all_ideals(R, side, cap)) for side in Side]
    except LatticeOverflow as exc:
        return Flag(None, note=str(exc))
    for side, ideals in lattices:
        failure = _double_annihilator_failure(R, side, ideals)
        if failure is not None:
            return Flag(False, counterexample=failure)
    return Flag(True)


def _lear(R: FiniteRing, side: Side) -> Flag:
    """Every side ideal is the side annihilator of a single element."""
    try:
        ideals = all_ideals(R, side)
    except LatticeOverflow as exc:
        return Flag(None, note=str(exc))
    _, tables = _resolve(R, side)
    missing = next((ideal for ideal in ideals if tables.ann_witness(ideal) is None), None)
    return Flag(True) if missing is None else Flag(False, counterexample=missing)


def _idempotent_classes(R: FiniteRing, side: Side) -> np.ndarray:
    """Per class id of the side tables: the class is ``Re`` for an idempotent ``e``.

    ``R`` and its opposite have the same idempotents, so ``R``'s census serves both sides.
    """
    _, tables = _resolve(R, side)
    idempotent = np.zeros(len(tables.masks), dtype=bool)
    idempotent[tables.pri_id[_bool_from_mask(element_census(R).idempotents, R.order)]] = True
    return idempotent


def _pp(R: FiniteRing, side: Side) -> Flag:
    """Every element annihilator is generated by an idempotent."""
    return _all_true(_idempotent_classes(R, side)[_resolve(R, side)[1].ann_id])


def _strongly_clean(R: FiniteRing) -> Flag:
    """Every ``a`` is ``e + u`` with ``e`` idempotent, ``u`` a unit, ``eu = ue``: true in
    every finite ring, so no scan (Fitting's lemma; Nicholson, Comm. Algebra 27, 1999).
    The powers of ``a`` end in a group whose identity is a power ``f``, so ``af`` is a unit
    of ``fRf`` and ``a(1 - f)`` is nilpotent: ``e = 1 - f`` and ``u = a - e = af + (a(1 - f)
    - e)``, a unit of ``fRf`` plus one of ``eRe``, commute."""
    return Flag(True)


def _exchange_failure(R: FiniteRing, side: Side,
                      ideals: list[int]) -> tuple[int, int, int, int] | None:
    """First pair of side ideals breaking ann(I1 ∩ I2) = ann(I1) + ann(I2).

    Annihilators are taken on the other side.  The inclusion ``⊇`` always
    holds, and ``|A + B| = |A|·|B| / |A ∩ B|``, so each pair is decided by
    counting; the sum is formed only for the pair reported.  Returns
    ``(I1, I2, lhs, rhs)``, or None when every pair holds; raises
    ``LatticeOverflow`` when the pairs exceed the pair budget.
    """
    if len(ideals) * (len(ideals) + 1) // 2 > _PAIR_BUDGET:
        raise LatticeOverflow(f"{len(ideals)} ideals exceed the pair budget")
    other = side.other
    memo = _resolve(R, other)[1].ann_of_mask
    anns = [annihilator(R, other, m) for m in ideals]
    sizes = [a.bit_count() for a in anns]
    for i, m1 in enumerate(ideals):
        a1, n1 = anns[i], sizes[i]
        for j in range(i, len(ideals)):
            meet = m1 & ideals[j]
            lhs = memo.get(meet)
            if lhs is None:
                lhs = annihilator(R, other, meet)
            if lhs.bit_count() * (a1 & anns[j]).bit_count() != n1 * sizes[j]:
                return m1, ideals[j], lhs, subgroup_sum(R, a1, anns[j])
    return None


def _ikeda_nakayama(R: FiniteRing, side: Side) -> Flag:
    """For side ideals: ann(I1 ∩ I2) = ann(I1) + ann(I2) on the other side.  A dual ring has it
    with no pair loop: ``T = r(I1) + r(I2)`` has ``l(T) = lr(I1) ∩ lr(I2) = I1 ∩ I2``, so
    ``r(I1 ∩ I2) = rl(T) = T`` (the right side mirrors it)."""
    if _dual_ring(R, lattice_cap()).status:
        return Flag(True)
    try:
        failure = _exchange_failure(R, side, all_ideals(R, side))
    except LatticeOverflow as exc:
        return Flag(None, note=str(exc))
    if failure:
        return Flag(False, counterexample=failure[:2])
    return Flag(True)


_QF_NOTE = "finite ring: dual annihilator conditions model quasi-Frobenius"


def structural_profile(R: FiniteRing) -> StructuralProfile:
    """Bezout, P-injectivity, duality, annihilator, p.p., and clean flags."""
    return StructuralProfile(**{name: PREDICATES[name](R)
                                for name in StructuralProfile.__dataclass_fields__})


def classify_ring(R: FiniteRing) -> ClassProfile:
    """Full profile; refuses rings above ``order_cap()``."""
    cap = order_cap()
    if R.order > cap:
        raise OrderCapExceeded(
            f"full classification capped at order {cap}, got {R.order}; "
            f"raise RING_ORDER_CAP or use single profiles"
        )
    return ClassProfile(
        expression=R.construction,
        order=R.order,
        morphic=ring_morphic_profile(R),
        regularity=regularity_profile(R),
        commutation=commutation_profile(R),
        structural=structural_profile(R),
    )


# The record name of each ``SideHierarchy`` flag on each side: the only
# place a record name is put together from parts.
_HIERARCHY_NAMES = {side: {field: f"{side.value}_{suffix}" for field, suffix in (
    ("pseudo", "pseudo_morphic"), ("generalized", "generalized_morphic"),
    ("quasi", "quasi_morphic"), ("morphic", "morphic"))} for side in Side}


def _flag_of(group: Callable[..., object], field: str, *args) -> Callable[[FiniteRing], Flag]:
    return lambda R: getattr(group(R, *args), field)


# Every ring-level flag by record name, in record order: the CLI and the
# theorem checks read flags here.  A profile group is computed once per ring,
# so its flags cost no more one by one than together.
PREDICATES: dict[str, Callable[[FiniteRing], Flag]] = {
    **{name: _flag_of(_side_hierarchy, field, side)
       for side in Side for field, name in _HIERARCHY_NAMES[side].items()},
    **{name: _flag_of(group, name)
       for group, fields in ((regularity_profile, RegularityProfile.__dataclass_fields__),
                             (commutation_profile, CommutationProfile.__dataclass_fields__))
       for name in fields},
    "bezout_left": partial(_bezout, side=Side.LEFT),
    "bezout_right": partial(_bezout, side=Side.RIGHT),
    "p_injective_left": partial(_p_injective, side=Side.LEFT),
    "p_injective_right": partial(_p_injective, side=Side.RIGHT),
    "dual_ring": lambda R: _dual_ring(R, lattice_cap()),
    "qf_finite": lambda R: replace(_dual_ring(R, lattice_cap()), note=_QF_NOTE),
    "lear_left": partial(_lear, side=Side.LEFT),
    "lear_right": partial(_lear, side=Side.RIGHT),
    "pp_left": partial(_pp, side=Side.LEFT),
    "pp_right": partial(_pp, side=Side.RIGHT),
    "strongly_clean": _strongly_clean,
    "ikeda_nakayama_left": partial(_ikeda_nakayama, side=Side.LEFT),
    "ikeda_nakayama_right": partial(_ikeda_nakayama, side=Side.RIGHT),
}
