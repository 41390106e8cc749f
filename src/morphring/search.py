"""The open-question falsifier: a left pseudo-morphic ring that is not left quasi-morphic.

``search`` scans a corpus of rings for one, re-validates any hit with the
definitions in ``check``, and fingerprints the corpus with SHA-256.  The
module needs the classifier and the ring type only, so a search process
never compiles the theorem checks of ``verify``.  The fingerprint uses the
interpreter's built-in SHA-256, so no search loads OpenSSL's ``libcrypto``
through ``hashlib``, which is used only when the built-in module is missing.
"""

from __future__ import annotations

from typing import Iterable

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .classify import PREDICATES
from .common import VerificationReport
from .rings import FiniteRing

__all__ = ["search_counterexample"]


def _expr(R: FiniteRing) -> str:
    return R.construction or f"<order-{R.order} ring>"


def _search_hit(R: FiniteRing) -> dict | None:
    """Hit record if ``R`` looks left pseudo- but not quasi-morphic, else None.

    Any hit is re-validated by the definitions in ``check``, which share no
    code or cache with the classifier, before being reported.  Only a hit
    imports ``check``, so a clean search never loads it.
    """
    quasi = PREDICATES["left_quasi_morphic"](R)
    if not PREDICATES["left_pseudo_morphic"](R).status or quasi.status:
        return None
    from .check import left_flags

    raw_pseudo, raw_generalized = left_flags(R.mul_table, R.zero)
    return {
        "expression": _expr(R),
        "quasi_counterexample": quasi.counterexample,
        "raw_revalidation": {
            "left_pseudo": raw_pseudo,
            "left_generalized": raw_generalized,
        },
        "confirmed": raw_pseudo and not raw_generalized,
    }


def _search_report(searched: Iterable[tuple[str, dict | None]]) -> VerificationReport:
    """The search report over ``(expression, hit or None)`` pairs, one per ring."""
    expressions: list[str] = []
    hits: list[dict] = []
    for expression, hit in searched:
        expressions.append(expression)
        if hit:
            hits.append(hit)
    fingerprint = sha256("\n".join(sorted(expressions)).encode()).hexdigest()
    status = "refuted" if any(h["confirmed"] for h in hits) else "verified"
    details = {"rings": len(expressions), "fingerprint": fingerprint, "hits": hits}
    return VerificationReport("pseudo_not_quasi_search",
                              f"corpus[{len(expressions)}]", status, details)


def search_counterexample(rings: Iterable[FiniteRing]) -> VerificationReport:
    """Search for a left pseudo-morphic ring that is not left quasi-morphic.

    This is the open-question falsifier.  ``rings`` is consumed in one
    pass, so a generator keeps a single ring alive at a time.  A clean run
    reports the corpus size and a fingerprint of the sorted expression list.
    """
    return _search_report(map(lambda R: (_expr(R), _search_hit(R)), rings))
