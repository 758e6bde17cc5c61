"""The twelve projective-bundle and product entries of the smooth toric Fano
threefold catalog, and the survey driver that runs them.

Each catalog fan is built from its constructor and validated once per
process, by the variety registry; nothing is trusted from static data.  Each
entry's ``claimed_vanishing`` and ``claimed_nonzero_degrees`` record the
vanishing behaviour that the reference survey asserts for it; nothing reads
them, and they are kept as that record.
The computation disagrees with the record on two entries: P(O+O(2))/P2 has
nonvanishing higher self-Ext in degree 2, not 3, and only for q >= 3; and
P(O+O(1,-1))/P1xP1 vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import Overflow
from .ext import tilting_verdict
from .fan import Fan
from .frobenius import FrobeniusOrder
from .varieties import named_variety

MAX_Q_THREEFOLD = 9


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog variety: a registry key plus the reference survey's Ext claim."""

    key: str
    label: str
    claimed_vanishing: bool
    claimed_nonzero_degrees: tuple = ()

    def build(self) -> Fan:
        return named_variety(self.key)


def catalog_entries() -> tuple:
    return (
        CatalogEntry("P3", "P3", True),
        CatalogEntry("P(O+O(2))/P2", "P(O+O(2)) over P2", False, (3,)),
        CatalogEntry("P(O+O(1))/P2", "P(O+O(1)) over P2", True),
        CatalogEntry("P(O+O+O(1))/P1", "P(O+O+O(1)) over P1", True),
        CatalogEntry("P(O+O(1,1))/P1xP1", "P(O+O(1,1)) over P1xP1", True),
        CatalogEntry("P(O+O(1,-1))/P1xP1", "P(O+O(1,-1)) over P1xP1", False, (1,)),
        CatalogEntry("P(O+O(l))/X1", "P(O+O(l)) over X1, l = H", True),
        CatalogEntry("P2xP1", "P2 x P1", True),
        CatalogEntry("P1xP1xP1", "P1 x P1 x P1", True),
        CatalogEntry("X1xP1", "X1 x P1", True),
        CatalogEntry("X2xP1", "X2 x P1", True),
        CatalogEntry("X3xP1", "X3 x P1", True),
    )


def catalog_run(p: int, n: int = 1) -> dict:
    """Ext tables and tilting verdicts across the twelve catalog threefolds.

    Per-entry input errors (Overflow, ValueError) are reported in the row and
    do not stop the run; an InvariantViolation is a bug and propagates.  The
    summary counts entries whose higher self-Ext vanishes / does not vanish.
    """
    order = FrobeniusOrder(p, n)
    if order.q > MAX_Q_THREEFOLD:
        raise ValueError(
            f"q = {order.q} exceeds the supported bound {MAX_Q_THREEFOLD} for "
            "threefold decompositions"
        )
    rows = []
    vanishing = failing = errors = 0
    for entry in catalog_entries():
        row = {"key": entry.key, "label": entry.label}
        try:
            verdict = tilting_verdict(entry.build(), order)
            row.update(
                {
                    "dims": list(verdict.dims),
                    "strong_exceptional": verdict.strong_exceptional,
                    "contains_collection": verdict.contains_collection,
                    "certified": verdict.certified,
                }
            )
            if verdict.strong_exceptional:
                vanishing += 1
            else:
                failing += 1
        except (Overflow, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            errors += 1
        rows.append(row)
    return {
        "p": p,
        "n": n,
        "rows": rows,
        "summary": {"vanishing": vanishing, "failing": failing, "errors": errors},
    }
