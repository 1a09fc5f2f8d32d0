"""The rule catalogue for ``tardis check``."""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from repro.analysis.engine import Rule
from repro.analysis.rules.hygiene import BareExceptRule, ImportHygieneRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.metric_drift import MetricNameDriftRule

__all__ = [
    "ALL_RULES",
    "BareExceptRule",
    "ImportHygieneRule",
    "LockDisciplineRule",
    "MetricNameDriftRule",
    "default_rules",
    "rules_by_id",
]

#: every registered rule class, in reporting order.
ALL_RULES: Sequence[Type[Rule]] = (
    LockDisciplineRule,
    MetricNameDriftRule,
    ImportHygieneRule,
    BareExceptRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in ALL_RULES]


def rules_by_id(ids: Sequence[str]) -> List[Rule]:
    """Instances of the rules named in ``ids`` (order preserved).

    Raises :class:`KeyError` naming the unknown id when one does not
    exist, so the CLI can print the valid set.
    """
    table: Dict[str, Type[Rule]] = {cls.id: cls for cls in ALL_RULES}
    picked: List[Rule] = []
    for rule_id in ids:
        if rule_id not in table:
            raise KeyError(rule_id)
        picked.append(table[rule_id]())
    return picked
