"""Preserve/disperse assignment planning.

The plan keeps every High cluster together as one assignment group, leaves
Average clusters untouched, and dissolves Low clusters into dispersal
units that are dealt out to the High groups. With
``keep_low_subgroups`` a unit is a connected component of the reciprocal
(intersection) view restricted to the Low cluster, so mutual friends stay
together; otherwise every Low student is a singleton unit.

Units are placed largest first into the smallest High group that can take
them without exceeding ``max_group`` (ties by group index). A unit nobody
can take goes to the smallest High group anyway and that group is flagged
as an overflow.
"""

from __future__ import annotations

import statistics
from collections.abc import Mapping
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

from .errors import AnalysisError, DataError
from .model import (
    FriendshipNetwork,
    Partition,
    SymmetrizeRule,
    _check_group_bounds,
    _check_thresholds,
    _checked_make,
    symmetrize,
)
from .stats import PerfClass, cluster_performance


class Role(str, Enum):
    PRESERVED = "preserved"
    DISPERSED = "dispersed"


class _PolicyFields(NamedTuple):
    high_t: float = 70.0
    low_t: float = 60.0
    min_group: int = 1
    max_group: int = 18
    keep_low_subgroups: bool = True


class InterventionPolicy(_PolicyFields):
    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args: object, **kwargs: object) -> InterventionPolicy:
        self = super().__new__(cls, *args, **kwargs)
        _check_thresholds(self.high_t, self.low_t)
        _check_group_bounds(self.min_group, self.max_group)
        return self


class PlanGroup(NamedTuple):
    index: int
    anchor_cluster: int
    anchor_perf: PerfClass
    members: tuple[int, ...]
    roles: dict[int, Role]
    overflow: bool = False


class AssignmentPlan(NamedTuple):
    groups: tuple[PlanGroup, ...]
    notes: tuple[str, ...] = ()


class GroupProfile(NamedTuple):
    index: int
    size: int
    mean_mark: float
    high_origin: int  # members preserved from a High cluster
    dispersed: int


def plan_intervention(
    net: FriendshipNetwork,
    p: Partition,
    marks: Mapping[int, float],
    policy: InterventionPolicy,
) -> AssignmentPlan:
    """Build the assignment plan for one partition and one mark set."""
    perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
    if not any(c.perf is PerfClass.HIGH for c in perfs):
        raise AnalysisError(
            f"no cluster mean reaches high_t={policy.high_t}; dispersal needs at "
            "least one high-performing cluster to host the moved students"
        )

    drafts: list[SimpleNamespace] = []  # mutable groups; each becomes a PlanGroup
    low_clusters = []
    for perf in perfs:  # already ordered by cluster id
        if perf.perf is PerfClass.LOW:
            low_clusters.append(perf)
            continue
        drafts.append(
            SimpleNamespace(
                index=len(drafts),
                anchor_cluster=perf.cluster,
                anchor_perf=perf.perf,
                members=list(perf.members),
                dispersed=set(),
                overflow=False,
            )
        )

    reciprocal = symmetrize(net, SymmetrizeRule.INTERSECTION)
    units: list[list[int]] = []
    for perf in low_clusters:
        if policy.keep_low_subgroups:
            sub = reciprocal.induced(perf.members)
            units.extend(sorted(comp) for comp in sub.components())
        else:
            units.extend([m] for m in perf.members)
    units.sort(key=lambda u: (-len(u), u[0]))

    recipients = [d for d in drafts if d.anchor_perf is PerfClass.HIGH]
    notes: list[str] = []
    for unit in units:
        takers = [d for d in recipients if len(d.members) + len(unit) <= policy.max_group]
        pool = takers if takers else recipients
        target = min(pool, key=lambda d: (len(d.members), d.index))
        if not takers:
            target.overflow = True
            notes.append(
                f"group {target.index} exceeds max_group={policy.max_group}: no "
                f"group could take the unit {unit} within bounds"
            )
        target.members.extend(unit)
        target.dispersed.update(unit)

    groups = []
    for d in drafts:
        if len(d.members) < policy.min_group:
            notes.append(
                f"group {d.index} has {len(d.members)} members, below "
                f"min_group={policy.min_group}"
            )
        roles = {
            m: (Role.DISPERSED if m in d.dispersed else Role.PRESERVED)
            for m in sorted(d.members)
        }
        groups.append(
            PlanGroup(
                index=d.index,
                anchor_cluster=d.anchor_cluster,
                anchor_perf=d.anchor_perf,
                members=tuple(sorted(d.members)),
                roles=roles,
                overflow=d.overflow,
            )
        )
    return AssignmentPlan(groups=tuple(groups), notes=tuple(notes))


def predicted_group_profile(
    plan: AssignmentPlan, marks: Mapping[int, float]
) -> list[GroupProfile]:
    """Size, mean mark, high-origin count and dispersed count per group."""
    profiles = []
    for g in plan.groups:
        values = []
        for m in g.members:
            if m not in marks:
                raise DataError(f"node {m} has no mark")
            values.append(marks[m])
        dispersed = sum(1 for r in g.roles.values() if r is Role.DISPERSED)
        preserved = len(g.members) - dispersed
        profiles.append(
            GroupProfile(
                index=g.index,
                size=len(g.members),
                mean_mark=statistics.fmean(values),
                high_origin=preserved if g.anchor_perf is PerfClass.HIGH else 0,
                dispersed=dispersed,
            )
        )
    return profiles
