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
from typing import NamedTuple

from .config import RunConfig
from .errors import AnalysisError
from .model import (
    FriendshipNetwork,
    Partition,
    SymmetrizeRule,
    _check_cover,
    symmetrize,
)
from .stats import PerfClass, cluster_performance


class Role(str, Enum):
    PRESERVED = "preserved"
    DISPERSED = "dispersed"


# plan_intervention reads five of the run settings; this name stays for callers
# that build a policy, such as the benchmark's replay in perfbench/traced.py.
InterventionPolicy = RunConfig


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
    policy: RunConfig,
) -> AssignmentPlan:
    """Build the assignment plan for one partition and one mark set."""
    perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
    if not any(c.perf is PerfClass.HIGH for c in perfs):
        raise AnalysisError(
            f"no cluster mean reaches high_t={policy.high_t}; dispersal needs at "
            "least one high-performing cluster to host the moved students"
        )

    kept = [c for c in perfs if c.perf is not PerfClass.LOW]  # by cluster id
    members = [list(c.members) for c in kept]  # group i is anchored on kept[i]
    overflow = [False] * len(kept)

    reciprocal = symmetrize(net, SymmetrizeRule.INTERSECTION)
    units: list[list[int]] = []
    for c in perfs:
        if c.perf is not PerfClass.LOW:
            continue
        if policy.keep_low_subgroups:
            units.extend(sorted(comp) for comp in reciprocal.induced(c.members).components())
        else:
            units.extend([m] for m in c.members)
    units.sort(key=lambda u: (-len(u), u[0]))

    recipients = [i for i, c in enumerate(kept) if c.perf is PerfClass.HIGH]
    notes: list[str] = []
    for unit in units:
        takers = [i for i in recipients if len(members[i]) + len(unit) <= policy.max_group]
        target = min(takers or recipients, key=lambda i: (len(members[i]), i))
        if not takers:
            overflow[target] = True
            notes.append(
                f"group {target} exceeds max_group={policy.max_group}: no "
                f"group could take the unit {unit} within bounds"
            )
        members[target].extend(unit)

    groups = []
    for i, c in enumerate(kept):
        if len(members[i]) < policy.min_group:
            notes.append(
                f"group {i} has {len(members[i])} members, below min_group={policy.min_group}"
            )
        anchor = set(c.members)
        ordered = tuple(sorted(members[i]))
        roles = {m: Role.PRESERVED if m in anchor else Role.DISPERSED for m in ordered}
        groups.append(PlanGroup(i, c.cluster, c.perf, ordered, roles, overflow[i]))
    return AssignmentPlan(groups=tuple(groups), notes=tuple(notes))


def predicted_group_profile(
    plan: AssignmentPlan, marks: Mapping[int, float]
) -> list[GroupProfile]:
    """Size, mean mark, high-origin count and dispersed count per group."""
    _check_cover((m for g in plan.groups for m in g.members), marks, "mark")
    profiles = []
    for g in plan.groups:
        dispersed = sum(1 for r in g.roles.values() if r is Role.DISPERSED)
        preserved = len(g.members) - dispersed
        profiles.append(
            GroupProfile(
                index=g.index,
                size=len(g.members),
                mean_mark=statistics.fmean([marks[m] for m in g.members]),
                high_origin=preserved if g.anchor_perf is PerfClass.HIGH else 0,
                dispersed=dispersed,
            )
        )
    return profiles
