"""Synthetic 100-student cohort with 12 planted communities.

The generator is deterministic for a given seed: every community gets a
reciprocal chain so it is internally connected, extra intra-community pairs
are sampled densely, and a thin ring of cross-community nominations keeps
the whole network in one weak component. Community mark profiles span the
High/Average/Low classes so the full pipeline (communities, classification,
planning) has something to do out of the box.
"""

from __future__ import annotations

import random

from .model import Cohort, Gender, Partition, Student, make_cohort

DEFAULT_SEED = 7

COMMUNITY_SIZES = (12, 11, 10, 10, 9, 9, 8, 8, 7, 7, 5, 4)
COMMUNITY_MEANS = (82.0, 80.0, 78.0, 76.0, 66.0, 65.0, 64.0, 63.0, 55.0, 53.0, 50.0, 48.0)
MARK_STDDEV = 5.0
INTRA_PAIR_PROB = 0.55
RECIPROCAL_PROB = 0.6
EXTRA_CROSS_TIES = 8
FEMALE_SHARE = 0.76
SEMESTER = "s5"


def generate_demo_cohort(seed: int = DEFAULT_SEED) -> tuple[Cohort, Partition]:
    """Return the synthetic cohort and its planted community partition."""
    rng = random.Random(seed)
    communities: list[list[int]] = []
    next_id = 0
    for size in COMMUNITY_SIZES:
        communities.append(list(range(next_id, next_id + size)))
        next_id += size

    students = []
    planted: dict[int, int] = {}
    for cid, (members, mean) in enumerate(zip(communities, COMMUNITY_MEANS)):
        for sid in members:
            planted[sid] = cid
            gender = Gender.FEMALE if rng.random() < FEMALE_SHARE else Gender.MALE
            mark = min(100.0, max(0.0, round(rng.gauss(mean, MARK_STDDEV), 1)))
            students.append(Student(id=sid, gender=gender, marks={SEMESTER: mark}))

    edges: set[tuple[int, int]] = set()
    for members in communities:
        chain = members[:]
        rng.shuffle(chain)
        for a, b in zip(chain, chain[1:]):  # one-way chain keeps the community connected
            edges.add((a, b))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if rng.random() >= INTRA_PAIR_PROB:
                    continue
                if rng.random() < RECIPROCAL_PROB:
                    edges.add((a, b))
                    edges.add((b, a))
                else:
                    edges.add((a, b) if rng.random() < 0.5 else (b, a))

    n_comms = len(communities)
    for cid in range(n_comms):
        src = rng.choice(communities[cid])
        tgt = rng.choice(communities[(cid + 1) % n_comms])
        edges.add((src, tgt))
    for _ in range(EXTRA_CROSS_TIES):
        a_comm, b_comm = rng.sample(range(n_comms), 2)
        edges.add((rng.choice(communities[a_comm]), rng.choice(communities[b_comm])))

    cohort = make_cohort(students, sorted(edges), "demo")
    partition = Partition(assignment=planted, k=n_comms)
    return cohort, partition
