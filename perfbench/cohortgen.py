"""Seeded synthetic cohorts with planted communities, for the benchmark.

Modelled on ``cohortnet.demo``: communities of 4-12 students, each kept
connected by a one-way chain, intra-community pairs tied with probability
0.55 (reciprocal with probability 0.6), a ring of cross-community ties plus
extra cross ties so the union view is connected, and community mark means
drawn from the High, Average and Low bands.  Two semesters of marks.

The program under test only ever sees the CSV files written here.
"""

from __future__ import annotations

import random
from pathlib import Path

MIN_SIZE, MAX_SIZE = 4, 12
INTRA_PAIR_PROB = 0.55
RECIPROCAL_PROB = 0.6
EXTRA_CROSS_PER_COMMUNITY = 2 / 3  # demo.py: 8 extra ties for 12 communities
FEMALE_SHARE = 0.76
MARK_STDDEV = 5.0
MEAN_BANDS = ((72.0, 86.0), (61.0, 69.0), (45.0, 58.0))  # High, Average, Low
SEMESTERS = ("s5", "s6")
SEMESTER_DRIFT = 3.0  # stddev of the per-community mean change between semesters


def _sizes(rng: random.Random, n: int) -> list[int]:
    sizes = []
    left = n
    while left > MAX_SIZE:
        size = rng.randint(MIN_SIZE, min(MAX_SIZE, left - MIN_SIZE))
        sizes.append(size)
        left -= size
    sizes.append(left)
    return sizes


def generate(n: int, seed: int, structure_seed: int | None = None) -> tuple[
        list[tuple[int, str, float, float]], list[tuple[int, int]], dict[int, int]]:
    """Return (roster rows, sorted directed ties, planted node -> community).

    ``structure_seed`` draws the community sizes and the ties; ``seed`` draws
    the student ids (a random relabelling), genders and marks.  Passing a
    fixed ``structure_seed`` keeps the analysis work the same for every
    ``seed`` while the input files still differ.
    """
    if n < MIN_SIZE:
        raise ValueError(f"a cohort needs at least {MIN_SIZE} students")
    srng = random.Random(f"cohortgen/{n}/structure/{seed if structure_seed is None else structure_seed}")
    rng = random.Random(f"cohortgen/{n}/{seed}")
    communities: list[list[int]] = []
    next_id = 0
    for size in _sizes(srng, n):
        communities.append(list(range(next_id, next_id + size)))
        next_id += size
    n_comms = len(communities)

    ties: set[tuple[int, int]] = set()
    for members in communities:
        chain = members[:]
        srng.shuffle(chain)
        ties.update(zip(chain, chain[1:]))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if srng.random() >= INTRA_PAIR_PROB:
                    continue
                if srng.random() < RECIPROCAL_PROB:
                    ties.update(((a, b), (b, a)))
                else:
                    ties.add((a, b) if srng.random() < 0.5 else (b, a))
    for cid in range(n_comms):
        ties.add((srng.choice(communities[cid]),
                  srng.choice(communities[(cid + 1) % n_comms])))
    for _ in range(round(EXTRA_CROSS_PER_COMMUNITY * n_comms)):
        a, b = srng.sample(range(n_comms), 2)
        ties.add((srng.choice(communities[a]), srng.choice(communities[b])))

    ids = list(range(n))
    rng.shuffle(ids)
    roster = []
    planted = {}
    for cid, members in enumerate(communities):
        # bands in contiguous blocks, as in demo.py, so ring neighbours share a band
        lo, hi = MEAN_BANDS[cid * len(MEAN_BANDS) // n_comms]
        mean = rng.uniform(lo, hi)
        mean_next = mean + rng.gauss(0.0, SEMESTER_DRIFT)
        for v in members:
            planted[ids[v]] = cid
            gender = "F" if rng.random() < FEMALE_SHARE else "M"
            marks = [min(100.0, max(0.0, round(rng.gauss(m, MARK_STDDEV), 1)))
                     for m in (mean, mean_next)]
            roster.append((ids[v], gender, marks[0], marks[1]))
    roster.sort()
    return roster, sorted((ids[s], ids[t]) for s, t in ties), planted


def write(out_dir: Path, n: int, seed: int, structure_seed: int | None = None) -> None:
    """Write roster.csv, edges.csv, adjacency.csv and planted.csv under ``out_dir``."""
    roster, edges, planted = generate(n, seed, structure_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.csv"
             for name in ("roster", "edges", "adjacency", "planted")}

    lines = ["id,gender," + ",".join(f"mark_{s}" for s in SEMESTERS)]
    lines += [f"{sid},{g},{m5!r},{m6!r}" for sid, g, m5, m6 in roster]
    paths["roster"].write_text("\n".join(lines) + "\n")

    paths["edges"].write_text("source,target\n" + "".join(f"{s},{t}\n" for s, t in edges))

    out: list[set[int]] = [set() for _ in range(n)]
    for s, t in edges:
        out[s].add(t)
    rows = ["," + ",".join(map(str, range(n)))]
    rows += [f"{v}," + ",".join("1" if w in out[v] else "0" for w in range(n))
             for v in range(n)]
    paths["adjacency"].write_text("\n".join(rows) + "\n")

    paths["planted"].write_text(
        "node,cluster\n" + "".join(f"{v},{c}\n" for v, c in sorted(planted.items())))
