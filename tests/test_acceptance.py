"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are pinned here, not configurable.
"""

import random
import time

import pytest

from cohortnet import (
    InterventionPolicy,
    Mode,
    Partition,
    PerfClass,
    Student,
    SymmetrizeRule,
    UndirectedView,
    betweenness,
    best_partition,
    build_network,
    closeness,
    cluster_performance,
    girvan_newman,
    make_cohort,
    modularity,
    partition_from_blocks,
    plan_intervention,
    skewness,
    symmetrize,
)
from cohortnet.cli import main
from cohortnet.errors import AnalysisError
from cohortnet.io_formats import (
    export_edges,
    export_roster,
    parse_adjacency,
    parse_edges,
    parse_roster,
    plan_csv,
)

from conftest import mknet, mkview
from oracles import (
    export_adjacency,
    modularity_brute,
    node_betweenness_brute,
    random_directed_graph,
    random_undirected_edges,
)
from test_io_formats import random_cohort


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_1_betweenness_oracle_equivalence():
    rng = random.Random(20260811)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        nodes, edges = random_directed_graph(rng, max_nodes=7)
        net = mknet(edges, nodes=set(nodes))
        fast = betweenness(net, Mode.DIRECTED).scores
        slow = node_betweenness_brute(nodes, edges, directed=True)
        worst = max(worst, max(abs(fast[v] - slow[v]) for v in nodes))
    elapsed = time.perf_counter() - t0
    check(1, "betweenness matches brute force on 200 random digraphs",
          worst < 1e-9 and elapsed < 30.0,
          f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_modularity_oracle_equivalence():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    differ = 0
    trials = 0
    while trials < 100:
        nodes, edges = random_undirected_edges(rng, max_nodes=8)
        if not edges:
            continue
        trials += 1
        view = mkview(edges, nodes=set(nodes))
        blocks: dict[int, set[int]] = {}
        for v in nodes:
            blocks.setdefault(rng.randrange(1, len(nodes) + 1), set()).add(v)
        p = partition_from_blocks(list(blocks.values()))
        got = modularity(view, p)
        want = float(modularity_brute(view.edges, p.assignment))
        differ += got != want
    elapsed = time.perf_counter() - t0
    check(2, "modularity matches rational-arithmetic formula on 100 random graphs",
          differ == 0 and elapsed < 10.0,
          f"{differ} differ, {elapsed:.1f}s")


def two_cliques_view(s):
    edges = [(a, b) for a in range(s) for b in range(a + 1, s)]
    edges += [(a + s, b + s) for a, b in list(edges)]
    edges.append((s - 1, s))
    return mkview(edges)


def test_criterion_3_planted_two_clique_recovery():
    ok = True
    detail = []
    for s in range(4, 9):
        view = two_cliques_view(s)
        best, curve = best_partition(view, girvan_newman(view), k_max=15)
        recovered = best.clusters() == [set(range(s)), set(range(s, 2 * s))]
        ok &= recovered
        if s == 5:
            q = curve[best.k]
            ok &= abs(q - 0.45238) < 1e-4
            detail.append(f"s=5 Q={q:.5f}")
        if not recovered:
            detail.append(f"s={s} not recovered")
    check(3, "two planted cliques (s=4..8) recovered exactly", ok, ", ".join(detail))


def test_criterion_4_two_triangle_barbell():
    view = mkview([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    trace = girvan_newman(view)
    best, curve = best_partition(view, trace, k_max=15)
    q = curve[best.k]
    ok = (
        trace.steps[0].removed_edge == (2, 3)
        and best.k == 2
        and abs(q - 0.35714) < 1e-4
    )
    check(4, "barbell: bridge removed first, best k=2",
          ok, f"first={trace.steps[0].removed_edge}, k={best.k}, Q={q:.5f}")


def test_criterion_5_closeness_refusal(tmp_path):
    net = mknet([(1, 2), (3, 4)])
    raised = False
    try:
        closeness(net)
    except AnalysisError as exc:
        raised = "closeness requires a connected network" in str(exc)
    students = [Student(id=i, marks={"s5": 50.0}) for i in (1, 2, 3, 4)]
    cohort_file = tmp_path / "two.json"
    from cohortnet.io_formats import save_cohort

    cohort_file.write_bytes(save_cohort(make_cohort(students, [(1, 2), (3, 4)], "t")))
    code = main(["analyze", str(cohort_file), "--measure", "closeness",
                 "--out-dir", str(tmp_path / "out")])
    check(5, "closeness refuses a 2-component cohort (library + CLI exit 3)",
          raised and code == 3, f"exit={code}")


def _random_cohort_case(rng):
    n = rng.randint(20, 120)
    k = rng.randint(3, 15)
    nodes = list(range(n))
    assignment = {v: (v if v < k else rng.randrange(k)) for v in nodes}
    marks = {
        v: float(rng.randint(80, 100) if assignment[v] == 0 else rng.randint(20, 100))
        for v in nodes
    }
    edges = set()
    for _ in range(2 * n):
        a, b = rng.sample(nodes, 2)
        edges.add((a, b))
    for _ in range(n):  # reciprocal ties, biased inside clusters
        cluster = rng.randrange(k)
        members = [v for v in nodes if assignment[v] == cluster]
        if len(members) < 2:
            continue
        a, b = rng.sample(members, 2)
        edges |= {(a, b), (b, a)}
    net = build_network([Student(id=v) for v in nodes], sorted(edges), "r")
    policy = InterventionPolicy(
        max_group=rng.randint(4, 30), keep_low_subgroups=rng.random() < 0.5
    )
    return net, Partition(assignment=assignment, k=k), marks, policy


def test_criterion_6_intervention_properties():
    rng = random.Random(616161)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for i in range(1000):
        net, p, marks, policy = _random_cohort_case(rng)
        plan = plan_intervention(net, p, marks, policy)
        placed = [m for g in plan.groups for m in g.members]
        if not (len(placed) == len(set(placed)) == len(p.assignment)):
            ok, detail = False, f"case {i}: not a partition"
            break
        perfs = cluster_performance(p, marks, policy.high_t, policy.low_t)
        group_of = {m: g.index for g in plan.groups for m in g.members}
        for c in perfs:
            if c.perf is not PerfClass.LOW:
                if len({group_of[m] for m in c.members}) != 1:
                    ok, detail = False, f"case {i}: cluster {c.cluster} split"
                    break
        if policy.keep_low_subgroups:
            low = {c.cluster for c in perfs if c.perf is PerfClass.LOW}
            inter = symmetrize(net, SymmetrizeRule.INTERSECTION)
            for a, b in inter.edges:
                if p.assignment[a] == p.assignment[b] and p.assignment[a] in low:
                    if group_of[a] != group_of[b]:
                        ok, detail = False, f"case {i}: reciprocal pair split"
                        break
        if plan != plan_intervention(net, p, marks, policy) or plan_csv(
            plan
        ) != plan_csv(plan_intervention(net, p, marks, policy)):
            ok, detail = False, f"case {i}: not deterministic"
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    check(6, "1000 random cohorts: plans partition, preserve, co-place, repeat",
          ok and elapsed < 60.0, detail or f"{elapsed:.1f}s")


def test_criterion_7_skewness_properties():
    symmetric = [[1, 2, 3], [0, 5, 10, 15, 20], [2, 4, 4, 6], [10, 20, 30, 40, 50]]
    ok = all(abs(skewness(xs)) < 1e-12 for xs in symmetric)
    rng = random.Random(7)
    for _ in range(50):
        xs = [rng.uniform(0, 100) for _ in range(rng.randint(3, 30))]
        if max(xs) == min(xs):
            continue
        mirrored = [max(xs) + min(xs) - x for x in xs]
        ok &= abs(skewness(mirrored) + skewness(xs)) < 1e-9
    constant_raises = False
    try:
        skewness([5.0, 5.0, 5.0, 5.0])
    except AnalysisError as exc:
        constant_raises = str(exc) == "skewness is undefined for a constant sample"
    check(7, "skewness: symmetric ~ 0, reflection flips sign, constant refused",
          ok and constant_raises)


def test_criterion_8_end_to_end_demo(tmp_path):
    out = str(tmp_path)
    t0 = time.perf_counter()
    codes = [main(["demo", "--out-dir", out])]
    codes.append(main(["ingest", "--roster", f"{out}/roster.csv",
                       "--edges", f"{out}/edges.csv", "--label", "demo",
                       "--out", f"{out}/ingested.json"]))
    codes.append(main(["analyze", f"{out}/ingested.json", "--communities",
                       "--k-max", "15", "--out-dir", out]))
    codes.append(main(["plan", f"{out}/ingested.json", "--semester", "s5",
                       "--partition", f"{out}/partition.csv", "--out-dir", out]))
    codes.append(main(["report", f"{out}/ingested.json", "--out-dir", out]))
    elapsed = time.perf_counter() - t0
    rows = (tmp_path / "partition.csv").read_text().splitlines()[1:]
    k = len({r.split(",")[1] for r in rows})
    ok = codes == [0] * 5 and elapsed < 10.0 and abs(k - 12) <= 2
    check(8, "demo pipeline ingest/analyze/plan/report under 10s, k near 12",
          ok, f"exits={codes}, k={k}, {elapsed:.1f}s")


def test_criterion_9_round_trips():
    rng = random.Random(909090)
    ok = True
    for i in range(100):
        cohort = random_cohort(rng)
        students_again = parse_roster(export_roster(cohort.students))
        edges_again = frozenset(parse_edges(export_edges(cohort.network)))
        adjacency_again = frozenset(parse_adjacency(export_adjacency(cohort.network)))
        if not (
            students_again == list(cohort.students)
            and edges_again == cohort.network.edges
            and adjacency_again == cohort.network.edges
        ):
            ok = False
            break
    check(9, "roster/edge/adjacency files round-trip on 100 random cohorts", ok)
