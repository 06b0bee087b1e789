"""Command-line front end: ingest, analyze, classify, plan, report, export, demo.

Exit codes: 0 success, 1 usage error, 2 data error, 3 analysis refusal.
All artifacts land under the configured output directory with fixed names,
and identical invocations produce byte-identical files. Each command returns
its stdout text and its files; `main` writes them only after it has returned.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io_formats as iof
from .config import OUT_DIR_ENV, RunConfig, load_config_file
from .errors import AnalysisError, DataError, UsageError
from .model import Cohort, Measure, Mode, Partition, SymmetrizeRule, make_cohort, symmetrize

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from logging import Logger

# Each command imports the analysis modules it runs inside its own function,
# so a process pays only for the code its command needs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ANALYSIS = 3


def _log() -> Logger:
    """The CLI's logger. logging is imported on the paths that warn, and only there."""
    import logging

    logging.basicConfig(format="%(levelname)s: %(message)s")
    return logging.getLogger("cohortnet")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file")
    common.add_argument("--out-dir", type=Path, dest="out_dir", default=None,
                        help=f"output directory (also via ${OUT_DIR_ENV})")

    parser = _Parser(prog="cohortnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse roster plus ties into a cohort file")
    p.add_argument("--roster", type=Path, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", type=Path)
    src.add_argument("--adjacency", type=Path)
    p.add_argument("--label", default="cohort")
    p.add_argument("--dedupe", action="store_true",
                   help="drop repeated nominations with a warning instead of failing")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("analyze", parents=[common],
                       help="centrality measures or community detection")
    p.add_argument("cohort", type=Path)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--measure", choices=[m.value for m in Measure])
    what.add_argument("--communities", action="store_true")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                   help="betweenness counting mode (default: directed)")
    p.add_argument("--top", type=int, default=None,
                   help="also rank the top N representatives by directed betweenness")
    p.add_argument("--k-max", type=int, dest="k_max", default=None)
    p.add_argument("--symmetrize", choices=[r.value for r in SymmetrizeRule], default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", parents=[common],
                       help="per-cluster mean marks and High/Average/Low classes")
    _add_partition_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("plan", parents=[common],
                       help="preserve/disperse assignment plan")
    _add_partition_flags(p)
    p.add_argument("--min-group", type=int, dest="min_group", default=None)
    p.add_argument("--max-group", type=int, dest="max_group", default=None)
    p.add_argument("--keep-low-subgroups", action=argparse.BooleanOptionalAction,
                   dest="keep_low_subgroups", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("report", parents=[common],
                       help="grade-distribution summaries and histograms")
    p.add_argument("cohorts", type=Path, nargs="+", metavar="cohort")
    p.add_argument("--semester", default=None)
    p.add_argument("--bins", type=int, dest="bin_width", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export", parents=[common],
                       help="write the graph as DOT or GraphML")
    p.add_argument("cohort", type=Path)
    p.add_argument("--format", choices=[f.value for f in iof.GraphFormat],
                   default=iof.GraphFormat.DOT.value)
    p.add_argument("--semester", default=None,
                   help="attach marks (node sizes) from this semester")
    p.add_argument("--partition", type=Path, default=None,
                   help="attach cluster colors from a node,cluster CSV")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("demo", parents=[common],
                       help="generate the bundled synthetic cohort")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_demo)
    return parser


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("cohort", type=Path)
    p.add_argument("--semester", default=None)
    p.add_argument("--partition", type=Path, default=None,
                   help="node,cluster CSV; computed on the fly when omitted")
    p.add_argument("--high-t", type=float, dest="high_t", default=None)
    p.add_argument("--low-t", type=float, dest="low_t", default=None)
    p.add_argument("--k-max", type=int, dest="k_max", default=None)
    p.add_argument("--symmetrize", choices=[r.value for r in SymmetrizeRule], default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags win, then the environment, then the config file, then the defaults."""
    values = load_config_file(args.config) if args.config else {}
    if os.environ.get(OUT_DIR_ENV):
        values["out_dir"] = Path(os.environ[OUT_DIR_ENV])
    values.update((key, getattr(args, key)) for key in RunConfig._fields
                  if getattr(args, key, None) is not None)
    if "symmetrize" in values:  # a flag's value is still the rule's name
        values["symmetrize"] = SymmetrizeRule(values["symmetrize"])
    return RunConfig(**values)  # type: ignore[arg-type]


def _load_cohort(path: Path) -> Cohort:
    return iof.load_cohort(path.read_bytes())


def _resolve_semester(cohort: Cohort, flag: str | None) -> str:
    if flag is not None:
        return flag
    semesters = cohort.semesters()
    if len(semesters) == 1:
        return semesters[0]
    raise UsageError(
        f"--semester is required; cohort has marks for {semesters or 'no semesters'}"
    )


def _communities(cohort: Cohort, cfg: RunConfig) -> tuple[Partition, dict[int, float]]:
    """Girvan-Newman on the configured view; the partition with the best Q."""
    from .community import best_partition, girvan_newman

    view = symmetrize(cohort.network, cfg.symmetrize)
    return best_partition(view, girvan_newman(view, stop_at_k=cfg.k_max), cfg.k_max)


def _partition_for(cohort: Cohort, args: argparse.Namespace, cfg: RunConfig) -> Partition:
    if args.partition is not None:
        p = iof.parse_partition_csv(args.partition.read_bytes())
        iof.check_coverage(cohort.network, p, None)
        return p
    return _communities(cohort, cfg)[0]


Files = dict[Path, bytes | str]


def _wrote(files: Files) -> str:
    return f"wrote {', '.join(str(p) for p in files)}\n"


def _drop_repeats(ties: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """``ingest --dedupe``: each tie once, a warning as each repeat is dropped."""
    seen: set[tuple[int, int]] = set()
    for tie in ties:
        if tie in seen:
            _log().warning("duplicate nomination (%s, %s) ignored", *tie)
        else:
            seen.add(tie)
            yield tie


def _cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    roster = iof.parse_roster(args.roster.read_bytes())
    if args.edges is not None:  # the whole file is parsed before any tie is checked
        rows = iof._edge_rows(args.edges.read_bytes())
    else:  # a matrix cell has no line of its own
        ties = iof.parse_adjacency(args.adjacency.read_bytes(), {s.id for s in roster})
        rows = [(None, tie) for tie in ties]
    line = None  # the line of the tie make_cohort is checking

    def nominations() -> Iterator[tuple[int, int]]:
        nonlocal line
        for line, tie in rows:
            yield tie

    # generators, so each warning comes out as make_cohort reaches its tie
    ties = _drop_repeats(nominations()) if args.dedupe else nominations()
    try:
        cohort = make_cohort(roster, ties, args.label)
    except DataError as exc:  # a refused tie, or the roster before any tie
        if line is None:
            raise
        raise DataError(str(exc), line=line) from None
    return (f"wrote {args.out} ({len(cohort.students)} students, "
            f"{len(cohort.network.edges)} ties)\n"), {args.out: iof.save_cohort(cohort)}


def _cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    # a flag the chosen analysis would ignore; a config file's symmetrize= and k_max=
    # are for the other commands
    if args.symmetrize is not None and not args.communities:  # each measure fixes its view
        raise UsageError("--symmetrize needs --communities: no --measure reads it")
    if args.k_max is not None and not args.communities:
        raise UsageError("--k-max needs --communities: no --measure reads it")
    if args.top is not None and args.communities:
        raise UsageError("--top needs --measure: --communities ranks no representatives")
    if args.top is not None and args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    if args.mode is not None and args.measure != Measure.BETWEENNESS.value:
        raise UsageError("--mode needs --measure betweenness: no other analysis reads it")
    cohort = _load_cohort(args.cohort)
    net = cohort.network
    out = cfg.out_dir
    if args.communities:
        best, curve = _communities(cohort, cfg)
        return (f"best partition: k={best.k}, Q={curve[best.k]:.4f} "
                f"(wrote {out / 'modularity_curve.csv'}, {out / 'partition.csv'})\n"), {
            out / "modularity_curve.csv": iof.curve_csv(curve),
            out / "partition.csv": iof.partition_csv(best),
        }

    from .centrality import betweenness, closeness, degree, eigenvector, top_k

    measure = Measure(args.measure)
    mode = Mode(args.mode or Mode.DIRECTED)
    if measure is Measure.BETWEENNESS:
        scores = betweenness(net, mode)
    elif measure is Measure.CLOSENESS:
        scores = closeness(net)
    elif measure is Measure.EIGENVECTOR:
        scores = eigenvector(net)
    else:
        scores = degree(net)
    for warning in scores.warnings:
        _log().warning("%s", warning)
    files: Files = {out / f"centrality_{measure.value}.csv": iof.scores_csv(scores)}
    if args.top is not None:
        if measure is Measure.BETWEENNESS and mode is Mode.DIRECTED:
            directed = scores.scores
        else:
            directed = betweenness(net, Mode.DIRECTED).scores
        files[out / "representatives.csv"] = iof.representatives_csv(
            top_k(directed, args.top), directed)
    return _wrote(files), files


def _cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    from .stats import cluster_performance

    cohort = _load_cohort(args.cohort)
    semester = _resolve_semester(cohort, args.semester)
    marks = cohort.marks_for(semester)
    partition = _partition_for(cohort, args, cfg)
    perfs = cluster_performance(partition, marks, cfg.high_t, cfg.low_t)
    files: Files = {cfg.out_dir / "clusters.csv": iof.clusters_csv(perfs)}
    text = "".join(f"cluster {c.cluster}: size {len(c.members)}, "
                   f"mean {c.mean_mark:.1f}, {c.perf.value}\n" for c in perfs)
    return text + _wrote(files), files


def _cmd_plan(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    from .intervention import plan_intervention, predicted_group_profile

    cohort = _load_cohort(args.cohort)
    semester = _resolve_semester(cohort, args.semester)
    marks = cohort.marks_for(semester)
    partition = _partition_for(cohort, args, cfg)
    plan = plan_intervention(cohort.network, partition, marks, cfg)
    profiles = predicted_group_profile(plan, marks)
    report = iof.plan_report(plan, profiles, semester)
    files: Files = {cfg.out_dir / "plan.csv": iof.plan_csv(plan),
                    cfg.out_dir / "plan_report.txt": report}
    return report + _wrote(files), files


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    from .stats import compare_groups, summarize

    if len(args.cohorts) > 2:
        raise UsageError("report takes one or two cohort files")
    cohorts = [_load_cohort(p) for p in args.cohorts]
    mark_lists = []
    for cohort in cohorts:
        semester = _resolve_semester(cohort, args.semester)
        marks = cohort.marks_for(semester)
        mark_lists.append([marks[v] for v in sorted(marks)])
    comparison = None
    if len(mark_lists) == 2:
        comparison = compare_groups(mark_lists[0], mark_lists[1], cfg.bin_width)
        summaries = [comparison.summary_a, comparison.summary_b]
    else:
        summaries = [summarize(mark_lists[0], cfg.bin_width)]
    out = cfg.out_dir
    files: Files = {}
    for label, summary in zip("ab", summaries):
        files[out / f"summary_{label}.csv"] = iof.summary_csv(summary)
        files[out / f"histogram_{label}.csv"] = iof.histogram_csv(summary)
    text = iof.report_text(summaries[0], "cohort a", comparison, "cohort b")
    files[out / "report.txt"] = text
    return text + _wrote(files), files


def _cmd_export(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    cohort = _load_cohort(args.cohort)
    marks = None
    if args.semester is not None:
        marks = cohort.marks_for(args.semester)
    partition = None
    if args.partition is not None:
        partition = iof.parse_partition_csv(args.partition.read_bytes())
    fmt = iof.GraphFormat(args.format)
    files: Files = {cfg.out_dir / f"graph.{fmt.value}": iof.export_graph(
        cohort.network, fmt, genders=cohort.genders(), marks=marks, partition=partition)}
    return _wrote(files), files


def _cmd_demo(args: argparse.Namespace, cfg: RunConfig) -> tuple[str, Files]:
    from .demo import DEFAULT_SEED, generate_demo_cohort

    cohort, planted = generate_demo_cohort(DEFAULT_SEED if args.seed is None else args.seed)
    out = cfg.out_dir
    files: Files = {
        out / "roster.csv": iof.export_roster(cohort.students),
        out / "edges.csv": iof.export_edges(cohort.network),
        out / "cohort.json": iof.save_cohort(cohort),
    }
    return (f"demo cohort: {len(cohort.students)} students, "
            f"{len(cohort.network.edges)} ties, {planted.k} planted communities\n"
            + _wrote(files)), files


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text, files = args.func(args, _config_from_args(args))
        for path, data in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        print(text, end="")
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AnalysisError as exc:
        print(f"analysis refused: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())
