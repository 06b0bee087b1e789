#!/usr/bin/env python3
"""Sensitivity of the selected partition to k_max and the symmetrize rule.

Runs community detection on the demo cohort for every combination and
prints the chosen (k, Q). Useful for checking that the curve has a clear
peak rather than an artifact of the cap.
"""

import argparse

from cohortnet import (
    SymmetrizeRule,
    best_partition,
    generate_demo_cohort,
    girvan_newman,
    symmetrize,
)
from cohortnet.errors import AnalysisError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k-max-values", type=int, nargs="+",
                        default=[5, 10, 15, 20, 30])
    args = parser.parse_args()

    cohort, planted = generate_demo_cohort(args.seed)
    print(f"planted communities: {planted.k}")
    for rule in SymmetrizeRule:
        view = symmetrize(cohort.network, rule)
        trace = girvan_newman(view, stop_at_k=max(args.k_max_values))
        print(f"\nrule={rule.value} ({len(view.edges)} undirected edges)")
        for k_max in args.k_max_values:
            try:
                best, curve = best_partition(view, trace, k_max)
            except AnalysisError as exc:
                print(f"  k_max={k_max:3d}  ->  refused: {exc}")
                continue
            print(f"  k_max={k_max:3d}  ->  k={best.k:3d}, Q={curve[best.k]:.4f}")


if __name__ == "__main__":
    main()
