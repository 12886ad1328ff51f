"""Command line interface.

Subcommands:
  run                  sweep a learner over (d, n, ...) cells and write CSV/JSON
  verify-lower-bounds  build and exactly verify the non-inferability witnesses
  compare-entropy      check average-case results against entropy floors
  print-bounds         tabulate the deterministic iterative query bound
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptf-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a learner sweep")
    p_run.add_argument("--learner", required=True,
                       choices=[harness.ITERATIVE, harness.BATCH, harness.SAMPLE_SEARCH])
    p_run.add_argument("--d", type=_int_list, required=True, help="comma list of degrees")
    p_run.add_argument("--n", type=_int_list, required=True, help="comma list of sample sizes")
    p_run.add_argument("--alpha", type=_float_list, default=(),
                       help="comma list of batch exponents (batch learner)")
    p_run.add_argument("--dirichlet-alpha", type=float, default=None, metavar="A",
                       help="draw the d+1 root gaps from a symmetric Dirichlet(A), "
                       "A >= (41 + log2(d+1)) / 1075; without it the d roots are i.i.d. uniform")
    p_run.add_argument("--trials", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--random-leading", action="store_true",
                       help="flip the hidden leading sign with probability 1/2")
    p_run.add_argument("--out", default=None, help="CSV output path (JSON sidecar alongside)")
    p_run.set_defaults(usage_error=p_run.error)  # reports as "ptf-lab run: error: ..."

    sub.add_parser("verify-lower-bounds", help="verify witness constructions")

    p_cmp = sub.add_parser("compare-entropy", help="check entropy floors on result files")
    p_cmp.add_argument("results", nargs="+", help="aggregate JSON files from `run`")

    p_bounds = sub.add_parser("print-bounds", help="tabulate the iterative query bound")
    p_bounds.add_argument("--d", type=_int_list, required=True)
    p_bounds.add_argument("--n", type=_int_list, required=True)
    p_bounds.set_defaults(usage_error=p_bounds.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "run":
        try:
            config = harness.ExperimentConfig(
                learner=args.learner,
                d_values=args.d,
                n_values=args.n,
                trials=args.trials,
                master_seed=args.seed,
                alphas=args.alpha,
                dirichlet_alpha=args.dirichlet_alpha,
                random_leading=args.random_leading,
                out=args.out,
            )
        except ValueError as exc:  # an invalid configuration is a usage error
            args.usage_error(str(exc))
        try:
            harness.worker_count()
        except ValueError as exc:  # the environment, not the command line, is at fault
            print(f"ptf-lab run: error: {exc}", file=sys.stderr)
            return 2
        result = harness.run(config)
        for stats in result.cell_stats:
            print(json.dumps(stats))
        if not result.all_correct:
            print("FAIL: some trials mislabeled or errored", file=sys.stderr)
            return 1
        return 0

    if args.command == "verify-lower-bounds":
        try:
            report = harness.verify_lower_bounds()
        except Exception as exc:  # verification failures must exit nonzero
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        for entry in report:
            print(json.dumps(entry))
        return 0

    if args.command == "compare-entropy":
        try:
            report = harness.compare_entropy(args.results)
        except (OSError, ValueError) as exc:  # a missing or unreadable file, or no cell
            print(f"ptf-lab compare-entropy: error: {exc}", file=sys.stderr)
            return 2
        bad = [r for r in report if not r["ok"]]
        for entry in report:
            print(json.dumps(entry))
        if bad:
            print(f"FAIL: {len(bad)} cells below entropy floor", file=sys.stderr)
            return 1
        return 0

    if args.command == "print-bounds":
        try:
            table = harness.print_bounds(args.d, args.n)
        except ValueError as exc:  # d or n out of range is a usage error
            args.usage_error(str(exc))
        print(table)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
