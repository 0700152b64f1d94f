"""Command-line entry: gen-traces, run, compare, report."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import harness
from .harness import ConfigError, ExperimentConfig

OUT_DIR_ENV = "LEOSTREAM_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leostream",
        description="LEO adaptive-streaming experiments: traces, runs, comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="experiment config (JSON)")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="override seed base")
        p.add_argument("--jobs", type=int, help="parallel cell workers")

    p_gen = sub.add_parser("gen-traces", help="write per-repetition trace CSVs")
    add_common(p_gen)

    p_run = sub.add_parser("run", help="run every controller/trace/user-count cell")
    add_common(p_run)
    p_run.add_argument(
        "--controller",
        action="append",
        help="controller to run (repeatable); overrides the config list",
    )
    p_run.add_argument("--predictor", choices=("robust", "oracle"))
    p_run.add_argument("--users", type=int, help="single user count override")
    p_run.add_argument(
        "--dump-candidates",
        action="store_true",
        help="record per-candidate (satellite, h, qoe) tables",
    )

    p_cmp = sub.add_parser("compare", help="summarize result files")
    p_cmp.add_argument("results", nargs="+", type=Path)
    p_cmp.add_argument("--out", type=Path, help="output directory")

    p_rep = sub.add_parser("report", help="print a mean-QoE table from results")
    p_rep.add_argument("results", type=Path)
    return parser


def _resolve_out(args) -> Path:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("results")


def _load_experiment(args) -> ExperimentConfig:
    if args.config:
        exp = harness.load_config(args.config)
    else:
        raise ConfigError("--config PATH is required")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed_base"] = args.seed
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "controller", None):
        overrides["controllers"] = tuple(args.controller)
    if getattr(args, "predictor", None):
        overrides["predictor"] = args.predictor
    if getattr(args, "users", None) is not None:
        overrides["user_counts"] = (args.users,)
    if getattr(args, "dump_candidates", False):
        overrides["dump_candidates"] = True
    return dataclasses.replace(exp, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-traces":
            exp = _load_experiment(args)
            paths = harness.gen_traces(exp, _resolve_out(args))
            for path in paths:
                print(path)
            return EXIT_OK

        if args.command == "run":
            exp = _load_experiment(args)
            silent = [c for c in exp.controllers if c not in harness.JOINT_CONTROLLERS]
            if exp.dump_candidates and silent:
                print(
                    f"warning: no candidate rows for {', '.join(silent)}: "
                    "only joint controllers list candidates",
                    file=sys.stderr,
                )
            output = harness.run_experiment(exp)
            files = harness.write_results(_resolve_out(args), output)
            print(f"wrote {files['csv']} ({len(output.rows)} rows)")
            for key, err in sorted(output.failures.items()):
                print(f"cell failed: {key}: {err}", file=sys.stderr)
            for key, overrun in sorted(output.overruns.items()):
                print(
                    f"warning: cell {key}: the session outlasts its trace by {overrun:.3f} s; "
                    "the trace's last sample stands for the time past its end",
                    file=sys.stderr,
                )
            return output.exit_code

        if args.command == "compare":
            summary = harness.compare_results(args.results)
            path = harness.write_summary(_resolve_out(args), summary)
            print(f"wrote {path}")
            for row in summary:
                improvement = (
                    ""
                    if row.improvement_over_best_separate_pct is None
                    else f"  vs-best-separate {row.improvement_over_best_separate_pct:+.1f}%"
                )
                print(
                    f"users={row.n_users} {row.controller}: mean {row.mean_qoe:.4f} "
                    f"median {row.median_qoe:.4f}{improvement}"
                )
            return EXIT_OK

        if args.command == "report":
            rows = harness.read_result_rows(args.results)
            print(harness.format_report(rows))
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
