"""Command-line entry point.

``decohist check <scenario.yaml>`` parses a scenario, runs its checks, prints
a report and exits 0 when every requested check passes, 1 when any check
fails, 2 on any error (unreadable or non-UTF-8 file, invalid scenario,
infeasible check, or anything else that goes wrong). With
``--format structured`` errors are also reported as JSON on stdout so
pipelines always get machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scenario import emit_report, parse_scenario, run_scenario, with_overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decohist",
        description="Decide decoherence of declared quantum histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the checks declared in a scenario file")
    check.add_argument("scenario", help="path to a scenario YAML file")
    check.add_argument("--tol", type=float, default=None,
                       help="override the decoherence tolerance")
    check.add_argument("--subsets", choices=["all", "singletons"], default=None,
                       help="subset policy for the measurement-based check")
    check.add_argument("--shots", type=int, default=None,
                       help="trajectories per ensemble for the protocol check")
    check.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
    check.add_argument("--alpha", type=float, default=None,
                       help="significance level for the protocol consistency test")
    check.add_argument("--budget", type=int, default=None,
                       help="override the path-pair budget")
    check.add_argument("--format", choices=["text", "structured"], default="text",
                       help="report format (default: text)")
    return parser


def _emit_error(exc: Exception, format: str) -> None:
    if format == "structured":
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"decohist: error: {type(exc).__name__}: {exc}\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            source = handle.read()
        scenario = with_overrides(
            parse_scenario(source),
            tol=args.tol,
            subsets=args.subsets,
            shots=args.shots,
            seed=args.seed,
            alpha=args.alpha,
            budget=args.budget,
        )
        report = run_scenario(scenario)
        text = emit_report(report, args.format)
    except Exception as exc:  # the exit contract: every error is exit 2
        _emit_error(exc, args.format)
        return 2
    sys.stdout.write(text)
    return 0 if all(report.verdicts()) else 1


if __name__ == "__main__":
    sys.exit(main())
