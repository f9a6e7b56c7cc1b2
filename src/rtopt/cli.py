"""Command-line entry point.

Verbs: ``run`` executes one configured experiment and optionally exports
its trace; ``compare`` executes a batch and prints a comparison table;
``check`` validates configs without running; ``list-problems`` shows the
catalog.  Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import RunConfig, load_config, run_config
from .errors import ConfigError, OracleError, require
from .problems import list_problems
from .reporting import export_trace, summarize

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtopt",
        description="Run model-corrected iterative optimization experiments "
        "against the simulated plant catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each override's dest is the RunConfig field it sets
    def add_overrides(p):
        p.add_argument("--seed", type=int, help="override the random seed")
        p.add_argument(
            "--max-iter", dest="max_iterations", type=int, help="override the iteration cap"
        )
        p.add_argument(
            "--tol", dest="tolerance", type=float, help="override the gradient tolerance"
        )

    p_run = sub.add_parser("run", help="execute a single configured run")
    p_run.add_argument("config", help="path to a JSON config holding one run")
    p_run.add_argument("--output", help="override the trace path (.csv or .json)")
    add_overrides(p_run)

    p_cmp = sub.add_parser("compare", help="execute a batch and print a summary table")
    p_cmp.add_argument("configs", nargs="+", help="config paths; arrays are flattened")
    p_cmp.add_argument("--output", dest="summary", help="the summary table's path (.csv)")
    add_overrides(p_cmp)

    sub.add_parser("list-problems", help="list the problem catalog")

    p_chk = sub.add_parser("check", help="validate configs without running")
    p_chk.add_argument("configs", nargs="+", help="config paths to validate")

    return parser


_OVERRIDES = ("output", "seed", "max_iterations", "tolerance")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """``cfg`` with the given flags applied; none of them names a catalog entry."""
    changes = {n: getattr(args, n) for n in _OVERRIDES if getattr(args, n, None) is not None}
    return replace(cfg, **changes)


def _load_many(paths) -> list[RunConfig]:
    return [cfg for path in paths for cfg in load_config(path)]


def _cmd_run(args) -> int:
    loaded = load_config(args.config)
    if len(loaded) != 1:
        raise ConfigError(
            f"{args.config}: 'run' takes a single config; "
            f"got {len(loaded)} (use 'compare' for batches)"
        )
    cfg = _apply_overrides(loaded[0], args)
    trace = run_config(cfg)
    print(
        f"{trace.problem_id} {trace.algorithm}: {trace.termination_status} "
        f"after {trace.iterations} iterations, "
        f"final gradient norm {trace.final_gradient_norm:.6g}, "
        f"plant evaluations {trace.plant_evaluation_count}"
    )
    for note in trace.notes:
        print(f"note: {note}")
    if cfg.output is not None:
        written = export_trace(trace, cfg.format, cfg.output)
        print(f"trace written to {written}")
    return 0


def _cmd_compare(args) -> int:
    # --output names the summary CSV here; per-run trace paths stay as configured
    require(args.summary is None or args.summary.endswith(".csv"), "output", "must end in .csv")
    configs = [_apply_overrides(c, args) for c in _load_many(args.configs)]
    traces = []
    for cfg in configs:
        trace = run_config(cfg)
        traces.append(trace)
        if cfg.output is not None:
            export_trace(trace, cfg.format, cfg.output)
    print(summarize(traces, csv_path=args.summary))
    return 0


def _cmd_check(args) -> int:
    configs = _load_many(args.configs)
    print(f"OK: {len(configs)} config(s) valid")
    return 0


def _cmd_list_problems() -> int:
    print("id  label              dimension")
    for identifier, label, dim in list_problems():
        print(f"{identifier:<3} {label:<18} {dim}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_list_problems()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OracleError, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
