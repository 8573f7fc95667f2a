"""Command-line entry point for the benchmark harness.

Every flag can also be supplied through ``--config FILE`` where FILE holds
``key = value`` lines (``#`` starts a comment). Keys are the long flag
names without the leading dashes, e.g.::

    problems = shaw, gravity
    n = 2048
    delta = 1e-3
    selector = gcv
    out = report.csv

Command-line flags override config-file values. Exit status is 0 iff every
(problem, method, seed) combination produced a valid record.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, run_benchmark

_DEFAULTS = BenchConfig()


def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


def parse_selector(raw: str) -> tuple[str, float | None]:
    """'gcv' | 'lcurve' | 'fixed:<value>' -> (tag, fixed_value)."""
    if raw in ("gcv", "lcurve"):
        return raw, None
    if raw.startswith("fixed:"):
        try:
            return "fixed", float(raw.split(":", 1)[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad fixed selector value in {raw!r}") from exc
    raise argparse.ArgumentTypeError(
        f"selector must be gcv, lcurve, or fixed:<value>; got {raw!r}"
    )


def read_config_file(path: str) -> dict:
    """Parse the key = value config format into a string map."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, value = text.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """Raises every parse error instead of exiting, so main can report it
    and return 2: argparse's exit_on_error=False still exits on
    unrecognized arguments."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    """The flags with BenchConfig's defaults; a string default (the
    config file's values arrive as such) goes through the flag's type."""
    parser = _Parser(
        prog="randgsvd-bench",
        description="Benchmark regularized solvers on classic ill-posed test problems.",
    )
    add = parser.add_argument
    add("--config", default=None, help="key = value file mirroring the flags")
    add("--problems", type=_split_list, default=_DEFAULTS.problems,
        help="comma-separated problem names")
    add("--method", type=_split_list, default=_DEFAULTS.methods, help="comma-separated method tags")
    add("--n", type=int, default=_DEFAULTS.n, help="column dimension (grid side for tomo)")
    add("--m", type=int, default=None, help="row count; < n truncates rows")
    add("--delta", type=float, default=_DEFAULTS.delta, help="relative noise level")
    add("--epsilon", type=float, default=_DEFAULTS.epsilon, help="sketching tolerance")
    add("--blocksize", type=int, default=_DEFAULTS.blocksize, help="range-finder block width")
    add("--seeds", type=_split_list, default=_DEFAULTS.seeds, help="comma-separated integer seeds")
    add("--selector", type=parse_selector, default=_DEFAULTS.selector,
        help="gcv | lcurve | fixed:<value>")
    add("--gcv-rows", default=_DEFAULTS.gcv_rows, choices=("projected", "ambient"),
        help="row count used in the GCV denominator for sketched solves")
    add("--out", default=None, help="CSV report path")
    add("--dump-solutions", default=None, help="directory for solution vectors")
    return parser


def config_from_args(argv=None) -> BenchConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        file_cfg = read_config_file(args.config)
        flags = {dest.replace("_", "-") for dest in vars(args)} - {"config"}
        for key in file_cfg:
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
        # file values become defaults, so flags on the command line win
        parser.set_defaults(**{key.replace("-", "_"): v for key, v in file_cfg.items()})
        args = parser.parse_args(argv)

    selector, fixed_value = args.selector
    return BenchConfig(
        problems=args.problems,
        methods=args.method,
        n=args.n,
        m=args.m,
        delta=args.delta,
        epsilon=args.epsilon,
        blocksize=args.blocksize,
        seeds=args.seeds,
        selector=selector,
        fixed_value=fixed_value,
        gcv_rows=args.gcv_rows,
        output_path=args.out,
        dump_dir=args.dump_solutions,
    )


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = run_benchmark(cfg)
    failures = 0
    for rec in records:
        status = "FAIL" if rec.failed else "ok"
        failures += rec.failed
        line = (
            f"{status:4s} {rec.problem:10s} {rec.method:11s} seed={rec.seed:<4d} "
            f"lambda={rec.lam:.6g} rel_error={rec.rel_error:.6g} "
            f"time={rec.wall_time_s:.4f}s l1={rec.l1} l2={rec.l2}"
        )
        print(f"{line} error={rec.error}" if rec.failed else line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
