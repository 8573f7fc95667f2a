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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randgsvd-bench",
        description="Benchmark regularized solvers on classic ill-posed test problems.",
    )
    parser.add_argument("--config", default=None, help="key = value file mirroring the flags")
    parser.add_argument("--problems", default=None, help="comma-separated problem names")
    parser.add_argument("--method", default=None, help="comma-separated method tags")
    parser.add_argument("--n", type=int, default=None, help="column dimension (grid side for tomo)")
    parser.add_argument("--m", type=int, default=None, help="row count; < n truncates rows")
    parser.add_argument("--delta", type=float, default=None, help="relative noise level")
    parser.add_argument("--epsilon", type=float, default=None, help="sketching tolerance")
    parser.add_argument("--blocksize", type=int, default=None, help="range-finder block width")
    parser.add_argument("--seeds", default=None, help="comma-separated integer seeds")
    parser.add_argument("--selector", default=None, help="gcv | lcurve | fixed:<value>")
    parser.add_argument(
        "--gcv-rows",
        default=None,
        choices=("projected", "ambient"),
        help="row count used in the GCV denominator for sketched solves",
    )
    parser.add_argument("--out", default=None, help="CSV report path")
    parser.add_argument("--dump-solutions", default=None, help="directory for solution vectors")
    return parser


def _merged(args, file_cfg: dict, key: str, cli_value):
    if cli_value is not None:
        return cli_value
    return file_cfg.get(key)


def config_from_args(argv=None) -> BenchConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in (
            "problems",
            "method",
            "n",
            "m",
            "delta",
            "epsilon",
            "blocksize",
            "seeds",
            "selector",
            "gcv-rows",
            "out",
            "dump-solutions",
        ):
            raise ValueError(f"unknown config key {key!r}")

    problems = _merged(args, file_cfg, "problems", args.problems)
    methods = _merged(args, file_cfg, "method", args.method)
    n = _merged(args, file_cfg, "n", args.n)
    m = _merged(args, file_cfg, "m", args.m)
    delta = _merged(args, file_cfg, "delta", args.delta)
    epsilon = _merged(args, file_cfg, "epsilon", args.epsilon)
    blocksize = _merged(args, file_cfg, "blocksize", args.blocksize)
    seeds = _merged(args, file_cfg, "seeds", args.seeds)
    selector_raw = _merged(args, file_cfg, "selector", args.selector)
    gcv_rows = _merged(args, file_cfg, "gcv-rows", args.gcv_rows)
    out = _merged(args, file_cfg, "out", args.out)
    dump = _merged(args, file_cfg, "dump-solutions", args.dump_solutions)

    selector, fixed_value = (
        parse_selector(str(selector_raw)) if selector_raw is not None else (_DEFAULTS.selector, None)
    )
    return BenchConfig(
        problems=tuple(_split_list(problems)) if problems is not None else _DEFAULTS.problems,
        methods=tuple(_split_list(methods)) if methods is not None else _DEFAULTS.methods,
        n=int(n) if n is not None else _DEFAULTS.n,
        m=int(m) if m is not None else None,
        delta=float(delta) if delta is not None else _DEFAULTS.delta,
        epsilon=float(epsilon) if epsilon is not None else _DEFAULTS.epsilon,
        blocksize=int(blocksize) if blocksize is not None else _DEFAULTS.blocksize,
        seeds=tuple(int(s) for s in _split_list(seeds)) if seeds is not None else _DEFAULTS.seeds,
        selector=selector,
        fixed_value=fixed_value,
        gcv_rows=str(gcv_rows) if gcv_rows is not None else _DEFAULTS.gcv_rows,
        output_path=str(out) if out is not None else None,
        dump_dir=str(dump) if dump is not None else None,
    )


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
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
