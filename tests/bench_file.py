"""Assemble BENCH_<short-sha>.json, one commit's benchmark record, from the
result files perfbench/run.py writes to perfbench/out/ of that checkout:

    python3 perfbench/run.py --workload reuse --seed 410 --seconds 20 --trace 0
    ...                                       (one untraced run per seed)
    python3 perfbench/run.py --workload reuse --seed 410 --seconds 20 --trace 1
    python3 tests/bench_file.py perfbench/out [DEST_DIR]

Every result file in the directory must come from one commit; the record
is written to DEST_DIR (default: the current directory) under that
commit's first 7 hex digits. Per workload it holds the seeds and the
seconds of the untraced runs; the median, quartiles and IQR of each
end-to-end metric over them, with each run's value in seed order; their
attempted and failed counts; the BLAS threads; and the per-layer metrics
of one traced run (the lowest seed). The machine, less the commit, is
stored once and must agree across files. Runs of the parent and of a
change are measured alternately, each in its own checkout, and each
checkout's directory gives one file.

"compare PARENT.json CHANGE.json" reads two such records and prints, for
each workload with untraced runs in both and each end-to-end metric, the
two medians, the relative change of the median, the parent's IQR, and in
how many runs paired by seed the change was lower, higher or equal:

    python3 tests/bench_file.py compare BENCH_<parent>.json BENCH_<change>.json

Not collected by pytest; it reads JSON only.
"""

import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def assemble(outdir: Path) -> tuple[str, dict]:
    """(commit, record) of every result file in outdir."""
    results = [json.loads(path.read_text()) for path in sorted(outdir.glob("*-seed*-trace[01].json"))]
    if not results:
        sys.exit(f"no perfbench result files in {outdir}")
    commits = {r["machine"]["git_commit"] for r in results}
    machines = {json.dumps({k: v for k, v in r["machine"].items() if k not in ("git_commit", "blas_threads")})
                for r in results}
    if len(commits) != 1 or None in commits or len(machines) != 1:
        sys.exit(f"results in {outdir} come from more than one commit or machine: {sorted(map(str, commits))}")
    workloads = {}
    for name in sorted({r["workload"] for r in results}):
        runs = sorted((r for r in results if r["workload"] == name), key=lambda r: r["seed"])
        untraced = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"blas_threads": runs[0]["machine"]["blas_threads"]["reported"]}
        if untraced:
            metrics = untraced[0]["summary"]["metrics"]
            entry["untraced"] = {
                "seeds": [r["seed"] for r in untraced],
                "seconds": sorted({r["seconds"] for r in untraced}),
                "correct": all(r["summary"]["correct"] for r in untraced),
                "attempted": sum(r["summary"]["attempted"] for r in untraced),
                "failed": sum(r["summary"]["failed"] for r in untraced),
                "metrics": {
                    m: {"unit": metrics[m]["unit"],
                        **_quartiles([r["summary"]["metrics"][m]["value"] for r in untraced])}
                    for m in metrics
                },
            }
        if traced:
            run = traced[0]
            entry["traced"] = {
                "seed": run["seed"],
                "seconds": run["seconds"],
                "correct": run["summary"]["correct"],
                "missing": run.get("missing", []),
                "metrics": run["summary"]["metrics"],
            }
        workloads[name] = entry
    return commits.pop(), {"machine": json.loads(machines.pop()), "workloads": workloads}


def _dump(obj, level: int = 0) -> str:
    """JSON with one line per leaf: a dict holding dicts opens a block."""
    if not (isinstance(obj, dict) and any(isinstance(v, dict) for v in obj.values())):
        return json.dumps(obj)
    pad = " " * (level + 1)
    items = ",\n".join(f"{pad}{json.dumps(k)}: {_dump(v, level + 1)}" for k, v in obj.items())
    return "{\n" + items + "\n" + " " * level + "}"


def compare(parent: dict, change: dict) -> list:
    """Lines comparing the untraced end-to-end metrics of two records."""
    lines = [f"parent {parent['commit'][:7]} -> change {change['commit'][:7]}"]
    for name, old in parent["workloads"].items():
        old, new = old.get("untraced"), change["workloads"].get(name, {}).get("untraced")
        if not (old and new):
            continue
        seeds = sorted(set(old["seeds"]) & set(new["seeds"]))
        lines.append(f"{name}: {len(seeds)} seed-paired runs")
        for metric, was in old["metrics"].items():
            now = new["metrics"][metric]
            before, after = (dict(zip(rec["seeds"], m["values"])) for rec, m in ((old, was), (new, now)))
            lower = sum(after[s] < before[s] for s in seeds)
            higher = sum(after[s] > before[s] for s in seeds)
            lines.append(
                f"  {metric} {was['median']:.4g} -> {now['median']:.4g} "
                f"({now['median'] / was['median'] - 1:+.1%}, parent IQR {was['iqr']:.3g}); "
                f"lower {lower}, higher {higher}, equal {len(seeds) - lower - higher}"
            )
    return lines


def main(argv: list) -> None:
    if argv[:1] == ["compare"] and len(argv) == 3:
        parent, change = (json.loads(Path(path).read_text()) for path in argv[1:])
        print("\n".join(compare(parent, change)))
        return
    if len(argv) not in (1, 2):
        sys.exit(f"usage: {sys.argv[0]} OUTDIR [DEST_DIR] | compare PARENT.json CHANGE.json")
    commit, record = assemble(Path(argv[0]))
    dest = Path(argv[1] if len(argv) == 2 else ".") / f"BENCH_{commit[:7]}.json"
    dest.write_text(_dump({"commit": commit, **record}) + "\n")
    print(dest)


if __name__ == "__main__":
    main(sys.argv[1:])
