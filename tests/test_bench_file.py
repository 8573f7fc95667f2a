"""bench_file.py's compare mode on hand-written records."""

import json

import bench_file


def _record(commit, seeds, values, iqr=0.5):
    metric = {"unit": "1", "median": sorted(values)[len(values) // 2], "iqr": iqr, "values": values}
    return {
        "commit": commit,
        "workloads": {
            "dense": {"untraced": {"seeds": seeds, "metrics": {"cell_per_probe": metric}}},
            # traced only: nothing to compare
            "tomo": {"traced": {"seed": 0, "metrics": {}}},
        },
    }


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    parent = _record("a" * 40, [1, 2, 3], [10.0, 20.0, 30.0])
    # listed in another seed order, with one seed the parent lacks
    change = _record("b" * 40, [3, 2, 1, 4], [20.0, 20.0, 9.0, 1.0])
    paths = []
    for name, record in (("p", parent), ("c", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    bench_file.main(["compare", *map(str, paths)])
    assert capsys.readouterr().out.splitlines() == [
        "parent aaaaaaa -> change bbbbbbb",
        "dense: 3 seed-paired runs",
        "  cell_per_probe 20 -> 20 (+0.0%, parent IQR 0.5); lower 2, higher 0, equal 1: within the 25% bound",
    ]


def _untraced(seeds, values, iqr):
    metric = {"unit": "MB", "median": sorted(values)[len(values) // 2], "iqr": iqr, "values": values}
    return {"untraced": {"seeds": seeds, "metrics": {"peak_rss_mb": metric}}}


def test_compare_verdicts_follow_pairs_iqr_and_bound():
    seeds = list(range(10))
    before = [100.0 + s for s in seeds]
    parent = {"commit": "a" * 40, "workloads": {
        name: _untraced(seeds, before, iqr=4.5) for name in ("shown", "pairs", "iqr", "worse", "few")
    }}
    lower = [v - 6 for v in before]
    change = {"commit": "b" * 40, "workloads": {
        # lower in 9 of 10 pairs, medians 6 apart against an IQR of 4.5
        "shown": _untraced(seeds, lower[:9] + [before[9]], iqr=4.5),
        # lower in 8 of 10
        "pairs": _untraced(seeds, lower[:8] + before[8:], iqr=4.5),
        # lower in all 10, but by less than the parent's IQR
        "iqr": _untraced(seeds, [v - 4 for v in before], iqr=4.5),
        # 12 % higher, past the 10 % bound
        "worse": _untraced(seeds, [v * 1.12 for v in before], iqr=4.5),
        # lower in all of 5 pairs: too few to show a gain
        "few": _untraced(seeds[:5], lower[:5], iqr=4.5),
    }}
    specs = {"peak_rss_mb": {"better": "lower", "bound": 0.1}}
    verdicts = [line.rsplit(": ", 1)[1] for line in bench_file.compare(parent, change, specs) if "peak" in line]
    assert verdicts == [
        "gain shown",
        "within the 10% bound",
        "within the 10% bound",
        "worse, past the 10% bound",
        "within the 10% bound",
    ]
    # where higher is better, the 12 % rise is a gain
    specs = {"peak_rss_mb": {"better": "higher", "bound": 0.1}}
    only = {name: {**rec, "workloads": {"worse": rec["workloads"]["worse"]}} for name, rec in
            (("parent", parent), ("change", change))}
    assert bench_file.compare(only["parent"], only["change"], specs)[-1].endswith(": gain shown")


def test_compare_reads_a_spread_past_the_bound_as_unresolved():
    # the parent's IQR, 15, is wider than 10 % of its median, 115
    seeds = list(range(10))
    before = [100.0 + 3 * s for s in seeds]
    names = ("spread", "apart", "worse")
    parent = {"commit": "a" * 40, "workloads": {name: _untraced(seeds, before, iqr=15.0) for name in names}}
    change = {"commit": "b" * 40, "workloads": {
        # 2 % lower in every pair, inside the parent's spread
        "spread": _untraced(seeds, [v * 0.98 for v in before], iqr=15.0),
        # 5 pairs, each change run below every parent run
        "apart": _untraced(seeds[:5], [v - 15 for v in before[:5]], iqr=6.0),
        # 20 % higher: worse whatever the spread
        "worse": _untraced(seeds, [v * 1.2 for v in before], iqr=18.0),
    }}
    specs = {"peak_rss_mb": {"better": "lower", "bound": 0.1}}
    verdicts = [line.rsplit(": ", 1)[1] for line in bench_file.compare(parent, change, specs) if "peak" in line]
    assert verdicts == [
        "unresolved, parent IQR past the 10% bound",
        "within the 10% bound",
        "worse, past the 10% bound",
    ]
