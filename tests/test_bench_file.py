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
        "  cell_per_probe 20 -> 20 (+0.0%, parent IQR 0.5); lower 2, higher 0, equal 1",
    ]
