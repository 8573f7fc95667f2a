import math

import numpy as np
import pytest

from randgsvd import matio
from randgsvd.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    emit_report,
    read_report,
    records_equal,
    run_benchmark,
    strip_timings,
)
from randgsvd.cli import config_from_args, main, parse_selector, read_config_file

FAST = dict(n=32, delta=1e-3, epsilon=1e-2, blocksize=4)


def test_records_sorted_and_complete():
    cfg = BenchConfig(problems=("shaw", "gravity"), methods=("gsvd", "rgsvd_alg3"), seeds=(1, 0), **FAST)
    records = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 2
    keys = [(r.problem, r.method, r.seed) for r in records]
    assert keys == sorted(keys)
    assert not any(r.failed for r in records)
    for r in records:
        if r.method == "gsvd":
            assert (r.l1, r.l2) == (0, 0)
        else:
            assert r.l1 >= 1 and r.l2 >= 1
        assert r.rel_error < 1.0
        assert r.wall_time_s > 0


def test_csv_round_trip_exact(tmp_path):
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd", "rgsvd_alg3"), seeds=(0, 3), **FAST)
    records = run_benchmark(cfg)
    path = tmp_path / "report.csv"
    emit_report(records, path)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    back = read_report(path)
    assert records_equal(records, back)


def test_reruns_are_deterministic_modulo_timing():
    cfg = BenchConfig(problems=("gravity",), methods=("rgsvd_alg3", "gsvd"), seeds=(0, 1), **FAST)
    first = strip_timings(run_benchmark(cfg))
    second = strip_timings(run_benchmark(cfg))
    assert records_equal(first, second)


def test_wrong_orientation_becomes_failure_row():
    # rgsvd_alg4 requires m < n; on the square instance the row fails but the
    # run carries on and the companion method still reports
    cfg = BenchConfig(problems=("shaw",), methods=("rgsvd_alg4", "gsvd"), seeds=(0,), **FAST)
    records = run_benchmark(cfg)
    by_method = {r.method: r for r in records}
    assert by_method["rgsvd_alg4"].failed
    assert by_method["rgsvd_alg4"].error == "ValueError: rgsvd_alg4 needs m < n; use rgsvd_alg3"
    assert math.isnan(by_method["rgsvd_alg4"].lam)
    assert not by_method["gsvd"].failed
    assert by_method["gsvd"].error is None


def test_problem_without_x_true_is_not_a_failure(monkeypatch):
    # real data has no x_true: rel_error is NaN, but the row succeeded
    import dataclasses

    from randgsvd import bench

    real_generate = bench.generate
    monkeypatch.setattr(
        bench, "generate", lambda spec: dataclasses.replace(real_generate(spec), x_true=None)
    )
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd", "rgsvd_alg3"), seeds=(0,), **FAST)
    for rec in run_benchmark(cfg):
        assert not rec.failed and rec.error is None
        assert math.isnan(rec.rel_error) and rec.lam > 0


def test_underdetermined_route():
    cfg = BenchConfig(problems=("gravity",), methods=("rgsvd_alg4",), seeds=(0,), m=24, **FAST)
    records = run_benchmark(cfg)
    assert len(records) == 1 and not records[0].failed
    assert records[0].rel_error < 1.0


def test_tgsvd_rejects_lcurve():
    cfg = BenchConfig(problems=("shaw",), methods=("tgsvd",), selector="lcurve", seeds=(0,), **FAST)
    records = run_benchmark(cfg)
    assert records[0].failed


def test_exact_requires_fixed_selector():
    cfg = BenchConfig(problems=("shaw",), methods=("exact",), selector="gcv", seeds=(0,), **FAST)
    assert run_benchmark(cfg)[0].failed
    fixed = BenchConfig(
        problems=("shaw",), methods=("exact",), selector="fixed", fixed_value=1e-3, seeds=(0,), **FAST
    )
    rec = run_benchmark(fixed)[0]
    assert not rec.failed and rec.lam == 1e-3


def test_tgsvd_fixed_truncation():
    cfg = BenchConfig(
        problems=("shaw",), methods=("tgsvd",), selector="fixed", fixed_value=6, seeds=(0,), **FAST
    )
    rec = run_benchmark(cfg)[0]
    assert not rec.failed
    assert rec.lam == 6.0  # the lambda column carries the truncation index


def test_dumped_solutions_recompute_rel_error(tmp_path):
    cfg = BenchConfig(
        problems=("shaw",),
        methods=("gsvd", "rgsvd_alg3"),
        seeds=(2,),
        dump_dir=str(tmp_path),
        **FAST,
    )
    records = run_benchmark(cfg)
    x_true = matio.read_vector_csv(tmp_path / "shaw" / "x_true.csv")
    for rec in records:
        x = matio.read_vector_csv(tmp_path / "shaw" / f"{rec.method}_seed{rec.seed}.csv")
        rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert rel == pytest.approx(rec.rel_error, rel=1e-10)


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "nothing.csv")


def test_read_report_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_report(path)


def test_records_equal_nan_and_mismatch():
    rec = BenchRecord("shaw", "gsvd", "gcv", float("nan"), float("nan"), 0.0, 0, 0, 1)
    assert records_equal([rec], [rec])
    other = BenchRecord("shaw", "gsvd", "gcv", 1.0, float("nan"), 0.0, 0, 0, 1)
    assert not records_equal([rec], [other])
    assert not records_equal([rec], [])


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(problems=())
    with pytest.raises(ValueError):
        BenchConfig(seeds=())
    with pytest.raises(ValueError):
        BenchConfig(methods=())
    with pytest.raises(ValueError):
        BenchConfig(methods=("newton",))
    with pytest.raises(ValueError):
        BenchConfig(selector="aic")
    with pytest.raises(ValueError):
        BenchConfig(selector="fixed")  # needs fixed_value
    with pytest.raises(ValueError):
        BenchConfig(gcv_rows="rows")


# --- CLI ----------------------------------------------------------------


def test_parse_selector():
    assert parse_selector("gcv") == ("gcv", None)
    assert parse_selector("lcurve") == ("lcurve", None)
    assert parse_selector("fixed:2.5e-3") == ("fixed", 2.5e-3)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_selector("fixed:two")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_selector("aic")


def test_config_file_and_cli_override(tmp_path):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text(
        "# smoke config\n"
        "problems = shaw, gravity\n"
        "method = gsvd\n"
        "n = 64\n"
        "delta = 1e-2\n"
        "seeds = 0 1\n"
        "selector = fixed:1e-3\n"
    )
    cfg = config_from_args(["--config", str(cfg_file)])
    assert cfg.problems == ("shaw", "gravity")
    assert cfg.methods == ("gsvd",)
    assert cfg.n == 64 and cfg.delta == 1e-2
    assert cfg.seeds == (0, 1)
    assert cfg.selector == "fixed" and cfg.fixed_value == 1e-3
    # flags beat the file
    over = config_from_args(["--config", str(cfg_file), "--n", "128", "--selector", "gcv"])
    assert over.n == 128 and over.selector == "gcv" and over.fixed_value is None
    assert over.problems == ("shaw", "gravity")


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("trials = 7\n")
    with pytest.raises(ValueError):
        config_from_args(["--config", str(cfg_file)])
    assert main(["--config", str(cfg_file)]) == 2


def test_config_file_rejects_bare_line(tmp_path):
    cfg_file = tmp_path / "bad2.cfg"
    cfg_file.write_text("just a line without equals\n")
    with pytest.raises(ValueError):
        read_config_file(cfg_file)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.csv"
    ok = main(
        ["--problems", "shaw", "--method", "gsvd", "--n", "32", "--seeds", "0", "--out", str(out)]
    )
    assert ok == 0
    assert len(read_report(out)) == 1
    assert "ok" in capsys.readouterr().out
    bad = main(["--problems", "shaw", "--method", "rgsvd_alg4", "--n", "32", "--seeds", "0"])
    assert bad == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "error=ValueError: rgsvd_alg4 needs m < n" in out
    assert main(["--selector", "huh", "--n", "32"]) == 2
