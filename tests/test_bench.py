import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bench_records import records_equal, report_rows, strip_timings
from randgsvd import bench
from randgsvd.bench import CSV_HEADER, BenchConfig, BenchRecord, emit_report, run_benchmark
from randgsvd.cli import config_from_args, main, parse_selector, read_config_file
from randgsvd.problems import TestProblemSpec, generate

FAST = dict(n=32, delta=1e-3, epsilon=1e-2, blocksize=4)


def test_records_sorted_and_complete():
    cfg = BenchConfig(problems=("shaw", "gravity"), methods=("gsvd", "rgsvd"), seeds=(1, 0), **FAST)
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
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd", "rgsvd"), seeds=(0, 3), **FAST)
    records = run_benchmark(cfg)
    path = tmp_path / "report.csv"
    emit_report(records, path)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == CSV_HEADER.split(",")
    # every column, wall_time_s included; repr floats parse back bit for bit
    back = [
        BenchRecord(
            problem=f["problem"],
            method=f["method"],
            selector=f["selector"],
            lam=float(f["lambda"]),
            rel_error=float(f["rel_error"]),
            wall_time_s=float(f["wall_time_s"]),
            l1=int(f["l1"]),
            l2=int(f["l2"]),
            seed=int(f["seed"]),
        )
        for f in (dict(zip(header, row)) for row in rows)
    ]
    assert records_equal(records, back)


def test_reruns_are_deterministic_modulo_timing():
    cfg = BenchConfig(problems=("gravity",), methods=("rgsvd", "gsvd"), seeds=(0, 1), **FAST)
    first = strip_timings(run_benchmark(cfg))
    second = strip_timings(run_benchmark(cfg))
    assert records_equal(first, second)


def test_failing_combination_becomes_failure_row():
    # tgsvd has no L-curve rule; its row fails but the run carries on and
    # the companion method still reports
    cfg = BenchConfig(
        problems=("shaw",), methods=("tgsvd", "rgsvd"), selector="lcurve", seeds=(0,), **FAST
    )
    records = run_benchmark(cfg)
    by_method = {r.method: r for r in records}
    assert by_method["tgsvd"].failed
    assert by_method["tgsvd"].error == "ValueError: tgsvd supports selectors 'gcv' and 'fixed' only"
    assert math.isnan(by_method["tgsvd"].lam) and math.isnan(by_method["tgsvd"].rel_error)
    assert (by_method["tgsvd"].l1, by_method["tgsvd"].l2) == (0, 0)
    assert not by_method["rgsvd"].failed
    assert by_method["rgsvd"].error is None
    assert by_method["rgsvd"].l1 >= 1 and by_method["rgsvd"].rel_error < 1.0


def test_problem_without_x_true_is_not_a_failure(monkeypatch):
    # real data has no x_true: rel_error is NaN, but the row succeeded
    import dataclasses

    real_generate = bench.generate
    monkeypatch.setattr(
        bench, "generate", lambda spec: dataclasses.replace(real_generate(spec), x_true=None)
    )
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd", "rgsvd"), seeds=(0,), **FAST)
    for rec in run_benchmark(cfg):
        assert not rec.failed and rec.error is None
        assert math.isnan(rec.rel_error) and rec.lam > 0


def test_instances_and_factors_built_once(monkeypatch):
    generated, factored, svds = [], [], []
    real_generate, real_factor, real_svd = bench.generate, bench.gsvd_full_rank, np.linalg.svd
    monkeypatch.setattr(bench, "generate", lambda spec: generated.append(spec) or real_generate(spec))
    monkeypatch.setattr(
        bench, "gsvd_full_rank", lambda pair, **kw: factored.append(pair.a.shape) or real_factor(pair, **kw)
    )
    # the core's condition estimate refuses a rank-deficient stack, so the
    # gsvd, tgsvd and rgsvd rows run no SVD at all
    monkeypatch.setattr(
        np.linalg, "svd", lambda x, *args, **kw: svds.append(x.shape) or real_svd(x, *args, **kw)
    )
    cfg = BenchConfig(
        problems=("shaw", "tomo"), methods=("gsvd", "tgsvd", "rgsvd"), seeds=(0, 1, 2), **dict(FAST, n=8)
    )
    assert not any(r.failed for r in run_benchmark(cfg))
    # one clean shaw instance, one tomography instance per seed
    assert [(s.name, s.seed) for s in generated] == [("shaw", 0), ("tomo", 0), ("tomo", 1), ("tomo", 2)]
    assert factored == [(8, 8), (4 * 8 * 15, 64)]
    assert svds == []


REFUSED = "GmpViolationError: stacked pair is numerically column rank deficient"


def test_rank_deficient_stack_is_an_error_row(monkeypatch, kahan_problem):
    monkeypatch.setattr(bench, "generate", lambda spec: kahan_problem)
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd", "tgsvd"), seeds=(0, 1), **dict(FAST, n=100))
    records = run_benchmark(cfg)
    assert len(records) == 4
    for rec in records:
        assert rec.failed and rec.error.startswith(REFUSED)


@pytest.mark.parametrize(
    # one fixed value is gsvd's lambda and tgsvd's depth, so it is whole
    "selector, fixed_value", [("fixed", 2.0), ("gcv", None)], ids=["fixed", "gcv"]
)
def test_rank_deficient_stack_above_pilot_size_is_an_error_row(
    monkeypatch, make_kahan, selector, fixed_value
):
    # at n = 600 the stack's rank is refused as at n = 100, under every
    # selector; a fixed lambda used to report a solution of norm ~1e38
    monkeypatch.setattr(bench, "generate", lambda spec: make_kahan(600, 1.42))
    cfg = BenchConfig(
        problems=("shaw",),
        methods=("gsvd", "tgsvd"),
        selector=selector,
        fixed_value=fixed_value,
        seeds=(0,),
        **dict(FAST, n=600),
    )
    records = run_benchmark(cfg)
    assert [r.method for r in records] == ["gsvd", "tgsvd"]
    for rec in records:
        assert rec.failed and rec.error.startswith(REFUSED)
        assert math.isnan(rec.lam) and math.isnan(rec.rel_error)


def test_underdetermined_route():
    cfg = BenchConfig(problems=("gravity",), methods=("rgsvd",), seeds=(0,), m=24, **FAST)
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


def test_tgsvd_fractional_truncation_fails():
    # the depth is not floored to 2: the configuration is refused before
    # any row runs, where it used to give one failed row per cell
    with pytest.raises(ValueError, match="fixed_value is a depth and must be an integer, got 2.5"):
        BenchConfig(
            problems=("shaw",), methods=("tgsvd",), selector="fixed", fixed_value=2.5, seeds=(0,), **FAST
        )
    # a whole depth given as a float runs
    cfg = BenchConfig(
        problems=("shaw",), methods=("tgsvd",), selector="fixed", fixed_value=2.0, seeds=(0,), **FAST
    )
    rec = run_benchmark(cfg)[0]
    assert not rec.failed and rec.lam == 2.0


def test_tomo_rejects_row_count():
    # a configuration error, refused before any row runs
    with pytest.raises(ValueError, match="'tomo' has a fixed row count and takes no m"):
        BenchConfig(problems=("tomo", "shaw"), methods=("gsvd",), seeds=(0,), **dict(FAST, n=8), m=4)
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd",), seeds=(0,), **dict(FAST, n=8), m=4)
    assert not run_benchmark(cfg)[0].failed


def test_dump_dir_reuse_overwrites_x_true(tmp_path):
    # a run at n = 32 into a directory left by a run at n = 16 must not
    # keep the old 16-entry x_true beside its 32-entry solutions
    for n in (16, 32):
        cfg = BenchConfig(
            problems=("shaw",), methods=("gsvd",), seeds=(0, 1), dump_dir=str(tmp_path), **dict(FAST, n=n)
        )
        run_benchmark(cfg)
        x_true = np.loadtxt(tmp_path / "shaw" / "x_true_seed1.csv")
        assert_array_equal(x_true, generate(TestProblemSpec(name="shaw", n=n)).x_true)
        assert np.loadtxt(tmp_path / "shaw" / "gsvd_seed1.csv").shape == (n,)


@pytest.mark.parametrize("name, n", [("shaw", 32), ("tomo", 8)], ids=["shaw", "tomo"])
def test_dumped_solutions_recompute_rel_error(tmp_path, name, n):
    # tomography's phantom is seeded, so each seed dumps its own x_true
    cfg = BenchConfig(
        problems=(name,),
        methods=("gsvd", "rgsvd"),
        seeds=(0, 1),
        dump_dir=str(tmp_path),
        **dict(FAST, n=n),
    )
    records = run_benchmark(cfg)
    for rec in records:
        x_true = np.loadtxt(tmp_path / name / f"x_true_seed{rec.seed}.csv")
        # one repr float per line parses back bit for bit
        spec = TestProblemSpec(name=name, n=n, delta=FAST["delta"], seed=rec.seed)
        assert_array_equal(x_true, generate(spec).x_true)
        x = np.loadtxt(tmp_path / name / f"{rec.method}_seed{rec.seed}.csv")
        rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert rel == pytest.approx(rec.rel_error, rel=1e-10)


def test_dump_write_error_is_not_a_failed_cell(monkeypatch, tmp_path):
    # factor, select and solve succeeded; a write that fails afterwards
    # stops the run instead of booking the cell as a NaN row
    def refuse(*args):
        raise PermissionError("read-only dump directory")

    monkeypatch.setattr(bench, "_dump_solution", refuse)
    cfg = BenchConfig(problems=("shaw",), methods=("gsvd",), seeds=(0,), dump_dir=str(tmp_path), **FAST)
    with pytest.raises(PermissionError, match="read-only dump directory"):
        run_benchmark(cfg)


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "nothing.csv")


def test_records_equal_nan_and_mismatch():
    rec = BenchRecord("shaw", "gsvd", "gcv", float("nan"), float("nan"), 0.0, 0, 0, 1)
    assert records_equal([rec], [rec])
    other = BenchRecord("shaw", "gsvd", "gcv", 1.0, float("nan"), 0.0, 0, 0, 1)
    assert not records_equal([rec], [other])
    assert not records_equal([rec], [])


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(problems=())
    with pytest.raises(ValueError, match="unknown problem 'shawx'"):
        BenchConfig(problems=("shaw", "shawx"))
    with pytest.raises(ValueError):
        BenchConfig(seeds=())
    with pytest.raises(ValueError, match="seeds must be at least 0"):
        BenchConfig(seeds=(0, -1))
    with pytest.raises(ValueError):
        BenchConfig(methods=())
    with pytest.raises(ValueError):
        BenchConfig(methods=("newton",))
    # one sketched tag serves both orientations; the old ones are gone
    for tag in ("rgsvd_alg3", "rgsvd_alg4"):
        with pytest.raises(ValueError, match="unknown method"):
            BenchConfig(methods=(tag,))
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
    # a key the parser knows, with a value its flag's type rejects
    cfg_file.write_text("n = abc\n")
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
    assert len(report_rows(out)) == 1 + 1  # header and the one row
    assert "ok" in capsys.readouterr().out
    bad = main(
        ["--problems", "shaw", "--method", "tgsvd", "--selector", "lcurve", "--n", "32", "--seeds", "0"]
    )
    assert bad == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "error=ValueError: tgsvd supports selectors" in out
    assert main(["--method", "rgsvd_alg3", "--n", "32"]) == 2
    assert "unknown method 'rgsvd_alg3'" in capsys.readouterr().err
    # an unknown problem is a configuration error, refused before any row runs
    assert main(["--problems", "shawx", "--n", "32"]) == 2
    captured = capsys.readouterr()
    assert "unknown problem 'shawx'" in captured.err and captured.out == ""
    assert main(["--selector", "huh", "--n", "32"]) == 2
    capsys.readouterr()
    assert main(["--seeds=-1", "--n", "32"]) == 2
    assert "seeds must be at least 0" in capsys.readouterr().err
    assert main(["--bogus"]) == 2
    assert "error: unrecognized arguments: --bogus" in capsys.readouterr().err
    # settings no row could run are configuration errors too: each problem's
    # and the sampler's own checks run before any row
    bad_settings = {
        "--n=4": "n must be at least 8",
        "--delta=-1": "delta must be nonnegative and finite",
        "--delta=nan": "delta must be nonnegative and finite",
        "--epsilon=0": "epsilon must be positive",
        "--blocksize=0": "blocksize must be at least 1",
        "--epsilon=inf": "epsilon must be positive and finite",
        "--selector=fixed:nan": "fixed_value must be positive and finite, got nan",
        "--selector=fixed:0": "fixed_value must be positive and finite, got 0.0",
    }
    for flag, msg in bad_settings.items():
        assert main(["--problems", "shaw", "--method", "rgsvd", "--seeds", "0", "--n", "32", flag]) == 2
        captured = capsys.readouterr()
        assert msg in captured.err and captured.out == ""
    # a tgsvd depth must be whole, and a problem size one its generator builds
    for args, msg in [
        (["--method", "tgsvd", "--selector", "fixed:2.5"], "must be an integer"),
        (["--problems", "phillips", "--n", "10"], "phillips requires n divisible by 4"),
        (["--problems", "tomo", "--n", "1"], "n must be at least 2, got 1"),
    ]:
        assert main(["--problems", "shaw", "--n", "32", "--seeds", "0", *args]) == 2
        captured = capsys.readouterr()
        assert msg in captured.err and captured.out == ""
    assert main(["--problems", "shaw", "--method", "tgsvd", "--selector", "fixed:3.0", "--n", "32"]) == 0
    capsys.readouterr()
    # the sampler is checked only where a row sketches
    assert main(["--problems", "shaw", "--method", "gsvd", "--seeds", "0", "--n", "32", "--epsilon=0"]) == 0
    capsys.readouterr()


def test_output_locations_are_prepared_before_any_row(tmp_path, capsys):
    args = ["--problems", "shaw", "--method", "gsvd", "--n", "32", "--seeds", "0"]
    # a report into a directory that does not exist yet: created, where the
    # grid used to run and then end in a FileNotFoundError
    out = tmp_path / "nodir" / "r.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert len(report_rows(out)) == 1 + 1
    capsys.readouterr()
    # a location that cannot be created is a configuration error; a dump
    # directory that is a file used to fail every row with NotADirectoryError
    blocker = tmp_path / "file"
    blocker.write_text("")
    for flag in ("--out", "--dump-solutions"):
        assert main([*args, flag, str(blocker / "r.csv" if flag == "--out" else blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
    # the flag parses seeds to integers, so a fractional one is refused
    assert main([*args, "--seeds", "1.5"]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert config_from_args(["--seeds", "2, 0"]).seeds == (2, 0)


def test_report_path_that_is_a_directory_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    # refused before any instance is built: a grid that ran in full could
    # not write its report there
    built = []
    monkeypatch.setattr(bench, "generate", built.append)
    args = ["--problems", "shaw", "--method", "gsvd", "--n", "16", "--seeds", "0", "--out", str(tmp_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: report path {tmp_path} is a directory\n" and captured.out == ""
    with pytest.raises(IsADirectoryError, match="is a directory"):
        run_benchmark(config_from_args(args))
    assert built == []
