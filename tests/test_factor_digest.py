"""factor_digest.py's compare mode on hand-written digest files."""

import factor_digest

DIGEST = """\
a/s0 factors 0f {factor}
a/s0 lambdas {gcv} 0x1.0000000000000p+0 3 0x1.0p-3 0x1.0p-3
b/s0 lambdas 0x1.0000000000000p-20 {lcurve} {depth} 0x1.0p-3 None
"""


def _write(path, mode, threads, gcv=1.0, factor="1f", lcurve=None, depth=10):
    lcurve = "None" if lcurve is None else lcurve.hex()
    text = DIGEST.format(factor=factor, gcv=gcv.hex(), lcurve=lcurve, depth=depth)
    (path / f"{mode}-{threads}.txt").write_text(text)


def test_compare_flags_moves_past_the_refine_width(tmp_path, capsys):
    for mode in factor_digest.AT_TWO_THREADS:
        _write(tmp_path, mode, 1)
    # within the refine width: no move
    _write(tmp_path, "kernels", 2, gcv=1.0 + 5e-4)
    # a 2x move, other factors, and depth 10 -> 11, read as decimal
    _write(tmp_path, "under", 2, gcv=2.0, factor="2f", depth=11)
    # a 100x move and an L-curve pick found at 2 threads only
    _write(tmp_path, "dense", 2, gcv=100.0, lcurve=3.0)
    factor_digest.compare(str(tmp_path))
    assert capsys.readouterr().out.splitlines() == [
        "kernels: 2 selections, 0 of 1 factors lines differ; "
        "moves (>10x, gone or new): gcv 0 (0), lcurve 0 (0), depth 0 (0)",
        "under a/s0 gcv 1.0 -> 2.0 moved",
        "under b/s0 depth 10 -> 11 moved",
        "under: 2 selections, 1 of 1 factors lines differ; "
        "moves (>10x, gone or new): gcv 1 (0), lcurve 0 (0), depth 1 (0)",
        "dense a/s0 gcv 1.0 -> 100.0 >10x",
        "dense b/s0 lcurve None -> 3.0 new",
        "dense: 2 selections, 0 of 1 factors lines differ; "
        "moves (>10x, gone or new): gcv 1 (1), lcurve 1 (1), depth 0 (0)",
    ]
