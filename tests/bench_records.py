"""Report-level comparisons for the benchmark tests: equality of the CSV
columns with NaN equal to NaN, records with their timing zeroed, and a
report's rows read back as text."""

import csv
import math
from dataclasses import replace

from randgsvd.bench import BenchRecord


def strip_timings(records) -> list[BenchRecord]:
    """Copy of the records with wall_time_s zeroed — the determinism
    comparisons exclude timing."""
    return [replace(r, wall_time_s=0.0) for r in records]


def report_rows(path) -> list[list[str]]:
    """The rows of a CSV report, header first, as the text fields it holds,
    less the wall_time_s column, so two runs compare field for field."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    timing = rows[0].index("wall_time_s")
    return [row[:timing] + row[timing + 1 :] for row in rows]


def records_equal(a, b) -> bool:
    """Equality of the report columns, treating NaN == NaN (for round-trip
    checks)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for fa, fb in (
            (ra.problem, rb.problem),
            (ra.method, rb.method),
            (ra.selector, rb.selector),
            (ra.l1, rb.l1),
            (ra.l2, rb.l2),
            (ra.seed, rb.seed),
        ):
            if fa != fb:
                return False
        for fa, fb in ((ra.lam, rb.lam), (ra.rel_error, rb.rel_error), (ra.wall_time_s, rb.wall_time_s)):
            same = (math.isnan(fa) and math.isnan(fb)) or fa == fb
            if not same:
                return False
    return True
