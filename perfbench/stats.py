"""Statistics and naming helpers of the dmdp end-to-end benchmark.

Quartiles follow Python's ``statistics.quantiles(values, n=4)`` (the
exclusive method), so the spreads printed here are the spreads a
reader recomputes from the same values.
"""

import math
import re
import statistics

# Percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A tail percentile is only reported with at least this many samples
# beyond it; fewer and a single slow request would set it.
TAIL_MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 for a median
    of 0, which the end-to-end metrics never have)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile of TAIL_LADDER with at least `min_beyond`
    samples above it, by nearest rank. Returns (percentile, value).

    With too few samples for even the median, returns the median as
    percentile 50, so callers always get a number; the sample count is
    printed beside it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return 50.0, median(ordered)


def metric_errors(metrics):
    """Problems with a list of metric definitions ({name, unit, ...}):
    malformed or repeated names, malformed units, and a `better` that is
    neither `lower` nor `higher`. An empty list means all are valid."""
    errors = []
    seen = set()
    for m in metrics:
        name = m.get("name", "")
        if not NAME_RE.fullmatch(name):
            errors.append(f"bad metric name {name!r}")
        if name in seen:
            errors.append(f"metric {name!r} defined twice")
        seen.add(name)
        if not UNIT_RE.fullmatch(m.get("unit", "")):
            errors.append(f"{name}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            errors.append(f"{name}: `better` must be lower or higher")
    return errors
