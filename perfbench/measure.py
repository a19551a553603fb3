"""Pure helpers of the benchmark: percentiles, spreads, span self time and
failure accounting.  Nothing here imports cooptrack."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q, min_beyond=MIN_TAIL_SAMPLES):
    """Nearest-rank q-th percentile of `samples`, or None when fewer than
    `min_beyond` samples lie strictly beyond its rank."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals` ((start, end)
    pairs); overlapping intervals count once."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_time(start, end, children):
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


class PassAborted(Exception):
    """An operation of a pass failed; the rest of the pass is not attempted."""


class Ledger:
    """Counts attempted and failed operations.

    An operation fails when it raises, when the program's exit code is not
    0, or when its output check reports a problem or raises (an output it
    cannot read).  A raising operation aborts its pass: the operations
    after it are not attempted.  A failed check does not abort the pass, so
    its timing sample is kept.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, label, fn, *args, check=None):
        """Run fn(*args); check(result) returns a list of problems."""
        self.attempted += 1
        try:
            result = fn(*args)
        except (Exception, SystemExit) as exc:
            self._fail(label, f"raised {exc!r}")
            raise PassAborted(label) from exc
        try:
            problems = check(result) if check is not None else []
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            self._fail(label, "; ".join(problems))
        return result

    def _fail(self, label, why):
        self.failed += 1
        self.failures.append(f"{label}: {why}")

    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
