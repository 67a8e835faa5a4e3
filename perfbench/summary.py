"""Summary maths of the benchmark: percentiles, ratios and span analysis.

run.py feeds this module the raw per-pass document perfbench_runner
prints and the spans it writes; everything here is pure and is tested by
test_summary.py.
"""

import statistics

# Spans that frame work rather than do it: a round, a set-up. Every other
# span is a call into a layer.
FRAME_SPANS = ("round", "setup")

# A tail percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


class SummaryError(ValueError):
    """A metric cannot be reported from the samples at hand."""


class Stat:
    """A reported value with the sample count it came from or, for a
    ratio, the base it was divided by."""

    def __init__(self, value, unit, samples=None, base=None):
        self.value = value
        self.unit = unit
        self.samples = samples
        self.base = base

    def describe(self):
        if self.base is not None:
            return "base %g" % self.base
        return "n %d" % self.samples

    def __repr__(self):
        return "Stat(%r %s, %s)" % (self.value, self.unit, self.describe())


def median(values, unit):
    if not values:
        raise SummaryError("median of no samples")
    return Stat(statistics.median(values), unit, samples=len(values))


def mean(values, unit):
    if not values:
        raise SummaryError("mean of no samples")
    return Stat(statistics.fmean(values), unit, samples=len(values))


def tail_percentile(values, q, unit):
    """The q-quantile (0.5 < q < 1) by linear interpolation between
    closest ranks. Refused unless at least MIN_TAIL_SAMPLES samples lie
    beyond it."""
    n = len(values)
    position = q * (n - 1)
    low = int(position)
    beyond = n - 1 - low  # samples ranked strictly above the position
    if n == 0 or beyond < MIN_TAIL_SAMPLES:
        raise SummaryError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (q * 100, MIN_TAIL_SAMPLES, n, max(beyond, 0)))
    ordered = sorted(values)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return Stat(value, unit, samples=n)


def ratio(numerator, denominator, unit="ratio"):
    """numerator / denominator, carrying the denominator as its base."""
    if denominator <= 0:
        raise SummaryError("ratio with base %r" % (denominator,))
    return Stat(numerator / denominator, unit, base=denominator)


def union_length(intervals, clip=None):
    """Total length covered by (start, end) intervals, optionally clipped
    to the interval `clip`."""
    if clip is not None:
        lo, hi = clip
        intervals = [(max(s, lo), min(e, hi)) for s, e in intervals]
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times_us(spans):
    """Per span id: its duration minus the part its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_us"], span["end_us"]))
    result = {}
    for span in spans:
        own = (span["start_us"], span["end_us"])
        covered = union_length(children.get(span["id"], []), clip=own)
        result[span["id"]] = own[1] - own[0] - covered
    return result


def layer_self_ms(spans, selves, name, serving_only=False):
    """Self times (`selves`, from self_times_us), in ms, of every span
    called `name`; serving_only keeps the spans that belong to a round or
    request (trace != 0)."""
    return [selves[s["id"]] / 1e3 for s in spans
            if s["name"] == name and (s["trace"] != 0 or not serving_only)]


def round_coverage(spans, layer_names=None):
    """(covered, total) µs of round time that layer spans cover. A layer
    span counts wherever it overlaps a round, whichever thread or round
    it belongs to; `layer_names` restricts which layers count."""
    rounds = [(s["start_us"], s["end_us"]) for s in spans
              if s["name"] == "round"]
    layers = [(s["start_us"], s["end_us"]) for s in spans
              if s["name"] not in FRAME_SPANS
              and (layer_names is None or s["name"] in layer_names)]
    layers.sort()
    covered = total = 0.0
    for lo, hi in rounds:
        total += hi - lo
        covered += union_length(
            [i for i in layers if i[0] < hi and i[1] > lo], clip=(lo, hi))
    return covered, total


def unattributed_share(spans):
    """Share of round time that no layer span covers."""
    covered, total = round_coverage(spans)
    if total <= 0:
        raise SummaryError("no round spans")
    return ratio(total - covered, total)
