"""Stratified sampling of parallel corpora by source-sentence token length.

Sentences are binned by source-side token count; samples preserve the bin
proportions of the full corpus. Each bin's share is rounded once, to
integer basis points (half to even); quotas come from them, and a
manifest's percentages are basis points / 100. Quotas are floored to a
configurable granularity (default 10), which reproduces the slightly-short
round totals of the reference protocol (e.g. 99,990 for a 100K target).

``bin_histogram`` bins each source line once, in one pass over the two
sides that checks their line counts, and keeps every bin's line indices.
``draw_sample`` draws line indices from those bins with Python's Mersenne
Twister (``random.Random(seed)``) and ``Random.sample`` per bin, in bin
order, so the sample is reproducible given (corpus, bins, quotas, seed). A
negative seed is refused, since ``random.Random`` would seed with its
absolute value.

``bin_files`` and ``write_sample`` are the one sampling path of files, for
``asymbpe sample`` and a sweep alike: the first reads each side of the
corpus once to bin it, the second draws the sample, writes its manifest and
then each side of the sample, from one more pass over each side of the
corpus that keeps only the drawn lines. No corpus line is held: the memory
is one index per corpus line, plus the sample. The trade is that each side
is read twice, so it must be a file that reads the same twice (not a pipe).
"""

import itertools
import random
from dataclasses import dataclass, field

from .textfiles import iter_lines, write_json, write_lines

DEFAULT_BOUNDARIES = (10, 15, 20, 25, 30, 35, 40)


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class LengthBin:
    """Inclusive token-length interval; upper=None means open-ended."""

    lower: int
    upper: int | None

    @property
    def label(self) -> str:
        if self.upper is None:
            return ">=%d" % self.lower
        return "%d-%d" % (self.lower, self.upper)


def make_bins(boundaries=DEFAULT_BOUNDARIES) -> list:
    """Disjoint bins from upper boundaries, e.g. (10, 15) -> 1-10, 11-15, >=16.
    The boundaries must be a list or tuple of positive ints in strictly
    increasing order."""
    if not (isinstance(boundaries, (list, tuple))
            and all(isinstance(b, int) and not isinstance(b, bool) and b > 0 for b in boundaries)
            and all(a < b for a, b in zip(boundaries, boundaries[1:]))):
        raise SamplerError("bins must be a list of positive ints in strictly increasing "
                           "order, got %r" % (boundaries,))
    bins = []
    lower = 1
    for b in boundaries:
        bins.append(LengthBin(lower, b))
        lower = b + 1
    bins.append(LengthBin(lower, None))
    return bins


def assign_bin(bins, length: int) -> int:
    for i, b in enumerate(bins):
        if b.upper is None or length <= b.upper:
            return i
    raise SamplerError("no bin for length %d" % length)


@dataclass
class BinPlan:
    """Per-bin sentence counts of a corpus. ``members`` holds each bin's
    line indices in line order when the plan comes from ``bin_histogram``;
    it is not part of the manifest (``to_dict``)."""

    bins: list
    counts: list
    total: int
    members: list | None = field(default=None, repr=False)

    @property
    def basis_points(self) -> list:
        """Per-bin share of total in integer hundredths of a percent, rounded
        half to even: the quota basis (5.14 % of 100K is exactly 5140)."""
        if self.total == 0:
            return [0] * len(self.bins)
        return [round(10000 * c / self.total) for c in self.counts]

    @property
    def percentages(self) -> list:
        """Per-bin share of total in percent: ``basis_points / 100``."""
        return [bp / 100 for bp in self.basis_points]

    def to_dict(self) -> dict:
        return {
            "bins": [b.label for b in self.bins],
            "counts": self.counts,
            "total": self.total,
            "percentages": self.percentages,
        }


@dataclass
class SamplePlan:
    """Target per-bin draw quotas plus the RNG seed."""

    bins: list
    target_size: int
    per_bin_quota: list
    seed: int
    granularity: int = 10

    def to_dict(self) -> dict:
        return {
            "bins": [b.label for b in self.bins],
            "target_size": self.target_size,
            "per_bin_quota": self.per_bin_quota,
            "seed": self.seed,
            "granularity": self.granularity,
        }


def bin_histogram(src_lines, tgt_lines, bins=None, names=("source", "target")) -> BinPlan:
    """Bin the sentence pairs of two iterables of lines by source length, in
    one pass, keeping each bin's line indices (``BinPlan.members``). Sides of
    different line counts are refused, naming both counts and ``names``."""
    bins = list(bins) if bins is not None else make_bins()
    members = [[] for _ in bins]
    n_src = n_tgt = 0
    for line, pair in itertools.zip_longest(src_lines, tgt_lines):
        if line is not None:
            members[assign_bin(bins, len(line.split()))].append(n_src)
            n_src += 1
        if pair is not None:
            n_tgt += 1
    if n_src != n_tgt:
        raise SamplerError("%s and %s line counts differ: %d vs %d" % (*names, n_src, n_tgt))
    return BinPlan(bins, [len(m) for m in members], n_src, members)


def bin_files(src_path, tgt_path, bins) -> BinPlan:
    """``bin_histogram`` of a parallel corpus's two files, read line by line;
    a line count mismatch is refused naming both files."""
    return bin_histogram(iter_lines(src_path), iter_lines(tgt_path), bins,
                         ("source file %s" % src_path, "target file %s" % tgt_path))


def make_sample_plan(plan: BinPlan, target_size: int, seed: int,
                     granularity: int = 10) -> SamplePlan:
    """Per-bin quotas proportional to the plan's basis points.

    quota = floor(bp * target / 10000) floored to the granularity, capped at
    availability. target == total is the identity sample (quotas = counts).
    A plan whose every quota is 0 is refused, and so is a negative seed.
    """
    if seed < 0:
        raise SamplerError("seed must be >= 0, got %r" % (seed,))
    if target_size < 1:
        raise SamplerError("target size must be >= 1, got %r" % (target_size,))
    if granularity < 1:
        raise SamplerError("granularity must be >= 1, got %r" % (granularity,))
    if target_size > plan.total:
        raise SamplerError(
            "target size %d exceeds corpus size %d" % (target_size, plan.total))
    if target_size == plan.total:
        quotas = list(plan.counts)
    else:
        quotas = [min((bp * target_size // 10000) // granularity * granularity, count)
                  for bp, count in zip(plan.basis_points, plan.counts)]
        if not any(quotas):
            raise SamplerError("target size %d draws no pair at granularity %d: every bin's "
                               "quota rounds down to 0" % (target_size, granularity))
    return SamplePlan(list(plan.bins), target_size, quotas, seed, granularity)


def draw_sample(histogram: BinPlan, plan: SamplePlan) -> list:
    """The line indices of the planned sample, drawn without replacement
    from the bins of ``histogram`` (``bin_histogram``): bin order, then draw
    order; deterministic for a fixed seed."""
    if histogram.members is None or histogram.bins != plan.bins:
        raise SamplerError("the sample plan needs the bin_histogram of its own bins")
    rng = random.Random(plan.seed)
    chosen = []
    for b, quota, pool in zip(plan.bins, plan.per_bin_quota, histogram.members):
        if quota > len(pool):
            raise SamplerError(
                "bin %s: quota %d exceeds available %d" % (b.label, quota, len(pool)))
        chosen.extend(rng.sample(pool, quota))
    return chosen


def write_sample(histogram: BinPlan, plan: SamplePlan, corpus_paths, sample_paths,
                 manifest_path) -> int:
    """Draw the planned sample of the corpus files ``corpus_paths`` (source,
    target) from their ``bin_files`` histogram, write its manifest
    (``bin_plan``, ``sample_plan``, the plan's ``seed`` and the number of
    ``sampled_pairs``; the same for ``asymbpe sample`` and a sweep cell) to
    ``manifest_path``, then write line k of the draw to line k of each of
    ``sample_paths`` from one more pass over that side, which keeps only the
    drawn lines. The sample files come last, so a caller may take them to
    mean the sample is complete. Returns the number of pairs drawn."""
    indices = draw_sample(histogram, plan)
    write_json(manifest_path, {"bin_plan": histogram.to_dict(), "sample_plan": plan.to_dict(),
                               "seed": plan.seed, "sampled_pairs": len(indices)})
    slot = {index: k for k, index in enumerate(indices)}
    for corpus_path, sample_path in zip(corpus_paths, sample_paths):
        picked = [None] * len(indices)
        n = 0
        for line in iter_lines(corpus_path):
            k = slot.get(n)
            if k is not None:
                picked[k] = line
            n += 1
        if n != histogram.total:
            raise SamplerError("%s has %d lines on its second read, not %d: sampling reads "
                               "each side twice, so it needs a file that reads the same "
                               "twice, not a pipe" % (corpus_path, n, histogram.total))
        write_lines(sample_path, picked)
    return len(indices)
