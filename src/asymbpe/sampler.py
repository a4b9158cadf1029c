"""Stratified sampling of parallel corpora by source-sentence token length.

Sentences are binned by source-side token count; samples preserve the bin
proportions of the full corpus. Each bin's share is rounded once, to
integer basis points (half to even); quotas come from them, and a
manifest's percentages are basis points / 100. Quotas are floored to a
configurable granularity (default 10), which reproduces the slightly-short
round totals of the reference protocol (e.g. 99,990 for a 100K target).

Sampling uses Python's Mersenne Twister (``random.Random(seed)``) with
``Random.sample`` per bin, in bin order, so output is reproducible given
(corpus, bins, quotas, seed).
"""

import random
from dataclasses import dataclass

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
    """Per-bin sentence counts of a corpus."""

    bins: list
    counts: list
    total: int

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


def bin_histogram(src_lines, tgt_lines, bins=None) -> BinPlan:
    """Count sentence pairs per source-length bin."""
    bins = list(bins) if bins is not None else make_bins()
    src_lines = list(src_lines)
    tgt_lines = list(tgt_lines)
    if len(src_lines) != len(tgt_lines):
        raise SamplerError(
            "source/target line counts differ: %d vs %d" % (len(src_lines), len(tgt_lines)))
    counts = [0] * len(bins)
    for line in src_lines:
        counts[assign_bin(bins, len(line.split()))] += 1
    return BinPlan(bins, counts, len(src_lines))


def make_sample_plan(plan: BinPlan, target_size: int, seed: int,
                     granularity: int = 10) -> SamplePlan:
    """Per-bin quotas proportional to the plan's basis points.

    quota = floor(bp * target / 10000) floored to the granularity, capped at
    availability. target == total is the identity sample (quotas = counts).
    """
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
    return SamplePlan(list(plan.bins), target_size, quotas, seed, granularity)


def draw_sample(src_lines, tgt_lines, plan: SamplePlan):
    """Draw the planned sample without replacement.

    Returns (sampled_src, sampled_tgt, line_indices). Output order is bin
    order, then draw order; deterministic for a fixed seed.
    """
    src_lines = list(src_lines)
    tgt_lines = list(tgt_lines)
    if len(src_lines) != len(tgt_lines):
        raise SamplerError(
            "source/target line counts differ: %d vs %d" % (len(src_lines), len(tgt_lines)))
    members = [[] for _ in plan.bins]
    for idx, line in enumerate(src_lines):
        members[assign_bin(plan.bins, len(line.split()))].append(idx)
    rng = random.Random(plan.seed)
    chosen = []
    for b, quota, pool in zip(plan.bins, plan.per_bin_quota, members):
        if quota > len(pool):
            raise SamplerError(
                "bin %s: quota %d exceeds available %d" % (b.label, quota, len(pool)))
        chosen.extend(rng.sample(pool, quota))
    return [src_lines[i] for i in chosen], [tgt_lines[i] for i in chosen], chosen
