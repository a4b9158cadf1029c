"""Stratified sampling of parallel corpora by source-sentence token length.

Sentences are binned by source-side token count; samples preserve the bin
proportions of the full corpus. The bins are those of the reference
protocol, given by their upper boundaries (``BOUNDARIES``): 0-10, 11-15,
..., 36-40 and >=41, the first holding the lines of 0 tokens too. Each
bin's share is rounded once, to integer basis points (half to even);
``quotas`` come from them, and a manifest's percentages are basis points /
100. Quotas are floored to a multiple of ``GRANULARITY`` (10), which
reproduces the slightly-short round totals of the reference protocol (e.g.
99,990 for a 100K target). Neither is a setting: there is one protocol.

``bin_histogram`` bins each source line once, in one pass over the two
sides that checks their line counts, and keeps every bin's line indices.
``draw_sample`` draws line indices from those bins with Python's Mersenne
Twister (``random.Random(seed)``) and ``Random.sample`` per bin, in bin
order, so the sample is reproducible given (corpus, quotas, seed). A
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

import bisect
import itertools
import random
from dataclasses import dataclass, field

from .textfiles import iter_lines, write_json, write_lines

BOUNDARIES = (10, 15, 20, 25, 30, 35, 40)
GRANULARITY = 10


class SamplerError(ValueError):
    pass


def _labels() -> list:
    lowers = [0] + [b + 1 for b in BOUNDARIES]
    return ["%d-%d" % pair for pair in zip(lowers, BOUNDARIES)] + [">=%d" % lowers[-1]]


def _basis_points(counts) -> list:
    """Each count's share of their total in integer hundredths of a percent,
    rounded half to even: the quota basis (5.14 % of 100K is exactly 5140)."""
    total = sum(counts)
    return [round(10000 * c / total) if total else 0 for c in counts]


@dataclass
class BinPlan:
    """A corpus binned by ``bin_histogram``: each bin's line indices in line
    order. The indices are not part of the manifest (``to_dict``)."""

    members: list = field(repr=False)

    @property
    def counts(self) -> list:
        return [len(m) for m in self.members]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def percentages(self) -> list:
        return [bp / 100 for bp in _basis_points(self.counts)]

    def to_dict(self) -> dict:
        return {
            "bins": _labels(),
            "counts": self.counts,
            "total": self.total,
            "percentages": self.percentages,
        }


def bin_histogram(src_lines, tgt_lines, names=("source", "target")) -> BinPlan:
    """Bin the sentence pairs of two iterables of lines by source length, in
    one pass, keeping each bin's line indices (``BinPlan.members``). Sides of
    different line counts are refused, naming both counts and ``names``."""
    members = [[] for _ in range(len(BOUNDARIES) + 1)]
    n_src = n_tgt = 0
    for line, pair in itertools.zip_longest(src_lines, tgt_lines):
        if line is not None:
            members[bisect.bisect_left(BOUNDARIES, len(line.split()))].append(n_src)
            n_src += 1
        if pair is not None:
            n_tgt += 1
    if n_src != n_tgt:
        raise SamplerError("%s and %s line counts differ: %d vs %d" % (*names, n_src, n_tgt))
    return BinPlan(members)


def bin_files(src_path, tgt_path) -> BinPlan:
    """``bin_histogram`` of a parallel corpus's two files, read line by line;
    a line count mismatch is refused naming both files."""
    return bin_histogram(iter_lines(src_path), iter_lines(tgt_path),
                         ("source file %s" % src_path, "target file %s" % tgt_path))


def quotas(counts, target_size: int) -> list:
    """Per-bin quotas of a ``target_size`` sample of bins of ``counts`` pairs,
    proportional to their basis points.

    quota = floor(bp * target / 10000) floored to ``GRANULARITY``, capped at
    the bin's count. target == total is the identity sample (quotas =
    counts). Quotas that are all 0 are refused.
    """
    total = sum(counts)
    if target_size < 1:
        raise SamplerError("target size must be >= 1, got %r" % (target_size,))
    if target_size > total:
        raise SamplerError("target size %d exceeds corpus size %d" % (target_size, total))
    if target_size == total:
        return list(counts)
    per_bin = [min((bp * target_size // 10000) // GRANULARITY * GRANULARITY, count)
               for bp, count in zip(_basis_points(counts), counts)]
    if not any(per_bin):
        raise SamplerError("target size %d draws no pair at granularity %d: every bin's "
                           "quota rounds down to 0" % (target_size, GRANULARITY))
    return per_bin


def draw_sample(histogram: BinPlan, per_bin_quota, seed: int) -> list:
    """The line indices of a sample of ``per_bin_quota`` (``quotas``) pairs,
    drawn without replacement from the bins of ``histogram``
    (``bin_histogram``): bin order, then draw order; deterministic for a
    fixed seed."""
    if seed < 0:
        raise SamplerError("seed must be >= 0, got %r" % (seed,))
    rng = random.Random(seed)
    chosen = []
    for quota, pool in zip(per_bin_quota, histogram.members):
        chosen.extend(rng.sample(pool, quota))
    return chosen


def write_sample(histogram: BinPlan, target_size: int, seed: int, corpus_paths,
                 sample_paths, manifest_path) -> int:
    """Draw a ``target_size`` sample of the corpus files ``corpus_paths``
    (source, target) from their ``bin_files`` histogram, write its manifest
    (``bin_plan``, ``sample_plan``, the ``seed`` and the number of
    ``sampled_pairs``; the same for ``asymbpe sample`` and a sweep cell) to
    ``manifest_path``, then write line k of the draw to line k of each of
    ``sample_paths`` from one more pass over that side, which keeps only the
    drawn lines. The sample files come last, so a caller may take them to
    mean the sample is complete. Returns the number of pairs drawn."""
    per_bin_quota = quotas(histogram.counts, target_size)
    indices = draw_sample(histogram, per_bin_quota, seed)
    write_json(manifest_path, {
        "bin_plan": histogram.to_dict(),
        "sample_plan": {"bins": _labels(), "target_size": target_size,
                        "per_bin_quota": per_bin_quota, "seed": seed,
                        "granularity": GRANULARITY},
        "seed": seed, "sampled_pairs": len(indices)})
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
