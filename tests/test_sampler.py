import random

import pytest

from asymbpe.sampler import (BOUNDARIES, GRANULARITY, BinPlan, SamplerError, bin_histogram,
                             draw_sample, quotas)
from conftest import (FULL_CORPUS_BIN_COUNTS, FULL_CORPUS_PERCENTAGES,
                      FULL_CORPUS_TOTAL, QUOTAS_100K, oracle_bin, oracle_draw)


def counted_histogram(counts):
    """A histogram of published per-bin counts: each bin's members are a
    range of that many indices, which is all its counts need."""
    return BinPlan([range(c) for c in counts])


def synthetic_corpus(per_bin_counts, seed=0):
    """Parallel corpus with an exact per-bin length distribution."""
    rng = random.Random(seed)
    lowers = [1] + [b + 1 for b in BOUNDARIES]
    uppers = list(BOUNDARIES) + [lowers[-1] + 5]
    src, tgt = [], []
    for lower, upper, count in zip(lowers, uppers, per_bin_counts):
        for i in range(count):
            n = rng.randint(lower, upper)
            src.append(" ".join("w%d" % k for k in range(n)))
            tgt.append("t%d-%d" % (len(src), i))
    order = list(range(len(src)))
    rng.shuffle(order)
    return [src[i] for i in order], [tgt[i] for i in order]


def lines_of(lengths):
    return [" ".join(["w"] * n) for n in lengths]


def check_against_oracle(src, seed=0):
    """The histogram of ``src``, after checking that the draw of every line
    of it is the oracle's."""
    tgt = ["t%d" % i for i in range(len(src))]
    histogram = bin_histogram(src, tgt)
    indices = draw_sample(histogram, histogram.counts, seed)
    assert oracle_draw(src, tgt, list(BOUNDARIES), histogram.counts, seed) == (
        [src[i] for i in indices], [tgt[i] for i in indices], indices)
    return histogram


class TestBins:
    def test_default_bins(self):
        assert bin_histogram([], []).to_dict()["bins"] == [
            "0-10", "11-15", "16-20", "21-25", "26-30", "31-35", "36-40", ">=41"]

    def test_assignment(self):
        histogram = bin_histogram(lines_of([2, 35, 36, 999]), ["t"] * 4)
        assert histogram.members == [[0], [], [], [], [], [1], [2], [3]]

    def test_length_at_a_boundary_goes_to_the_lower_bin(self):
        histogram = check_against_oracle(lines_of([10, 11, 15, 16, 40, 41]))
        assert histogram.members == [[0], [1, 2], [3], [], [], [], [4], [5]]

    def test_line_of_no_tokens_goes_to_the_first_bin(self):
        histogram = check_against_oracle(["", "  ", "a b", " ".join(["w"] * 11)])
        assert histogram.members == [[0, 1, 2], [3], [], [], [], [], [], []]

    def test_first_bin_label_counts_from_0(self):
        # Two of its lines have 0 tokens, so the first bin is 0-10, not 1-10.
        histogram = bin_histogram(["", "  ", " ".join(["w"] * 11)], ["x", "y", "z"])
        assert histogram.to_dict() == {
            "bins": ["0-10", "11-15", "16-20", "21-25", "26-30", "31-35", "36-40", ">=41"],
            "counts": [2, 1, 0, 0, 0, 0, 0, 0], "total": 3,
            "percentages": [66.67, 33.33, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}


class TestBinHistogram:
    def test_three_line_corpus(self):
        src = ["a b", " ".join(["x"] * 12), " ".join(["y"] * 50)]
        plan = bin_histogram(src, ["t1", "t2", "t3"])
        assert plan.counts == [1, 1, 0, 0, 0, 0, 0, 1]
        assert plan.total == 3

    def test_empty_bin_zero_percentage(self):
        plan = bin_histogram(["a b c"], ["x"])
        assert plan.counts[1:] == [0] * 7
        assert plan.percentages[1:] == [0.0] * 7

    def test_mismatched_lines_error_names_both(self):
        with pytest.raises(SamplerError, match="2 vs 3"):
            bin_histogram(["a", "b"], ["x", "y", "z"])

    def test_full_corpus_percentages(self):
        assert counted_histogram(FULL_CORPUS_BIN_COUNTS).percentages == FULL_CORPUS_PERCENTAGES

    def test_manifest_percentages_are_the_quota_basis(self):
        # 99.975 % and 0.025 % round half to even in basis points: 9998 and 2.
        counts = [39_990, 10, 0, 0, 0, 0, 0, 0]
        assert counted_histogram(counts).to_dict()["percentages"][:2] == [99.98, 0.02]
        # 99.98 % of 30,007 is 30,000.0: the unrounded 99.975 % would be
        # 29,999.5, floored to 29,990.
        assert quotas(counts, 30_007) == [30_000, 0, 0, 0, 0, 0, 0, 0]


class TestSamplePlan:
    def test_quotas_replay_published_sample(self):
        per_bin_quota = quotas(FULL_CORPUS_BIN_COUNTS, 100_000)
        assert per_bin_quota == QUOTAS_100K
        assert sum(per_bin_quota) == 99_990

    def test_quota_26_30_derived(self):
        assert quotas(FULL_CORPUS_BIN_COUNTS, 100_000)[4] == 7550

    @pytest.mark.parametrize("target,total", [
        (500_000, 499_950), (1_000_000, 999_900), (4_000_000, 3_999_600)])
    def test_other_published_totals(self, target, total):
        assert sum(quotas(FULL_CORPUS_BIN_COUNTS, target)) == total

    def test_identity_sample(self):
        assert quotas(FULL_CORPUS_BIN_COUNTS, FULL_CORPUS_TOTAL) == FULL_CORPUS_BIN_COUNTS

    @pytest.mark.parametrize("target", [0, -5])
    def test_non_positive_target_error(self, target):
        with pytest.raises(SamplerError, match="target size must be >= 1"):
            quotas(FULL_CORPUS_BIN_COUNTS, target)

    def test_oversized_target_error(self):
        with pytest.raises(SamplerError, match="exceeds corpus size %d" % FULL_CORPUS_TOTAL):
            quotas(FULL_CORPUS_BIN_COUNTS, FULL_CORPUS_TOTAL + 1)

    def test_plan_drawing_nothing_rejected(self):
        # 5 of 30 lines at granularity 10 floors every quota to 0.
        counts = [30, 0, 0, 0, 0, 0, 0, 0]
        with pytest.raises(SamplerError, match="target size 5 .*granularity 10"):
            quotas(counts, 5)
        assert quotas(counts, 10)[0] == 10

    def test_quotas_capped_by_availability(self):
        # 1,980 of 1,000,000 is 19.8 basis points, which rounds to 20, and 20
        # basis points of 999,999 floor to 1,990 pairs: more than the bin holds.
        counts = [1_980, 998_020, 0, 0, 0, 0, 0, 0]
        assert quotas(counts, 999_999) == [1_980, 997_990, 0, 0, 0, 0, 0, 0]


def draw(src, tgt, target, seed):
    """The quotas of a ``target`` sample and the line indices it draws."""
    histogram = bin_histogram(src, tgt)
    per_bin_quota = quotas(histogram.counts, target)
    return per_bin_quota, draw_sample(histogram, per_bin_quota, seed)


class TestDrawSample:
    def test_deterministic_for_fixed_seed(self):
        src, tgt = synthetic_corpus([40, 25, 15, 10, 5, 3, 1, 1])
        histogram = bin_histogram(src, tgt)
        per_bin_quota = quotas(histogram.counts, 50)
        assert (draw_sample(histogram, per_bin_quota, 99)
                == draw_sample(histogram, per_bin_quota, 99))

    def test_full_quota_takes_whole_bin(self):
        src, tgt = synthetic_corpus([10, 0, 0, 0, 0, 0, 0, 0])
        _, indices = draw(src, tgt, 10, seed=3)
        assert sorted(indices) == list(range(len(src)))

    def test_scaled_replication_of_full_corpus_shares(self):
        # ~1/8180 scale: per-bin counts rounded from the full-corpus table.
        counts = [round(c / 8180) for c in FULL_CORPUS_BIN_COUNTS]
        src, tgt = synthetic_corpus(counts, seed=5)
        _, indices = draw(src, tgt, 100, seed=11)
        by_bin = [0] * 8
        for i in indices:
            by_bin[oracle_bin(BOUNDARIES, src[i])] += 1
        # Of 100 pairs, a bin's share is its percentage, floored to the granularity.
        for share, pct in zip(by_bin, FULL_CORPUS_PERCENTAGES):
            assert pct - GRANULARITY < share <= pct

    def test_alignment_and_uniqueness(self):
        src, tgt = synthetic_corpus([30, 20, 10, 5, 5, 3, 2, 5])
        per_bin_quota, indices = draw(src, tgt, 40, seed=21)
        assert len(set(indices)) == len(indices) == sum(per_bin_quota)
        assert oracle_draw(src, tgt, list(BOUNDARIES), per_bin_quota, 21) == (
            [src[i] for i in indices], [tgt[i] for i in indices], indices)

    def test_per_bin_counts_match_quota_exactly_no_leakage(self):
        src, tgt = synthetic_corpus([50, 30, 12, 8, 4, 3, 2, 6])
        per_bin_quota, indices = draw(src, tgt, 60, seed=4)
        got = [0] * 8
        for i in indices:
            got[oracle_bin(BOUNDARIES, src[i])] += 1
        assert got == per_bin_quota

    @pytest.mark.parametrize("seed", range(12))
    def test_indices_match_the_two_pass_draw(self, seed):
        # Random corpora and quotas: binning once in bin_histogram draws the
        # lines that binning again in the draw drew. The quotas are drawn per
        # bin, since the protocol's tens draw nothing from a bin of fewer than
        # 10 lines, and a corpus here may have no larger bin.
        rng = random.Random(seed)
        src = [" ".join("w" * rng.randint(1, 3) for _ in range(rng.randint(0, 45)))
               for _ in range(rng.randint(1, 400))]
        tgt = ["t%d" % i for i in range(len(src))]
        histogram = bin_histogram(src, tgt)
        per_bin_quota = [rng.randint(0, count) for count in histogram.counts]
        draw_seed = rng.randrange(1 << 32)
        indices = draw_sample(histogram, per_bin_quota, draw_seed)
        assert oracle_draw(src, tgt, list(BOUNDARIES), per_bin_quota, draw_seed) == (
            [src[i] for i in indices], [tgt[i] for i in indices], indices)

    def test_histogram_keeps_line_indices_out_of_the_manifest(self):
        src, tgt = synthetic_corpus([3, 2, 0, 0, 0, 0, 0, 1])
        histogram = bin_histogram(src, tgt)
        assert histogram.members == [[i for i, line in enumerate(src)
                                      if oracle_bin(BOUNDARIES, line) == b]
                                     for b in range(8)]
        assert set(histogram.to_dict()) == {"bins", "counts", "total", "percentages"}


def test_negative_seed_is_refused():
    # random.Random(-3) seeds as random.Random(3).
    src, tgt = synthetic_corpus([20, 0, 0, 0, 0, 0, 0, 0])
    histogram = bin_histogram(src, tgt)
    with pytest.raises(SamplerError, match="seed must be >= 0, got -3"):
        draw_sample(histogram, quotas(histogram.counts, 10), seed=-3)
