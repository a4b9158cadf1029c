import random

import pytest

from asymbpe.sampler import (BinPlan, SamplerError, assign_bin, bin_histogram,
                             draw_sample, make_bins, make_sample_plan)
from conftest import (FULL_CORPUS_BIN_COUNTS, FULL_CORPUS_PERCENTAGES,
                      FULL_CORPUS_TOTAL, QUOTAS_100K)


def full_corpus_plan():
    return BinPlan(make_bins(), list(FULL_CORPUS_BIN_COUNTS), FULL_CORPUS_TOTAL)


def synthetic_corpus(per_bin_counts, seed=0):
    """Parallel corpus with an exact per-bin length distribution."""
    rng = random.Random(seed)
    bins = make_bins()
    src, tgt = [], []
    for b, count in zip(bins, per_bin_counts):
        hi = b.upper if b.upper is not None else b.lower + 5
        for i in range(count):
            n = rng.randint(b.lower, hi)
            src.append(" ".join("w%d" % k for k in range(n)))
            tgt.append("t%d-%d" % (len(src), i))
    order = list(range(len(src)))
    rng.shuffle(order)
    return [src[i] for i in order], [tgt[i] for i in order]


class TestBins:
    def test_default_bins(self):
        labels = [b.label for b in make_bins()]
        assert labels == ["1-10", "11-15", "16-20", "21-25", "26-30",
                          "31-35", "36-40", ">=41"]

    def test_assignment(self):
        bins = make_bins()
        assert assign_bin(bins, 2) == 0
        assert assign_bin(bins, 35) == 5
        assert assign_bin(bins, 36) == 6
        assert assign_bin(bins, 999) == 7


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
        plan = full_corpus_plan()
        assert plan.percentages == FULL_CORPUS_PERCENTAGES

    def test_manifest_percentages_are_the_quota_basis(self):
        # 99.975 % and 0.025 % round half to even in basis points: 9998 and 2.
        plan = BinPlan(make_bins((10,)), [3999, 1], 4000)
        assert plan.basis_points == [9998, 2]
        assert plan.to_dict()["percentages"] == [99.98, 0.02]
        sample = make_sample_plan(plan, 3000, seed=0, granularity=1)
        assert sample.per_bin_quota == [2999, 0]


class TestSamplePlan:
    def test_quotas_replay_published_sample(self):
        plan = make_sample_plan(full_corpus_plan(), 100_000, seed=7)
        assert plan.per_bin_quota == QUOTAS_100K
        assert sum(plan.per_bin_quota) == 99_990

    def test_quota_26_30_derived(self):
        plan = make_sample_plan(full_corpus_plan(), 100_000, seed=7)
        assert plan.per_bin_quota[4] == 7550

    @pytest.mark.parametrize("target,total", [
        (500_000, 499_950), (1_000_000, 999_900), (4_000_000, 3_999_600)])
    def test_other_published_totals(self, target, total):
        plan = make_sample_plan(full_corpus_plan(), target, seed=7)
        assert sum(plan.per_bin_quota) == total

    def test_identity_sample(self):
        plan = make_sample_plan(full_corpus_plan(), FULL_CORPUS_TOTAL, seed=7)
        assert plan.per_bin_quota == FULL_CORPUS_BIN_COUNTS

    @pytest.mark.parametrize("target", [0, -5])
    def test_non_positive_target_error(self, target):
        with pytest.raises(SamplerError, match="target size must be >= 1"):
            make_sample_plan(full_corpus_plan(), target, seed=7)

    @pytest.mark.parametrize("granularity", [0, -5])
    def test_granularity_below_one_error(self, granularity):
        # It used to be treated as 1 while the manifest recorded the raw value.
        with pytest.raises(SamplerError, match="granularity must be >= 1"):
            make_sample_plan(full_corpus_plan(), 100_000, seed=7, granularity=granularity)

    def test_oversized_target_error(self):
        with pytest.raises(SamplerError):
            make_sample_plan(full_corpus_plan(), FULL_CORPUS_TOTAL + 1, seed=7)

    def test_plan_drawing_nothing_rejected(self):
        # 5 of 30 lines at granularity 10 floors every quota to 0.
        plan = BinPlan(make_bins(), [30, 0, 0, 0, 0, 0, 0, 0], 30)
        with pytest.raises(SamplerError, match="target size 5 .*granularity 10"):
            make_sample_plan(plan, 5, seed=1)
        assert make_sample_plan(plan, 5, seed=1, granularity=1).per_bin_quota[0] == 5

    def test_quotas_capped_by_availability(self):
        plan = BinPlan(make_bins(), [3, 0, 0, 0, 0, 0, 0, 997], 1000)
        sample = make_sample_plan(plan, 900, seed=1, granularity=1)
        assert sample.per_bin_quota[0] <= 3


class TestDrawSample:
    def test_deterministic_for_fixed_seed(self):
        src, tgt = synthetic_corpus([40, 25, 15, 10, 5, 3, 1, 1])
        plan = make_sample_plan(bin_histogram(src, tgt), 50, seed=99, granularity=1)
        a = draw_sample(src, tgt, plan)
        b = draw_sample(src, tgt, plan)
        assert a == b

    def test_full_quota_takes_whole_bin(self):
        src, tgt = synthetic_corpus([10, 0, 0, 0, 0, 0, 0, 0])
        plan = make_sample_plan(bin_histogram(src, tgt), 10, seed=3)
        sampled_src, _, _ = draw_sample(src, tgt, plan)
        assert sorted(sampled_src) == sorted(src)

    def test_scaled_replication_of_full_corpus_shares(self):
        # ~1/8180 scale: per-bin counts rounded from the full-corpus table.
        counts = [round(c / 8180) for c in FULL_CORPUS_BIN_COUNTS]
        src, tgt = synthetic_corpus(counts, seed=5)
        plan = make_sample_plan(bin_histogram(src, tgt), 100, seed=11, granularity=1)
        sampled_src, _, _ = draw_sample(src, tgt, plan)
        by_bin = [0] * 8
        bins = make_bins()
        for line in sampled_src:
            by_bin[assign_bin(bins, len(line.split()))] += 1
        for share, pct in zip(by_bin, FULL_CORPUS_PERCENTAGES):
            assert abs(share - pct * sum(by_bin) / 100) <= 1.0 + 1e-9

    def test_alignment_and_uniqueness(self):
        src, tgt = synthetic_corpus([30, 20, 10, 5, 5, 3, 2, 5])
        plan = make_sample_plan(bin_histogram(src, tgt), 40, seed=21, granularity=1)
        sampled_src, sampled_tgt, indices = draw_sample(src, tgt, plan)
        assert len(set(indices)) == len(indices)
        for s, t, i in zip(sampled_src, sampled_tgt, indices):
            assert src[i] == s and tgt[i] == t

    def test_per_bin_counts_match_quota_exactly_no_leakage(self):
        src, tgt = synthetic_corpus([50, 30, 12, 8, 4, 3, 2, 6])
        plan = make_sample_plan(bin_histogram(src, tgt), 60, seed=4, granularity=1)
        sampled_src, _, _ = draw_sample(src, tgt, plan)
        bins = make_bins()
        got = [0] * 8
        for line in sampled_src:
            got[assign_bin(bins, len(line.split()))] += 1
        assert got == plan.per_bin_quota

    def test_infeasible_quota_names_bin(self):
        src, tgt = synthetic_corpus([5, 0, 0, 0, 0, 0, 0, 0])
        plan = make_sample_plan(bin_histogram(src, tgt), 5, seed=1)
        plan.per_bin_quota[1] = 3  # nothing available in 11-15
        with pytest.raises(SamplerError, match="11-15"):
            draw_sample(src, tgt, plan)
