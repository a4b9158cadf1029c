import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymbpe.chrf import (ChrfError, corpus_chrf, corpus_chrf_from_lines,
                          paired_significance, paired_significance_stats,
                          sentence_stats, stats_matrix)

# Hand-derived oracle for hyp "the cat" vs ref "the cats": all character
# n-grams (orders 1-6, whitespace removed) and word n-grams (orders 1-2)
# enumerated explicitly; see oracle_stats below which recomputes them.
TINY_MATCHED = [6, 5, 4, 3, 2, 1, 1, 0]
TINY_HYP_TOTAL = [6, 5, 4, 3, 2, 1, 2, 1]
TINY_REF_TOTAL = [7, 6, 5, 4, 3, 2, 2, 1]
TINY_SCORE = 64.5005199907557


def oracle_stats(hyp, ref):
    """Exhaustive n-gram enumeration, independent of the production path."""
    def ngrams(seq, n):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    def clipped(h, r):
        matched, rest = 0, list(r)
        for g in h:
            if g in rest:
                matched += 1
                rest.remove(g)
        return matched

    matched, hyp_total, ref_total = [], [], []
    for sh, sr, orders in (("".join(hyp.split()), "".join(ref.split()), 6),
                           (hyp.split(), ref.split(), 2)):
        for n in range(1, orders + 1):
            hg, rg = ngrams(sh, n), ngrams(sr, n)
            matched.append(clipped(hg, rg))
            hyp_total.append(len(hg))
            ref_total.append(len(rg))
    return matched, hyp_total, ref_total


def tuple_keyed_stats(hyp, ref, char_order, word_order):
    """Reference counting: every n-gram keyed by a tuple, matches clipped
    with min(), totals summed from the counters."""
    def counts(seq, n):
        return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))

    matched, hyp_total, ref_total = [], [], []
    for sh, sr, orders in (("".join(hyp.split()), "".join(ref.split()), char_order),
                           (hyp.split(), ref.split(), word_order)):
        for n in range(1, orders + 1):
            h, r = counts(sh, n), counts(sr, n)
            matched.append(sum(min(c, r[g]) for g, c in h.items()))
            hyp_total.append(sum(h.values()))
            ref_total.append(sum(r.values()))
    return matched, hyp_total, ref_total


class TestSentenceStats:
    def test_identity_all_orders_full(self):
        s = sentence_stats("cat", "cat")
        assert s.matched == s.hyp_total == s.ref_total

    def test_disjoint_zero_matches(self):
        s = sentence_stats("abcd", "wxyz")
        assert all(m == 0 for m in s.matched)

    def test_tiny_corpus_matches_frozen_oracle(self):
        s = sentence_stats("the cat", "the cats")
        assert s.matched == TINY_MATCHED
        assert s.hyp_total == TINY_HYP_TOTAL
        assert s.ref_total == TINY_REF_TOTAL
        assert oracle_stats("the cat", "the cats") == (
            TINY_MATCHED, TINY_HYP_TOTAL, TINY_REF_TOTAL)

    def test_empty_hypothesis(self):
        s = sentence_stats("", "cat")
        assert sum(s.hyp_total) == 0 and sum(s.ref_total) > 0

    def test_clipping(self):
        s = sentence_stats("zz a a a", "zz a")
        assert s.matched[6] == 2  # word unigrams: zz + one clipped 'a'

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("ab \tक्ष\u00a0\u2003x"), max_size=30)
           | st.text(max_size=30),
           st.text(alphabet=st.sampled_from("ab \tक्ष\u00a0\u2003x"), max_size=30)
           | st.text(max_size=30),
           st.integers(0, 7), st.integers(0, 3))
    def test_matches_tuple_keyed_reference(self, hyp, ref, char_order, word_order):
        s = sentence_stats(hyp, ref, char_order, word_order)
        assert (s.matched, s.hyp_total, s.ref_total) == \
            tuple_keyed_stats(hyp, ref, char_order, word_order)

    def test_whitespace_only_lines(self):
        s = sentence_stats(" \t ", "\u2003")
        assert s.matched == s.hyp_total == s.ref_total == [0] * 8


class TestCorpusChrf:
    def test_identical_corpus_is_100(self):
        lines = ["the cat", "sat on", "a mat"]
        assert corpus_chrf_from_lines(lines, lines).value == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_corpus_is_0(self):
        assert corpus_chrf_from_lines(["abc"], ["xyz"]).value == 0.0

    def test_tiny_corpus_value(self):
        score = corpus_chrf_from_lines(["the cat"], ["the cats"])
        assert score.value == pytest.approx(TINY_SCORE, abs=1e-6)

    def test_empty_list_error(self):
        with pytest.raises(ChrfError):
            corpus_chrf([])

    def test_matrix_and_stats_list_score_alike(self):
        hyps = ["a cat", "the dog ran", "x y z"]
        refs = ["a cut", "the dog runs", "x z y"]
        matrix = stats_matrix(hyps, refs)
        assert matrix.shape == (3, 24)
        listed = [sentence_stats(h, r) for h, r in zip(hyps, refs)]
        assert corpus_chrf(matrix).value == corpus_chrf(listed).value == \
            corpus_chrf_from_lines(hyps, refs).value

    def test_negative_order_rejected(self):
        with pytest.raises(ChrfError, match="orders"):
            corpus_chrf_from_lines(["a"], ["a"], char_order=-1)

    def test_permutation_invariance(self):
        hyps = ["a cat", "the dog ran", "x y z"]
        refs = ["a cut", "the dog runs", "x z y"]
        v1 = corpus_chrf_from_lines(hyps, refs).value
        v2 = corpus_chrf_from_lines(hyps[::-1], refs[::-1]).value
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_range_bound(self):
        rng = random.Random(3)
        for _ in range(50):
            hyp = " ".join(rng.choice("ab cde") for _ in range(rng.randint(0, 10)))
            ref = " ".join(rng.choice("ab cde") for _ in range(rng.randint(1, 10)))
            v = corpus_chrf_from_lines([" ".join(hyp.split())], [" ".join(ref.split()) or "a"]).value
            assert 0.0 <= v <= 100.0

    def test_replacing_hyp_with_ref_never_decreases(self):
        rng = random.Random(8)
        words = ["cat", "dog", "sat", "mat", "ran", "the", "a"]
        for _ in range(30):
            refs = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(5)]
            hyps = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(5)]
            base = corpus_chrf_from_lines(hyps, refs).value
            i = rng.randrange(5)
            improved = list(hyps)
            improved[i] = refs[i]
            assert corpus_chrf_from_lines(improved, refs).value >= base - 1e-9


# One sentence's statistics each. B holds A's 8 orders permuted: the same
# per-order terms added in another order, whose sums differ in the last bit.
ROW_A = [0, 4, 0, 1, 1, 1, 0, 2, 3, 6, 5, 5, 7, 1, 9, 3, 1, 5, 1, 3, 3, 3, 2, 8]
ROW_B = [0, 1, 1, 0, 0, 2, 1, 4, 3, 5, 1, 5, 9, 3, 7, 6, 1, 3, 3, 1, 2, 8, 3, 5]


@st.composite
def stats_rows(draw, n, orders=8):
    """n rows of per-order (matched, hyp total, ref total) with matched <= both."""
    rows = []
    for _ in range(n):
        hyp = draw(st.lists(st.integers(0, 12), min_size=orders, max_size=orders))
        ref = draw(st.lists(st.integers(0, 12), min_size=orders, max_size=orders))
        matched = [draw(st.integers(0, min(h, r))) for h, r in zip(hyp, ref)]
        rows.append(matched + hyp + ref)
    return np.array(rows, dtype=np.int64)


class TestOneScorer:
    """The corpus score and the significance test share one scorer, so the
    test's verdict and observed difference follow the two corpus scores."""

    def check_agrees(self, mat_a, mat_b):
        a, b = corpus_chrf(mat_a).value, corpus_chrf(mat_b).value
        result = paired_significance_stats([mat_a], mat_b, iterations=1)[0]
        assert (result.better_system == "tie") == (a == b)
        assert (result.better_system == "A") == (a > b)
        assert result.observed_difference == a - b

    def test_permuted_orders(self):
        self.check_agrees(np.array([ROW_A]), np.array([ROW_B]))
        self.check_agrees(np.array([ROW_B]), np.array([ROW_A]))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 4), st.booleans())
    def test_verdict_follows_corpus_scores(self, data, n, permute):
        mat_a = data.draw(stats_rows(n))
        if permute:
            order = data.draw(st.permutations(range(8)))
            mat_b = mat_a[:, [block * 8 + k for block in range(3) for k in order]]
        else:
            mat_b = data.draw(stats_rows(n))
        self.check_agrees(mat_a, mat_b)


class TestPairedSignificance:
    def test_identical_systems_p_exactly_one(self):
        lines = ["the cat sat", "on a mat", "dogs run"]
        refs = ["the cat sits", "on the mat", "dogs ran"]
        result = paired_significance(lines, lines, refs, iterations=500, seed=1)
        assert result.p_value == 1.0
        assert result.better_system == "tie"

    def test_deterministic_for_fixed_seed(self):
        refs = ["the cat sat on the mat", "a dog ran far", "birds fly high"]
        a = ["the cat sat on a mat", "a dog ran", "bird fly high"]
        b = ["the cats sat", "the dog ran far", "birds fly"]
        r1 = paired_significance(a, b, refs, iterations=2000, seed=42)
        r2 = paired_significance(a, b, refs, iterations=2000, seed=42)
        assert r1.p_value == r2.p_value

    def test_mismatched_lengths_error(self):
        with pytest.raises(ChrfError):
            paired_significance(["a"], ["b", "c"], ["d"], iterations=10, seed=0)

    def test_empty_input_error(self):
        with pytest.raises(ChrfError, match="empty"):
            paired_significance([], [], [], iterations=10, seed=0)

    def test_p_decreases_with_quality_gap(self):
        rng = random.Random(17)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        refs = [" ".join(rng.choices(words, k=8)) for _ in range(40)]

        def corrupt(line, k, salt):
            toks = line.split()
            local = random.Random(salt)
            for i in local.sample(range(len(toks)), k):
                toks[i] = "junk%d" % i
            return " ".join(toks)

        p_values = []
        for gap in (1, 3, 5):
            sys_a = [corrupt(r, 1, i) for i, r in enumerate(refs)]
            sys_b = [corrupt(r, gap + 1, 1000 + i) for i, r in enumerate(refs)]
            res = paired_significance(sys_a, sys_b, refs, iterations=1500, seed=5)
            p_values.append(res.p_value)
            assert res.better_system == "A"
        assert p_values[0] >= p_values[1] >= p_values[2]

    def test_better_system_identification(self):
        refs = ["one two three four", "five six seven eight"]
        good = refs
        bad = ["one junk junk four", "junk six junk eight"]
        assert paired_significance(good, bad, refs, 100, seed=0).better_system == "A"
        assert paired_significance(bad, good, refs, 100, seed=0).better_system == "B"


def random_system(refs, rng, rate):
    return [" ".join(w if rng.random() > rate else "junk" for w in ref.split())
            for ref in refs]


class TestBatchedSignificance:
    """paired_significance_stats tests several systems on one mask stream;
    each p-value must equal the pairwise test's exactly."""

    def check_equal_to_pairwise(self, systems, baseline, refs, iterations, seed):
        batched = paired_significance_stats(
            [stats_matrix(s, refs) for s in systems], stats_matrix(baseline, refs),
            iterations=iterations, seed=seed)
        pairwise = [paired_significance(s, baseline, refs, iterations, seed)
                    for s in systems]
        assert batched == pairwise
        return batched

    def test_equals_pairwise(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "eps"]
        refs = [" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(30)]
        systems = [random_system(refs, rng, rate) for rate in (0.1, 0.3, 0.5, 0.7)]
        results = self.check_equal_to_pairwise(systems, systems[1], refs, 700, 11)
        assert results[1].p_value == 1.0 and results[1].better_system == "tie"
        assert any(r.p_value < 1.0 for r in results)

    def test_single_sentence(self):
        refs = ["the cat sat on the mat"]
        systems = [["the cat sat"], ["a dog"], ["the cat sat on the mat"]]
        self.check_equal_to_pairwise(systems, ["the cat"], refs, 300, 2)

    def test_iterations_span_several_chunks(self):
        # 4,000,000 // n masks per chunk: with n = 2,000 a chunk holds 2,000
        # iterations, so 4,500 iterations need three chunks from one stream.
        rng = random.Random(9)
        refs = ["w%d w%d" % (rng.randrange(50), rng.randrange(50)) for _ in range(2000)]
        systems = [random_system(refs, rng, rate) for rate in (0.2, 0.6)]
        self.check_equal_to_pairwise(systems, random_system(refs, rng, 0.4), refs, 4500, 5)

    def test_shape_mismatch_rejected(self):
        a = stats_matrix(["a b"], ["a b"])
        b = stats_matrix(["a", "b"], ["a", "b"])
        with pytest.raises(ChrfError, match="shapes differ"):
            paired_significance_stats([a], b, iterations=10)

    def test_empty_baseline_rejected(self):
        with pytest.raises(ChrfError, match="empty"):
            paired_significance_stats([], stats_matrix([], []), iterations=10)
