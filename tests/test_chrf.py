import random

import pytest

from asymbpe.chrf import (ChrfError, corpus_chrf, corpus_chrf_from_lines,
                          paired_significance, sentence_stats)

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
