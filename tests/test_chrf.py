import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_significance, reference_chrf

from asymbpe import chrf
from asymbpe.chrf import (ChrfError, corpus_chrf, corpus_chrf_from_lines,
                          paired_significance, paired_significance_stats, stats_matrix)

# Hand-derived oracle for hyp "the cat" vs ref "the cats": all character
# n-grams (orders 1-6, whitespace removed) and word n-grams (orders 1-2)
# enumerated explicitly; see oracle_stats below which recomputes them.
TINY_MATCHED = [6, 5, 4, 3, 2, 1, 1, 0]
TINY_HYP_TOTAL = [6, 5, 4, 3, 2, 1, 2, 1]
TINY_REF_TOTAL = [7, 6, 5, 4, 3, 2, 2, 1]
TINY_SCORE = 64.5005199907557


def oracle_stats(hyp, ref, char_order=6, word_order=2):
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
    for sh, sr, orders in (("".join(hyp.split()), "".join(ref.split()), char_order),
                           (hyp.split(), ref.split(), word_order)):
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


def sentence_row(hyp, ref):
    """The one row of ``stats_matrix([hyp], [ref])``, split into its
    matched, hypothesis-total and reference-total lists."""
    row = stats_matrix([hyp], [ref])[0].tolist()
    return row[:8], row[8:16], row[16:]


class TestSentenceStats:
    def test_identity_all_orders_full(self):
        matched, hyp_total, ref_total = sentence_row("cat", "cat")
        assert matched == hyp_total == ref_total

    def test_disjoint_zero_matches(self):
        matched, _, _ = sentence_row("abcd", "wxyz")
        assert all(m == 0 for m in matched)

    def test_tiny_corpus_matches_frozen_oracle(self):
        assert sentence_row("the cat", "the cats") == (
            TINY_MATCHED, TINY_HYP_TOTAL, TINY_REF_TOTAL)
        assert oracle_stats("the cat", "the cats") == (
            TINY_MATCHED, TINY_HYP_TOTAL, TINY_REF_TOTAL)

    def test_empty_hypothesis(self):
        _, hyp_total, ref_total = sentence_row("", "cat")
        assert sum(hyp_total) == 0 and sum(ref_total) > 0

    def test_clipping(self):
        matched, _, _ = sentence_row("zz a a a", "zz a")
        assert matched[6] == 2  # word unigrams: zz + one clipped 'a'

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("ab \tक्ष\u00a0\u2003x"), max_size=30)
           | st.text(max_size=30),
           st.text(alphabet=st.sampled_from("ab \tक्ष\u00a0\u2003x"), max_size=30)
           | st.text(max_size=30))
    def test_matches_tuple_keyed_reference(self, hyp, ref):
        assert sentence_row(hyp, ref) == tuple_keyed_stats(hyp, ref, 6, 2)

    def test_whitespace_only_lines(self):
        matched, hyp_total, ref_total = sentence_row(" \t ", "\u2003")
        assert matched == hyp_total == ref_total == [0] * 8


# Lines mixing empty and whitespace-only text, repeated n-grams, Devanagari,
# non-BMP code points up to U+10FFFF and a lone surrogate.
LINE = (st.lists(st.sampled_from(["a", "b", "ab", " ", "\t", "\u00a0", "क्ष",
                                  "\U0001F600", "\U0010FFFF", "\ud800"]),
                 max_size=12).map("".join)
        | st.text(max_size=12))


class TestStatsMatrix:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(LINE, LINE), max_size=6))
    def test_rows_match_tuple_keyed_reference(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        matrix = stats_matrix(hyps, refs)
        assert matrix.dtype == np.int64
        assert matrix.shape == (len(pairs), 24)
        for row, (hyp, ref) in zip(matrix.tolist(), pairs):
            matched, hyp_total, ref_total = tuple_keyed_stats(hyp, ref, 6, 2)
            assert row == matched + hyp_total + ref_total

    def test_no_ngram_spans_two_lines(self):
        # Joined, both sides read "abc"; per line, "bc" is only in a reference.
        matrix = stats_matrix(["ab", "c"], ["a", "bc"])
        assert matrix[:, 1].tolist() == [0, 0]  # character bigrams matched
        for row, (hyp, ref) in zip(matrix.tolist(), [("ab", "a"), ("c", "bc")]):
            matched, hyp_total, ref_total = tuple_keyed_stats(hyp, ref, 6, 2)
            assert row == matched + hyp_total + ref_total

    def test_line_count_mismatch_rejected(self):
        with pytest.raises(ChrfError, match="line counts differ: 1 vs 2"):
            stats_matrix(["a b"], ["a", "b"])

    @pytest.mark.parametrize("block_chars", [1, 7, 50])
    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(LINE, LINE), max_size=12))
    @example(pairs=[])
    @example(pairs=[("", ""), ("ab ab", ""), ("", "\U0001F600b")])
    @example(pairs=[("abcdefgh ijkl", "abc"), ("a", "a")])
    @example(pairs=[("\U0010FFFF\U0001F600 x", "\U0001F600 x"), ("x", "y")])
    def test_blocks_match_oracle(self, block_chars, pairs):
        # Blocks of one line or a few lines, lines longer than a block, empty
        # lines and an empty corpus, all read from one-pass iterators.
        with mock.patch.object(chrf, "_STATS_BLOCK_CHARS", block_chars):
            matrix = stats_matrix(iter([h for h, _ in pairs]), (r for _, r in pairs))
        assert matrix.dtype == np.int64
        assert matrix.shape == (len(pairs), 24)
        for row, (hyp, ref) in zip(matrix.tolist(), pairs):
            matched, hyp_total, ref_total = oracle_stats(hyp, ref)
            assert row == matched + hyp_total + ref_total

    @pytest.mark.parametrize("hyps, refs", [(5, 3), (3, 5), (0, 4)])
    def test_streams_of_unequal_length_counted_to_the_end(self, monkeypatch, hyps, refs):
        monkeypatch.setattr(chrf, "_STATS_BLOCK_CHARS", 1)
        with pytest.raises(ChrfError, match="line counts differ: %d vs %d" % (hyps, refs)):
            stats_matrix(iter(["a b"] * hyps), iter(["a c"] * refs))

    def test_streams_read_one_block_at_a_time(self, monkeypatch):
        lines = ["w%d x%d" % (i, i % 3) for i in range(40)]
        expected = stats_matrix(lines, lines[::-1])  # one block
        read = []  # every line taken from either stream

        def stream(side):
            for line in side:
                read.append(line)
                yield line

        counted = []  # each block's line count
        block_stats = chrf._block_stats

        def spy(hyps, refs):
            counted.append(len(hyps))
            # The lines of the blocks so far, and at most one pair read ahead.
            assert len(read) <= 2 * (sum(counted) + 1)
            return block_stats(hyps, refs)
        monkeypatch.setattr(chrf, "_STATS_BLOCK_CHARS", 30)
        monkeypatch.setattr(chrf, "_block_stats", spy)
        matrix = stats_matrix(stream(lines), stream(lines[::-1]))
        assert len(counted) > 10 and sum(counted) == 40
        assert matrix.tolist() == expected.tolist()

    def test_memory_does_not_grow_with_lines(self):
        # 2,000 and then 20,000 line pairs of one vocabulary. The blocks bound
        # the n-gram key arrays, so the traced peaks differ by the extra rows'
        # bytes, which the growing row buffer may over-allocate by an eighth,
        # plus a small slack.
        rng = random.Random(6)
        vocab = ["".join(rng.choices("abcdefghijक्ष", k=rng.randint(2, 7)))
                 for _ in range(300)]
        peaks, rows = [], []
        for n in (2000, 20000):
            refs = [" ".join(rng.choices(vocab, k=rng.randint(3, 9))) for _ in range(n)]
            hyps = [" ".join(rng.choices(vocab, k=rng.randint(3, 9))) for _ in range(n)]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                matrix = stats_matrix(hyps, refs)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            rows.append(matrix.nbytes)
        assert peaks[1] - peaks[0] < (rows[1] - rows[0]) * 9 // 8 + (1 << 19), (peaks, rows)


class TestCorpusChrf:
    def test_identical_corpus_is_100(self):
        lines = ["the cat", "sat on", "a mat"]
        assert corpus_chrf_from_lines(lines, lines) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_corpus_is_0(self):
        assert corpus_chrf_from_lines(["abc"], ["xyz"]) == 0.0

    def test_tiny_corpus_value(self):
        score = corpus_chrf_from_lines(["the cat"], ["the cats"])
        assert score == pytest.approx(TINY_SCORE, abs=1e-6)

    def test_empty_list_error(self):
        with pytest.raises(ChrfError, match="^empty test set: no sentences to score$"):
            corpus_chrf(stats_matrix([], []))

    def test_matrix_and_row_by_row_score_alike(self):
        hyps = ["a cat", "the dog ran", "x y z"]
        refs = ["a cut", "the dog runs", "x z y"]
        matrix = stats_matrix(hyps, refs)
        assert matrix.shape == (3, 24)
        rows = np.vstack([stats_matrix([h], [r]) for h, r in zip(hyps, refs)])
        assert corpus_chrf(matrix) == corpus_chrf(rows) == \
            corpus_chrf_from_lines(hyps, refs)

    @pytest.mark.parametrize("width", [5, 4, 0])
    def test_matrix_width_not_multiple_of_3_rejected(self, width):
        matrix = np.ones((2, width), dtype=np.int64)
        message = r"statistics of shape \(2, %d\): CHRF\+\+ statistics are \(n, 24\)" % width
        with pytest.raises(ChrfError, match=message):
            corpus_chrf(matrix)
        with pytest.raises(ChrfError, match=message):
            paired_significance_stats([matrix], matrix, iterations=10)

    def test_mixed_orders_rejected(self):
        # Statistics of other orders (2 orders: 6 columns, 9 orders: 27) are
        # neither scored nor tested, nor paired with CHRF++'s 24 columns.
        full = stats_matrix(["a b"], ["a c"])
        for other in (full[:, :6], np.hstack([full, full[:, :3]])):
            message = r"statistics of shape \(1, %d\)" % other.shape[1]
            with pytest.raises(ChrfError, match=message):
                corpus_chrf(other)
            with pytest.raises(ChrfError, match=message):
                paired_significance_stats([other], other, iterations=10)
        with pytest.raises(ChrfError, match="shapes differ: system \\(1, 6\\), baseline "
                                            "\\(1, 24\\)"):
            paired_significance_stats([full[:, :6]], full, iterations=10)

    def test_permutation_invariance(self):
        hyps = ["a cat", "the dog ran", "x y z"]
        refs = ["a cut", "the dog runs", "x z y"]
        v1 = corpus_chrf_from_lines(hyps, refs)
        v2 = corpus_chrf_from_lines(hyps[::-1], refs[::-1])
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_range_bound(self):
        rng = random.Random(3)
        for _ in range(50):
            hyp = " ".join(rng.choice("ab cde") for _ in range(rng.randint(0, 10)))
            ref = " ".join(rng.choice("ab cde") for _ in range(rng.randint(1, 10)))
            v = corpus_chrf_from_lines([" ".join(hyp.split())], [" ".join(ref.split()) or "a"])
            assert 0.0 <= v <= 100.0

    def test_replacing_hyp_with_ref_never_decreases(self):
        rng = random.Random(8)
        words = ["cat", "dog", "sat", "mat", "ran", "the", "a"]
        for _ in range(30):
            refs = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(5)]
            hyps = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(5)]
            base = corpus_chrf_from_lines(hyps, refs)
            i = rng.randrange(5)
            improved = list(hyps)
            improved[i] = refs[i]
            assert corpus_chrf_from_lines(improved, refs) >= base - 1e-9


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


@st.composite
def sided_stats_rows(draw):
    """1-4 rows of 8 orders whose each order is counted on both sides,
    empty on the hypothesis side, the reference side or both; sometimes
    every order is empty on both sides."""
    orders = 8
    empty = draw(st.lists(st.sampled_from(["", "hyp", "ref", "both"]),
                          min_size=orders, max_size=orders)
                 | st.just(["both"] * orders))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        hyp = [0 if e in ("hyp", "both") else draw(st.integers(0, 30)) for e in empty]
        ref = [0 if e in ("ref", "both") else draw(st.integers(0, 30)) for e in empty]
        rows.append([draw(st.integers(0, min(h, r))) for h, r in zip(hyp, ref)] + hyp + ref)
    return np.array(rows, dtype=np.int64)


class TestScoringRules:
    @settings(max_examples=500, deadline=None)
    @given(sided_stats_rows())
    @example(np.zeros((2, 24), dtype=np.int64))
    def test_corpus_score_matches_plain_reference(self, matrix):
        assert corpus_chrf(matrix) == \
            pytest.approx(reference_chrf(matrix, chrf.BETA), rel=0, abs=1e-9)


class TestOneScorer:
    """The corpus score and the significance test share one scorer, so the
    test's verdict and observed difference follow the two corpus scores."""

    def check_agrees(self, mat_a, mat_b):
        a, b = corpus_chrf(mat_a), corpus_chrf(mat_b)
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
        # 65,536 // (n + S·24) iterations per chunk, but at least 64: with
        # n = 2,000 lines that is 32 for S = 2 systems (and for one), so a
        # chunk holds the floor's 64 iterations and 4,500 iterations need 71
        # chunks from one stream.
        rng = random.Random(9)
        refs = ["w%d w%d" % (rng.randrange(50), rng.randrange(50)) for _ in range(2000)]
        systems = [random_system(refs, rng, rate) for rate in (0.2, 0.6)]
        self.check_equal_to_pairwise(systems, random_system(refs, rng, 0.4), refs, 4500, 5)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        rng = random.Random(12)
        refs = ["w%d w%d w%d" % (rng.randrange(30), rng.randrange(30), rng.randrange(30))
                for _ in range(60)]
        systems = [stats_matrix(random_system(refs, rng, rate), refs) for rate in (0.2, 0.5)]
        baseline = stats_matrix(random_system(refs, rng, 0.35), refs)
        default = paired_significance_stats(systems, baseline, iterations=300, seed=3)
        monkeypatch.setattr(chrf, "_SIGNIFICANCE_CHUNK_CELLS", 1)
        monkeypatch.setattr(chrf, "_SIGNIFICANCE_CHUNK_MIN_ITERATIONS", 1)
        assert paired_significance_stats(systems, baseline, iterations=300, seed=3) == default
        assert any(r.p_value < 1.0 for r in default)

    def test_shape_mismatch_rejected(self):
        a = stats_matrix(["a b"], ["a b"])
        b = stats_matrix(["a", "b"], ["a", "b"])
        with pytest.raises(ChrfError, match="shapes differ"):
            paired_significance_stats([a], b, iterations=10)

    def test_empty_baseline_rejected(self):
        with pytest.raises(ChrfError, match="empty"):
            paired_significance_stats([], stats_matrix([], []), iterations=10)

    def test_zero_iterations_rejected(self):
        matrix = stats_matrix(["a b"], ["a b"])
        with pytest.raises(ChrfError, match="iterations must be >= 1"):
            paired_significance_stats([matrix], matrix, iterations=0)


class TestSignificanceOracle:
    """paired_significance_stats against a loop that swaps the rows of each
    system and the baseline one iteration at a time."""

    @staticmethod
    def cell(seed, n, rates):
        rng = random.Random(seed)
        refs = [" ".join("w%d" % rng.randrange(12) for _ in range(rng.randint(1, 6)))
                for _ in range(n)]
        systems = [stats_matrix(random_system(refs, rng, rate), refs) for rate in rates]
        return systems, stats_matrix(random_system(refs, rng, 0.4), refs)

    def check(self, systems, baseline, iterations, seed):
        results = paired_significance_stats(systems, baseline, iterations=iterations,
                                            seed=seed)
        assert results == oracle_significance(systems, baseline, iterations, seed)
        return results

    def test_several_systems(self):
        systems, baseline = self.cell(1, 25, (0.1, 0.3, 0.5, 0.7, 0.9))
        results = self.check(systems, baseline, 300, 8)
        assert any(r.p_value < 0.5 for r in results)
        assert any(r.p_value > 0.5 for r in results)

    def test_single_line(self):
        systems, baseline = self.cell(2, 1, (0.0, 0.5, 1.0))
        self.check(systems, baseline, 200, 4)

    def test_one_iteration_per_chunk(self, monkeypatch):
        monkeypatch.setattr(chrf, "_SIGNIFICANCE_CHUNK_CELLS", 1)
        monkeypatch.setattr(chrf, "_SIGNIFICANCE_CHUNK_MIN_ITERATIONS", 1)
        systems, baseline = self.cell(3, 12, (0.2, 0.6))
        self.check(systems, baseline, 150, 6)

    def test_tie(self):
        systems, baseline = self.cell(4, 20, (0.3,))
        results = self.check([baseline, systems[0], baseline.copy()], baseline, 200, 9)
        assert [r.better_system for r in results][::2] == ["tie", "tie"]
        assert results[0].p_value == results[2].p_value == 1.0

    def test_no_systems(self):
        _, baseline = self.cell(5, 10, ())
        assert paired_significance_stats([], baseline, iterations=100, seed=0) == []
