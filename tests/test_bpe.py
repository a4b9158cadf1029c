import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymbpe import bpe
from asymbpe.bpe import (END, BpeError, MergeRule, MergeTable, apply_bpe,
                         build_vocab, count_pairs, learn_bpe, segment_line,
                         segmentation_to_text, unsegment, vocabulary)
from conftest import oracle_learn, random_word_freqs


def table_from_pairs(pairs):
    return MergeTable([MergeRule(l, r, i) for i, (l, r) in enumerate(pairs)])


class TestCountPairs:
    def test_overlapping_adjacencies(self):
        counts = count_pairs(build_vocab({"aaab": 3}))
        assert counts == {("a", "a"): 6, ("a", "b" + END): 3}

    def test_single_symbol_word(self):
        assert count_pairs(build_vocab({"x": 1})) == {}

    def test_two_words(self):
        counts = count_pairs(build_vocab({"ab": 2, "ba": 1}))
        assert counts == {("a", "b" + END): 2, ("b", "a" + END): 1}

    def test_empty_corpus_rejected(self):
        with pytest.raises(BpeError):
            count_pairs({})


class TestLearn:
    def test_most_frequent_pair_first(self):
        table = learn_bpe({"aaab": 3}, 1)
        assert [r.pair for r in table.rules] == [("a", "a")]

    def test_nmo_zero_is_identity(self):
        assert learn_bpe({"whatever": 1}, 0).nmo == 0

    def test_early_stop_on_exhaustion(self):
        assert learn_bpe({"x": 7}, 5).nmo == 0

    def test_empty_corpus_error(self):
        with pytest.raises(BpeError):
            learn_bpe([], 3)
        with pytest.raises(BpeError):
            learn_bpe({}, 3)

    def test_tie_break_lexicographic(self):
        # (a,b/END) and (b,a/END) both appear once; smaller pair wins.
        table = learn_bpe({"ab": 1, "ba": 1}, 1)
        assert table.rules[0].pair == ("a", "b" + END)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(30):
            freqs = random_word_freqs(rng)
            nmo = rng.randint(0, 25)
            got = [r.pair for r in learn_bpe(freqs, nmo).rules]
            assert got == oracle_learn(freqs, nmo)

    def test_prefix_property(self, rng):
        for _ in range(10):
            freqs = random_word_freqs(rng)
            small = learn_bpe(freqs, 8).rules
            big = learn_bpe(freqs, 40).rules
            assert big[:len(small)] == small

    def test_determinism_byte_identical(self, tmp_path):
        lines = ["the cat sat", "on the mat", "the bat"]
        p1, p2 = tmp_path / "a.bpe", tmp_path / "b.bpe"
        learn_bpe(lines, 10).save(p1)
        learn_bpe(list(lines), 10).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


    @pytest.mark.parametrize("freqs, word", [
        ({"ab": -3, "cd": 1}, "ab"),
        ({"ab": 0}, "ab"),
        ({"ab": 2, "cd": 1.5}, "cd"),
        ({"ab": "2"}, "ab"),
        ({"ab": True}, "ab"),
    ])
    def test_non_positive_int_frequency_rejected(self, freqs, word):
        with pytest.raises(BpeError, match="positive int") as err:
            learn_bpe(freqs, 3)
        assert repr(word) in str(err.value)
        with pytest.raises(BpeError, match="positive int"):
            build_vocab(freqs)

    @pytest.mark.parametrize("word", ["a b", "a\tb", "ab\n", "a\u00a0b"])
    def test_word_with_whitespace_rejected(self, word):
        with pytest.raises(BpeError, match="whitespace") as err:
            learn_bpe({word: 2, "cd": 1}, 3)
        assert repr(word) in str(err.value)


# Corpora that stress the merge-site bookkeeping: runs of one letter and
# alternations give overlapping and adjacent merge sites, one-letter words
# have no pairs at all.
STRESS_WORDS = st.one_of(
    st.builds(lambda c, n: c * n, st.sampled_from("ab"), st.integers(1, 12)),
    st.builds(lambda a, b, n, tail: ((a + b) * n)[:2 * n - tail],
              st.sampled_from("ab"), st.sampled_from("bc"), st.integers(1, 6),
              st.integers(0, 1)),
    st.sampled_from("abc"),
    st.text(alphabet="abc", min_size=1, max_size=8),
)


class TestLearnProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(STRESS_WORDS, st.integers(1, 9), min_size=1, max_size=12),
           st.integers(0, 80))
    def test_matches_oracle_on_stress_corpora(self, freqs, nmo):
        # nmo up to 80 runs most of these corpora out of pairs.
        assert [r.pair for r in learn_bpe(freqs, nmo).rules] == oracle_learn(freqs, nmo)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(STRESS_WORDS, min_size=1, max_size=6), min_size=1, max_size=10),
           st.integers(0, 80))
    def test_lines_and_frequency_map_agree(self, lines, nmo):
        lines = [" ".join(words) for words in lines]
        freqs = {}
        for line in lines:
            for word in line.split():
                freqs[word] = freqs.get(word, 0) + 1
        from_lines = learn_bpe(lines, nmo).rules
        assert from_lines == learn_bpe(freqs, nmo).rules
        assert [r.pair for r in from_lines] == oracle_learn(freqs, nmo)


class TestApply:
    def test_published_segmentation_example(self):
        table = table_from_pairs([("b", "o"), ("s", "u"), ("s", "c"), ("sc", "o" + END)])
        assert segment_line(table, "bosusco") == "bo@@ su@@ sco"

    def test_empty_table_splits_to_characters(self):
        assert segment_line(MergeTable([]), "cat") == "c@@ a@@ t"

    def test_full_coverage_leaves_word_whole(self):
        table = table_from_pairs([("c", "a"), ("ca", "t" + END)])
        assert segment_line(table, "cat") == "cat"

    def test_empty_sentence(self):
        assert apply_bpe(MergeTable([]), "") == []

    def test_unknown_characters_pass_through(self):
        table = learn_bpe({"abab": 5}, 3)
        pieces = apply_bpe(table, "xyz")
        assert "".join(t for t, _ in pieces) == "xyz"

    def test_pure_function(self):
        table = table_from_pairs([("a", "b")])
        assert apply_bpe(table, "abab ab") == apply_bpe(table, "abab ab")


class TestUnsegment:
    def test_published_word(self):
        assert unsegment("bo@@ su@@ sco") == "bosusco"

    def test_character_split(self):
        assert unsegment("c@@ a@@ t") == "cat"

    def test_empty(self):
        assert unsegment("") == ""

    def test_dangling_continuation_error(self):
        with pytest.raises(BpeError):
            unsegment("oops@@")


class TestRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcxyz -.", max_size=40), st.integers(0, 50))
    def test_roundtrip_random(self, text, nmo):
        sentence = " ".join(text.split())
        table = learn_bpe({"abc": 3, "xyzzy": 2, "ax": 1}, nmo)
        assert unsegment(segment_line(table, sentence)) == sentence

    def test_roundtrip_learned_corpus(self, rng):
        freqs = random_word_freqs(rng, max_types=30)
        table = learn_bpe(freqs, 20)
        sentence = " ".join(rng.sample(list(freqs), min(8, len(freqs))))
        assert unsegment(segment_line(table, sentence)) == sentence


class TestSegmentationMonotonicity:
    def test_more_merges_fewer_pieces(self, rng):
        freqs = random_word_freqs(rng, max_types=25)
        corpus = [" ".join([w] * f) for w, f in freqs.items()]
        totals = []
        for nmo in (0, 5, 10, 20, 40):
            table = learn_bpe(freqs, nmo)
            totals.append(sum(len(apply_bpe(table, line)) for line in corpus))
        assert totals == sorted(totals, reverse=True)


class TestVocabulary:
    def test_character_inventory_bound(self):
        types = vocabulary(MergeTable([]), {"ab": 1, "ba": 2, "a": 1, "b": 1})
        assert set(types) <= {"a", "b", "a" + END, "b" + END}

    def test_single_merge_types(self):
        table = learn_bpe({"aaab": 3}, 1)
        types = vocabulary(table, {"aaab": 3})
        assert set(types) == {"aa", "a", "b" + END}

    def test_growth_until_saturation(self, rng):
        freqs = random_word_freqs(rng, max_types=40, max_freq=5)
        sizes = [len(vocabulary(learn_bpe(freqs, n), freqs)) for n in range(0, 30, 3)]
        n_chars = len(vocabulary(MergeTable([]), freqs))
        for prev, cur, nmo in zip(sizes, sizes[1:], range(3, 30, 3)):
            assert cur <= n_chars + nmo


class TestTableFile:
    def test_save_load_roundtrip(self, tmp_path):
        table = learn_bpe({"banana": 4, "bandana": 2}, 6)
        path = tmp_path / "t.bpe"
        table.save(path)
        loaded = MergeTable.load(path)
        assert loaded == table
        assert path.read_text(encoding="utf-8").splitlines()[0] == "#asym-bpe v1"

    @pytest.mark.parametrize("old", [None, b"#asym-bpe v1\na b</w>\n"])
    def test_failed_save_leaves_no_torn_table(self, tmp_path, old):
        # A lone surrogate cannot be encoded, so the save fails: the path
        # must be absent or keep its old bytes, and no temporary file stays.
        path = tmp_path / "t.bpe"
        if old is not None:
            path.write_bytes(old)
        table = table_from_pairs([("a", "b</w>"), ("c", "\ud800")])
        with pytest.raises(UnicodeEncodeError):
            table.save(path)
        assert (path.read_bytes() if path.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["t.bpe"])

    def test_marker_collision_escaped(self, tmp_path):
        # Corpus text that can merge into the literal end-of-word marker.
        table = learn_bpe({"x</w>y": 9}, 6)
        path = tmp_path / "t.bpe"
        table.save(path)
        loaded = MergeTable.load(path)
        assert [r.pair for r in loaded.rules] == [r.pair for r in table.rules]
        assert segment_line(loaded, "x</w>y") == segment_line(table, "x</w>y")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.bpe"
        path.write_text("nope\na b\n", encoding="utf-8")
        with pytest.raises(BpeError):
            MergeTable.load(path)


def test_segmentation_to_text_marks_continuations():
    assert segmentation_to_text([("ab", True), ("c", False)]) == "ab@@ c"
