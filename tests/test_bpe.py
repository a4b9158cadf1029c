import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymbpe import bpe
from asymbpe.bpe import (END, BpeError, MergeRule, MergeTable, learn_bpe, segment_line,
                         segment_lines, unsegment)
from conftest import oracle_learn, oracle_segment, random_word_freqs


def table_from_pairs(pairs):
    return MergeTable([MergeRule(l, r) for l, r in pairs])


def oracle_lines(pairs, lines):
    return [" ".join(oracle_segment(pairs, word) for word in line.split()) for line in lines]


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

    def test_tie_break_on_text_not_symbol_order(self):
        # After (a,b), (ab,x) and (b,y) both count 5. "ab" < "b" as text,
        # but "ab" is the newer symbol and (b,y) the older pair.
        table = learn_bpe({"abx": 5, "abz": 2, "by": 5}, 2)
        assert [r.pair for r in table.rules] == [("a", "b"), ("ab", "x" + END)]

    @pytest.mark.parametrize("nmo", [2.5, True, False, "3", None, -1])
    def test_bad_nmo_rejected(self, nmo):
        with pytest.raises(BpeError, match="non-negative int") as err:
            learn_bpe(["ab ab cd"], nmo)
        assert repr(nmo) in str(err.value)

    def test_pinned_table_digest(self, tmp_path):
        # A seeded corpus of Latin and Devanagari syllables with many count
        # ties. The digest pins the saved table byte for byte; it was taken
        # from the string-keyed learner, before symbols became int ids.
        rng = random.Random(2016)
        onsets = list("bdgkmnprstvz") + ["क", "ग", "त", "द", "न", "म", "र", "स"]
        nuclei = list("aeiou") + ["ा", "ि", "ी", "ु", "े", "ो", ""]
        syllables = [o + v for o in onsets for v in nuclei]
        freqs = {}
        for _ in range(3000):
            word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 5)))
            freqs[word] = freqs.get(word, 0) + rng.randint(1, 40)
        table = learn_bpe(freqs, 2000)
        assert table.nmo == 2000
        table.save(tmp_path / "t.bpe")
        assert hashlib.sha256((tmp_path / "t.bpe").read_bytes()).hexdigest() == \
            "e05ed8c4267b109919820c2023b55728fc34d4815266a7f33867e16322cba495"

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

# Words of consonant + vowel-sign syllables: every syllable but a bare
# consonant is two code points, so characters and syllables differ.
DEVANAGARI_WORDS = st.lists(
    st.builds(lambda c, v: c + v, st.sampled_from("कखग"), st.sampled_from(["", "ा", "ि", "्"])),
    min_size=1, max_size=6).map("".join)


class TestLearnProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(STRESS_WORDS, st.integers(1, 9), min_size=1, max_size=12),
           st.integers(0, 80))
    def test_matches_oracle_on_stress_corpora(self, freqs, nmo):
        # nmo up to 80 runs most of these corpora out of pairs.
        assert [r.pair for r in learn_bpe(freqs, nmo).rules] == oracle_learn(freqs, nmo)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(DEVANAGARI_WORDS, st.integers(1, 9), min_size=1, max_size=12),
           st.integers(0, 60))
    def test_matches_oracle_on_devanagari(self, freqs, nmo):
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
        assert segment_line(MergeTable([]), "") == ""
        assert segment_line(MergeTable([]), " \t ") == ""

    def test_unknown_characters_pass_through(self):
        table = learn_bpe({"abab": 5}, 3)
        assert segment_line(table, "xyz") == "x@@ y@@ z"

    def test_pure_function(self):
        table = table_from_pairs([("a", "b")])
        assert segment_line(table, "abab ab") == segment_line(table, "abab ab") == \
            "ab@@ a@@ b a@@ b"

    def test_repeated_pair_ranks_built_once(self):
        table = table_from_pairs([("a", "b"), ("c", "d"), ("a", "b")])
        assert table.pair_ranks == {("a", "b"): 0, ("c", "d"): 1}
        assert table.pair_ranks is table.pair_ranks

    def test_rules_ranked_by_position_not_stored_rank(self, tmp_path):
        table = MergeTable([MergeRule("b", "c" + END), MergeRule("a", "b")])
        table.save(tmp_path / "t.bpe")
        assert segment_line(table, "abc") == \
            segment_line(MergeTable.load(tmp_path / "t.bpe"), "abc") == "a@@ bc"

    def test_rules_cannot_change_in_place(self):
        rules = [MergeRule("a", "b" + END)]
        table = MergeTable(rules)
        assert isinstance(table.rules, tuple)
        rules.append(MergeRule("c", "d"))
        assert table.nmo == 1
        with pytest.raises(AttributeError):
            table.rules.append(MergeRule("c", "d"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.rules = (MergeRule("c", "d"),)
        assert segment_line(table, "ab ab") == "ab ab"


# Words for the multi-NMO segmenter: the stress words above, arbitrary
# non-whitespace Unicode, and words holding the literal markers.
SEGMENT_WORDS = st.one_of(
    STRESS_WORDS,
    st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1, max_size=8),
    st.sampled_from(["x</w>a", "x</w>", "</w>", "a@@", "@@b"]),
)


class TestSegmentLines:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SEGMENT_WORDS, min_size=1, max_size=20),
           st.lists(st.lists(SEGMENT_WORDS, max_size=6), max_size=6),
           st.lists(st.one_of(st.just(0), st.integers(0, 90)), min_size=1, max_size=5,
                    unique=True),
           st.integers(0, 10))
    def test_equals_segment_line_on_prefix_tables(self, train, extra, nmos, surplus):
        # NMOs come unsorted, may be 0, and up to 90 run most corpora out of
        # pairs; the table may also hold more rules than the largest NMO.
        lines = [" ".join(train)] + [" ".join(words) for words in extra] + [""]
        full = learn_bpe(lines, max(nmos) + surplus)
        pairs = [r.pair for r in full.rules]
        got = segment_lines(full, lines, nmos)
        assert list(got) == nmos
        for nmo in nmos:
            prefix = MergeTable(full.rules[:nmo])
            assert got[nmo] == [segment_line(prefix, line) for line in lines] == \
                oracle_lines(pairs[:nmo], lines)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "ab", "ba", "aa"]),
                              st.sampled_from(["a", "b", "ab", "a" + END, "b" + END,
                                               "ab" + END, "ba" + END])),
                    max_size=12),
           st.lists(STRESS_WORDS, min_size=1, max_size=8),
           st.lists(st.integers(0, 14), min_size=1, max_size=4, unique=True))
    def test_any_rule_list_including_repeated_pairs(self, pairs, words, nmos):
        # A hand-made table may list a pair twice; its prefixes must still
        # rank that pair as the whole table does.
        full = table_from_pairs(pairs)
        got = segment_lines(full, words, nmos)
        for nmo in nmos:
            prefix = table_from_pairs(pairs[:nmo])
            assert got[nmo] == [segment_line(prefix, word) for word in words] == \
                oracle_lines(pairs[:nmo], words)

    def test_one_encode_per_distinct_word(self, monkeypatch):
        calls = []
        encode = bpe._encode_word
        monkeypatch.setattr(bpe, "_encode_word",
                            lambda word, *args: calls.append(word) or encode(word, *args))
        full = learn_bpe(["the cat sat", "the cat ran"], 12)
        got = segment_lines(full, ["the cat sat", "the cat ran", "the  cat"], [12, 0, 3])
        assert sorted(calls) == ["cat", "ran", "sat", "the"]
        assert got[0][2] == "t@@ h@@ e c@@ a@@ t"
        assert got[12] == [segment_line(full, line) for line in
                           ["the cat sat", "the cat ran", "the  cat"]]


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
            totals.append(sum(len(segment_line(table, line).split()) for line in corpus))
        assert totals == sorted(totals, reverse=True)


def pieces(table, words):
    """Distinct tokens of ``segment_lines`` over ``words``: a word-final
    piece and the same text inside a word (``@@``) count as two."""
    return {tok for line in segment_lines(table, list(words), [table.nmo])[table.nmo]
            for tok in line.split()}


class TestVocabulary:
    """Bounds on the pieces a table segments a corpus into."""

    def test_character_inventory_bound(self):
        types = pieces(MergeTable([]), {"ab": 1, "ba": 2, "a": 1, "b": 1})
        assert types <= {"a@@", "b@@", "a", "b"}

    def test_single_merge_types(self):
        table = learn_bpe({"aaab": 3}, 1)
        assert pieces(table, {"aaab": 3}) == {"aa@@", "a@@", "b"}

    def test_empty_word_of_a_map_is_dropped(self):
        assert learn_bpe({"": 4, "ab": 3, "b": 1}, 5) == learn_bpe({"ab": 3, "b": 1}, 5)
        with pytest.raises(BpeError, match="empty corpus"):
            learn_bpe({"": 4}, 1)

    def test_growth_until_saturation(self, rng):
        freqs = random_word_freqs(rng, max_types=40, max_freq=5)
        sizes = [len(pieces(learn_bpe(freqs, n), freqs)) for n in range(0, 30, 3)]
        n_chars = len(pieces(MergeTable([]), freqs))
        for cur, nmo in zip(sizes[1:], range(3, 30, 3)):
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

    def test_blank_lines_do_not_shift_ranks(self, tmp_path):
        # Ranks are rule positions, so the last rule of a table with a blank
        # line still applies.
        path = tmp_path / "t.bpe"
        path.write_text("#asym-bpe v1\n\na b</w>\n", encoding="utf-8")
        table = MergeTable.load(path)
        assert [r.pair for r in table.rules] == [("a", "b</w>")]
        assert segment_line(table, "ab") == "ab"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.bpe"
        path.write_text("nope\na b\n", encoding="utf-8")
        with pytest.raises(BpeError):
            MergeTable.load(path)
