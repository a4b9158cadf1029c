"""Byte Pair Encoding with an explicit merge-operation budget.

Learns ranked merge tables from a whitespace-tokenized corpus and segments
text into subword pieces with them. The number of merge operations (NMO) is
the only capacity parameter. A ``MergeTable`` is immutable; a rule's rank is
its position in the table. ``segment_lines`` is the one segmenter: it
renders every NMO's segmentation of a list of lines from one encode per
distinct word. Word-final symbols carry the reserved marker ``</w>``;
non-final pieces render with a trailing ``@@``.

Tie-breaking is deterministic: among pairs with the maximal count, the
lexicographically smallest ``(left, right)`` pair (code-point order) wins.
"""

import heapq
import os
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

END = "</w>"
ESCAPED_END = "<\\/w>"
CONTINUATION = "@@"
TABLE_HEADER = "#asym-bpe v1"


class BpeError(ValueError):
    pass


@dataclass(frozen=True)
class MergeRule:
    """One merge operation: concatenate adjacent (left, right) symbols."""

    left: str
    right: str

    @property
    def pair(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class MergeTable:
    """Immutable sequence of merge rules; rank equals position."""

    rules: tuple[MergeRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def nmo(self) -> int:
        return len(self.rules)

    @cached_property
    def pair_ranks(self) -> dict:
        """Pair -> rank, the rule's position in the table, computed once per
        table. A pair listed twice keeps its first rank, so every prefix of
        the table ranks its pairs as the whole table does."""
        ranks = {}
        for i, r in enumerate(self.rules):
            ranks.setdefault(r.pair, i)
        return ranks

    def save(self, path):
        """Write the table to a temporary file and rename it into place, so a
        save cut short leaves no torn table."""
        lines = [TABLE_HEADER] + ["%s %s" % (_escape(r.left), _escape(r.right))
                                  for r in self.rules]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        tmp = os.fspath(path) + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "MergeTable":
        rules = []
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != TABLE_HEADER:
                raise BpeError("not a merge-table file (bad header %r): %s" % (header, path))
            for i, line in enumerate(fh):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise BpeError("malformed rule on line %d of %s: %r" % (i + 2, path, line))
                rules.append(MergeRule(_unescape(parts[0]), _unescape(parts[1])))
        return cls(rules)


def _escape(symbol: str) -> str:
    # A symbol whose text literally contains the marker would be ambiguous
    # in the table file; escape it on write, undo on read.
    return symbol[:-len(END)].replace(END, ESCAPED_END) + END if symbol.endswith(END) \
        else symbol.replace(END, ESCAPED_END)


def _unescape(token: str) -> str:
    if token.endswith(END):
        return token[:-len(END)].replace(ESCAPED_END, END) + END
    return token.replace(ESCAPED_END, END)


def word_symbols(word: str) -> tuple:
    """Split a word into single-character symbols, marking the last as final."""
    if not word:
        raise BpeError("empty word")
    chars = list(word)
    chars[-1] += END
    return tuple(chars)


def _word_freqs(corpus) -> Mapping:
    """Word -> frequency from whitespace-tokenized lines or a word->freq map.

    A map's frequencies must be positive ints and its words must contain no
    whitespace (a line could never yield such a word, and the table file
    separates the two symbols of a rule with a space). Empty words are
    dropped.
    """
    if isinstance(corpus, Mapping):
        for word, freq in corpus.items():
            if not isinstance(freq, int) or isinstance(freq, bool) or freq <= 0:
                raise BpeError("frequency of word %r must be a positive int, got %r"
                               % (word, freq))
            if any(ch.isspace() for ch in word):
                raise BpeError("word %r contains whitespace" % (word,))
        return {w: f for w, f in corpus.items() if w}
    # str.split() yields no empty word.
    return Counter(chain.from_iterable(map(str.split, corpus)))


def _merge_word(symbols: list, pair, merged: str) -> list:
    """Replace occurrences of pair left-to-right in one greedy pass."""
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


# A pair of symbol ids is keyed by one int: left << _ID_BITS | right.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def learn_bpe(corpus, nmo: int) -> MergeTable:
    """Learn up to ``nmo`` merge rules from the corpus.

    corpus: iterable of whitespace-tokenized lines, or a word->frequency
    mapping whose words contain no whitespace and whose frequencies are
    positive ints. ``nmo`` must be a non-negative int. Stops early once no
    adjacent pair remains. Deterministic: ties go to the lexicographically
    smallest pair of symbol texts.

    Pair counts are kept incrementally (Sennrich et al. 2016): a merge
    rescans only the words that contain its pair, and changes only the
    counts of the pairs next to each merge site. Symbols are interned as
    dense int ids, and a pair is keyed by the exact packing of its two ids.
    The index lists the words each pair was added to, with duplicates and
    stale ids; a merged pair's list is deduplicated. Every heap entry
    ``(-count, left, right, key)`` is an upper bound on its pair's count: a
    pair is pushed when a merge adds it to a word, and an entry popped above
    its live count is pushed again at that count. The rules equal those of a
    learner that recounts every pair after every merge.
    """
    if not isinstance(nmo, int) or isinstance(nmo, bool) or nmo < 0:
        raise BpeError("nmo must be a non-negative int, got %r" % (nmo,))
    word_freqs = _word_freqs(corpus)
    if not word_freqs:
        raise BpeError("empty corpus")

    # Symbol id -> text: every character, then every word-final one.
    chars = dict.fromkeys("".join(word_freqs))
    finals = dict.fromkeys(w[-1] for w in word_freqs)
    texts = list(chars) + [c + END for c in finals]
    ids = {t: i for i, t in enumerate(texts)}  # symbol text -> id
    char_id = ids.__getitem__
    words = []  # word id -> (symbol ids, frequency)
    counts = defaultdict(int)  # pair key -> count (0 once the pair is gone)
    index = defaultdict(list)  # pair key -> ids of the words it was added to
    for wid, (word, freq) in enumerate(word_freqs.items()):
        symbols = list(map(char_id, word[:-1]))
        symbols.append(ids[word[-1] + END])
        words.append((symbols, freq))
        for left, right in zip(symbols, symbols[1:]):
            key = left << _ID_BITS | right
            counts[key] += freq
            index[key].append(wid)

    heap = [(-c, texts[k >> _ID_BITS], texts[k & _ID_MASK], k) for k, c in counts.items()]
    heapq.heapify(heap)

    rules = []
    while len(rules) < nmo and heap:
        neg, left_text, right_text, best = heapq.heappop(heap)
        count = counts.get(best)
        if count != -neg:
            if count:
                heapq.heappush(heap, (-count, left_text, right_text, best))
            continue
        rules.append(MergeRule(left_text, right_text))
        merged_text = left_text + right_text
        merged = ids.get(merged_text)
        if merged is None:
            merged = ids[merged_text] = len(texts)
            if merged > _ID_MASK:
                raise BpeError("more than %d symbols" % (_ID_MASK + 1))
            texts.append(merged_text)
        left, right = best >> _ID_BITS, best & _ID_MASK

        added = []  # keys of the pairs this merge adds to a word
        for wid in set(index.pop(best)):
            symbols, freq = words[wid]
            n_left = symbols.count(left)
            if not n_left:
                continue  # a stale id
            i = symbols.index(left)
            if n_left == 1 or (n_left == 2 and left == right):
                # At most one merge site, at i. Most rescanned words take
                # this path, which skips the site lists and range loops.
                last = len(symbols) - 1
                if i == last or symbols[i + 1] != right:
                    continue
                if i:
                    prev = symbols[i - 1]
                    counts[prev << _ID_BITS | left] -= freq
                    key = prev << _ID_BITS | merged
                    counts[key] += freq
                    index[key].append(wid)
                    added.append(key)
                if i + 1 < last:
                    nxt = symbols[i + 2]
                    counts[right << _ID_BITS | nxt] -= freq
                    key = merged << _ID_BITS | nxt
                    counts[key] += freq
                    index[key].append(wid)
                    added.append(key)
                symbols[i:i + 2] = (merged,)
                continue
            # Greedy left-to-right merge sites.
            sites = []
            last = len(symbols) - 1
            while i < last:
                if symbols[i] == left and symbols[i + 1] == right:
                    sites.append(i)
                    i += 2
                else:
                    i += 1
            # Pair k is (symbols[k], symbols[k + 1]). A merge at i removes
            # pairs i - 1, i, i + 1; the merged symbol at new position j
            # starts pairs j - 1, j. All other pairs are unchanged. Sites
            # two apart share a pair, so each range starts past the last.
            done = -1
            for i in sites:
                for k in range(max(i - 1, done + 1), min(i + 2, last)):
                    counts[symbols[k] << _ID_BITS | symbols[k + 1]] -= freq
                done = i + 1
            for i in reversed(sites):
                symbols[i:i + 2] = (merged,)
            last -= len(sites)
            done = -1
            for n, i in enumerate(sites):
                j = i - n
                for k in range(max(j - 1, done + 1), min(j + 1, last)):
                    key = symbols[k] << _ID_BITS | symbols[k + 1]
                    counts[key] += freq
                    index[key].append(wid)
                    added.append(key)
                done = j

        # A greedy pass merges every occurrence of the pair, and no added
        # pair equals it (the merged text is longer than either side).
        del counts[best]
        for key in set(added):
            heapq.heappush(heap, (-counts[key], texts[key >> _ID_BITS],
                                  texts[key & _ID_MASK], key))

    return MergeTable(rules)


def _encode_word(word: str, pair_ranks: dict, bounds) -> list:
    """Apply merge rules to one word in ascending rank order, and return its
    symbols under the first ``n`` rules for each ``n`` in ``bounds``
    (ascending).

    Each rule gets one exhaustive left-to-right pass at its turn; merges
    performed by later rules cannot re-trigger earlier ones. Characters
    unseen in training pass through as single-character pieces.

    Ranks only increase (``floor``), so the n-rule prefix table performs
    exactly the merges made before the first one of rank >= n: the symbols
    at that point are the word's segmentation at NMO n, and one encode
    yields every bound's.
    """
    symbols = list(word_symbols(word))
    snapshots = []
    floor = 0
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            rank = pair_ranks.get(pair)
            if rank is not None and rank >= floor and (best is None or rank < best[0]):
                best = (rank, pair)
        if best is None:
            break
        rank, pair = best
        while len(snapshots) < len(bounds) and bounds[len(snapshots)] <= rank:
            snapshots.append(symbols)
        if len(snapshots) == len(bounds):
            return snapshots
        symbols = _merge_word(symbols, pair, pair[0] + pair[1])
        floor = rank + 1
    return snapshots + [symbols] * (len(bounds) - len(snapshots))


def segment_lines(table: MergeTable, lines, nmos) -> dict:
    """NMO -> every line of ``lines`` segmented with the first NMO rules of
    ``table``, for each NMO in ``nmos``. Words are joined by single spaces;
    every non-final piece of a word ends in ``@@``.

    Each distinct word is encoded once with ``table``, and the text of its
    segmentation at every NMO is rendered once from the encode's snapshots
    (see ``_encode_word``). ``table`` should hold at least ``max(nmos)``
    rules, or all the rules its corpus allows.
    """
    bounds = sorted(set(nmos))
    ranks = table.pair_ranks
    cache = {}  # word -> its text at each bound
    columns = [[] for _ in bounds]
    for line in lines:
        words = []
        for word in line.split():
            texts = cache.get(word)
            if texts is None:
                texts, prev, text = [], None, None
                for symbols in _encode_word(word, ranks, bounds):
                    if symbols is not prev:
                        text = "".join([s + CONTINUATION + " " for s in symbols[:-1]]
                                       + [symbols[-1][:-len(END)]])
                        prev = symbols
                    texts.append(text)
                cache[word] = texts
            words.append(texts)
        for k, column in enumerate(columns):
            column.append(" ".join([texts[k] for texts in words]))
    by_nmo = dict(zip(bounds, columns))
    return {nmo: by_nmo[nmo] for nmo in nmos}


def segment_line(table: MergeTable, sentence: str) -> str:
    """One line segmented with the whole table."""
    return segment_lines(table, [sentence], [table.nmo])[table.nmo][0]


def unsegment(text: str) -> str:
    """Invert the "@@ " serialization; error on a dangling continuation."""
    tokens = text.split()
    if tokens and tokens[-1].endswith(CONTINUATION):
        raise BpeError("dangling continuation at sentence end: %r" % tokens[-1])
    out = []
    glue = False
    for tok in tokens:
        cont = tok.endswith(CONTINUATION)
        body = tok[:-len(CONTINUATION)] if cont else tok
        if glue:
            out[-1] += body
        else:
            out.append(body)
        glue = cont
    return " ".join(out)
