"""Byte Pair Encoding with an explicit merge-operation budget.

Learns ranked merge tables from a whitespace-tokenized corpus and applies
them to segment text into subword pieces. The number of merge operations
(NMO) is the only capacity parameter. Word-final symbols carry the reserved
marker ``</w>``; non-final pieces render with a trailing ``@@``.

Tie-breaking is deterministic: among pairs with the maximal count, the
lexicographically smallest ``(left, right)`` pair (code-point order) wins.
"""

import heapq
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

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
    rank: int

    @property
    def pair(self):
        return (self.left, self.right)

    @property
    def merged(self):
        return self.left + self.right


@dataclass
class MergeTable:
    """Ordered list of merge rules; rank equals list position."""

    rules: list[MergeRule]
    _pair_ranks: dict = field(default=None, repr=False, compare=False)
    _word_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nmo(self) -> int:
        return len(self.rules)

    def pair_ranks(self) -> dict:
        if self._pair_ranks is None or len(self._pair_ranks) != len(self.rules):
            self._pair_ranks = {r.pair: r.rank for r in self.rules}
        return self._pair_ranks

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
                rules.append(MergeRule(_unescape(parts[0]), _unescape(parts[1]), i))
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


def build_vocab(corpus) -> dict:
    """Word-frequency vocabulary (as symbol tuples) from lines or a word->freq map.

    A map's frequencies must be positive ints and its words must contain no
    whitespace (a line could never yield such a word, and the table file
    separates the two symbols of a rule with a space). Empty words are
    dropped.
    """
    if isinstance(corpus, Mapping):
        word_freqs = corpus
        for word, freq in corpus.items():
            if not isinstance(freq, int) or isinstance(freq, bool) or freq <= 0:
                raise BpeError("frequency of word %r must be a positive int, got %r"
                               % (word, freq))
            if any(ch.isspace() for ch in word):
                raise BpeError("word %r contains whitespace" % (word,))
    else:
        word_freqs = Counter()
        for line in corpus:
            for word in line.split():
                word_freqs[word] += 1
    return {word_symbols(w): f for w, f in word_freqs.items() if w}


def count_pairs(vocab: Mapping) -> Counter:
    """Adjacent-pair counts over a symbol-tuple vocabulary.

    Overlapping adjacencies all count: ('a','a','a') contributes 2 to (a,a).
    """
    if not vocab:
        raise BpeError("empty corpus")
    counts = Counter()
    for symbols, freq in vocab.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


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


def learn_bpe(corpus, nmo: int) -> MergeTable:
    """Learn up to ``nmo`` merge rules from the corpus.

    corpus: iterable of whitespace-tokenized lines, or a word->frequency
    mapping whose words contain no whitespace and whose frequencies are
    positive ints. Stops early once no adjacent pair remains.
    Deterministic: ties go to the lexicographically smallest pair.

    Pair counts are kept incrementally (Sennrich et al. 2016): a merge
    rescans only the words that contain its pair, and changes only the
    counts of the pairs next to each merge site. The rules equal those of
    a learner that recounts every pair after every merge.
    """
    if nmo < 0:
        raise BpeError("nmo must be >= 0, got %d" % nmo)
    vocab_map = build_vocab(corpus)
    if not vocab_map:
        raise BpeError("empty corpus")

    words = [(list(sym), freq) for sym, freq in vocab_map.items()]
    counts = {}
    index = {}  # pair -> ids of the words it occurs in (may hold stale ids)
    for wid, (symbols, freq) in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] = counts.get(pair, 0) + freq
            index.setdefault(pair, set()).add(wid)

    # Lazy-deletion heap: stale entries are skipped when their recorded
    # count no longer matches. Tuple order gives count-desc, pair-asc.
    heap = [(-c, p) for p, c in counts.items()]
    heapq.heapify(heap)

    rules = []
    while len(rules) < nmo:
        best = None
        while heap:
            neg, pair = heapq.heappop(heap)
            if counts.get(pair) == -neg:
                best = pair
                break
        if best is None:
            break
        rules.append(MergeRule(best[0], best[1], len(rules)))
        left, right = best
        merged = left + right

        changed = {}
        for wid in index.pop(best):
            symbols, freq = words[wid]
            # Greedy left-to-right merge sites; a stale id finds none.
            sites = []
            last = len(symbols) - 1
            i = 0
            try:
                while True:
                    i = symbols.index(left, i)
                    if i < last and symbols[i + 1] == right:
                        sites.append(i)
                        i += 2
                    else:
                        i += 1
            except ValueError:
                pass
            if not sites:
                continue
            # Pair k is (symbols[k], symbols[k + 1]). A merge at i removes
            # pairs i - 1, i, i + 1; the merged symbol at new position j
            # starts pairs j - 1, j. All other pairs are unchanged. Sites
            # two apart share a pair, so each range starts past the last.
            done = -1
            for i in sites:
                for k in range(max(i - 1, done + 1), min(i + 2, last)):
                    pair = (symbols[k], symbols[k + 1])
                    changed[pair] = changed.get(pair, 0) - freq
                done = i + 1
            for i in reversed(sites):
                symbols[i:i + 2] = [merged]
            last -= len(sites)
            done = -1
            for n, i in enumerate(sites):
                j = i - n
                for k in range(max(j - 1, done + 1), min(j + 1, last)):
                    pair = (symbols[k], symbols[k + 1])
                    changed[pair] = changed.get(pair, 0) + freq
                    members = index.get(pair)
                    if members is None:
                        index[pair] = {wid}
                    else:
                        members.add(wid)
                done = j

        for pair, delta in changed.items():
            if delta:
                count = counts.get(pair, 0) + delta
                if count:
                    counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    del counts[pair]

    return MergeTable(rules)


def _encode_word(word: str, pair_ranks: dict) -> list:
    """Apply merge rules to one word in ascending rank order.

    Each rule gets one exhaustive left-to-right pass at its turn; merges
    performed by later rules cannot re-trigger earlier ones. Characters
    unseen in training pass through as single-character pieces.
    """
    symbols = list(word_symbols(word))
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
        symbols = _merge_word(symbols, pair, pair[0] + pair[1])
        floor = rank + 1
    return symbols


def apply_bpe(table: MergeTable, sentence: str) -> list:
    """Segment a whitespace-tokenized sentence.

    Returns a list of (piece_text, is_continuation) tuples; continuation
    pieces serialize with a trailing "@@". Pure and cacheable per word.
    """
    ranks = table.pair_ranks()
    pieces = []
    for word in sentence.split():
        cached = table._word_cache.get(word)
        if cached is None:
            cached = _encode_word(word, ranks)
            table._word_cache[word] = cached
        last = len(cached) - 1
        for i, sym in enumerate(cached):
            text = sym[:-len(END)] if i == last else sym
            pieces.append((text, i != last))
    return pieces


def segmentation_to_text(pieces) -> str:
    return " ".join(text + CONTINUATION if cont else text for text, cont in pieces)


def segment_line(table: MergeTable, sentence: str) -> str:
    return segmentation_to_text(apply_bpe(table, sentence))


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


def vocabulary(table: MergeTable, corpus) -> Counter:
    """Subword types (word-final variants distinct) with corpus frequencies."""
    vocab = build_vocab(corpus)
    ranks = table.pair_ranks()
    types = Counter()
    for symbols, freq in vocab.items():
        word = "".join(symbols)[:-len(END)]
        for sym in _encode_word(word, ranks):
            types[sym] += freq
    return types
