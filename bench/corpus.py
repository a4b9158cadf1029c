"""Seeded synthetic en→hi parallel corpus (stdlib only).

Words are Zipf-distributed stems × suffixes. Every English stem and suffix
has one Hindi counterpart in Devanagari, so the two sides are word-aligned
and CHRF++ runs on multi-byte target text. A small share of target words
are dropped or doubled so that position alignment is not exact. Source
lengths fill every default sampler bin, including ``>=41``.

The same seed gives byte-identical files. The seed picks letters, words and
the order of sentences, but not how much text there is: each stem's length
is fixed by its frequency rank, and each split has a fixed multiset of
sentence lengths. So the work a workload does, and its timings, barely
depend on the seed.
"""

import os
import random

LATIN = "abcdefghijklmnopqrstuvwxyz"
DEVANAGARI_CONSONANTS = [chr(c) for c in range(0x0915, 0x0939 + 1)]
DEVANAGARI_SIGNS = ["ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ", "ं", "्"]

EN_SUFFIXES = ["", "", "", "s", "ed", "ing", "er", "ly", "ness", "ment", "al", "ity"]
HI_SUFFIXES = ["", "", "", "ों", "ा", "ते", "ने", "ी", "ता", "पन", "िक", "त्व"]

# Source lengths: (low, high, weight). Bands line up with the default sampler
# bins 1-10, 11-15, ..., 36-40, >=41.
LENGTH_BANDS = [(3, 10, 26), (11, 15, 20), (16, 20, 16), (21, 25, 12),
                (26, 30, 9), (31, 35, 7), (36, 40, 5), (41, 55, 5)]

ZIPF_EXPONENT = 1.07
NOISE = 0.04


class Lexicon:
    """Stem and suffix translations plus Zipf weights for drawing words."""

    def __init__(self, rng: random.Random, stems: int):
        seen_en, seen_hi = set(), set()
        self.en_stems, self.hi_stems = [], []
        while len(self.en_stems) < stems:
            rank = len(self.en_stems)
            en = "".join(rng.choice(LATIN) for _ in range(3 + rank * 5 % 6))
            hi = "".join(rng.choice(DEVANAGARI_CONSONANTS) + rng.choice(DEVANAGARI_SIGNS)
                         for _ in range(2 + rank % 3))
            if en in seen_en or hi in seen_hi:
                continue
            seen_en.add(en)
            seen_hi.add(hi)
            self.en_stems.append(en)
            self.hi_stems.append(hi)
        cum, total = [], 0.0
        for rank in range(1, stems + 1):
            total += rank ** -ZIPF_EXPONENT
            cum.append(total)
        self.stem_cum_weights = cum
        self.stem_ids = range(stems)
        self.suffix_ids = range(len(EN_SUFFIXES))


def sentence_lengths(count: int) -> list:
    """A fixed multiset of ``count`` source lengths, in band proportions."""
    total = sum(b[2] for b in LENGTH_BANDS)
    lengths = []
    for i in range(count):
        # Position i of count falls in the band that covers its quantile.
        q = (i + 0.5) / count * total
        for low, high, weight in LENGTH_BANDS:
            if q < weight:
                lengths.append(low + int(q / weight * (high - low + 1)))
                break
            q -= weight
    return lengths


def make_pairs(rng: random.Random, lexicon: Lexicon, count: int):
    """``count`` sentence pairs drawn from the lexicon."""
    lengths = sentence_lengths(count)
    rng.shuffle(lengths)
    src_lines, tgt_lines = [], []
    for n in lengths:
        stems = rng.choices(lexicon.stem_ids, cum_weights=lexicon.stem_cum_weights, k=n)
        suffixes = rng.choices(lexicon.suffix_ids, k=n)
        src, tgt = [], []
        for stem, suffix in zip(stems, suffixes):
            src.append(lexicon.en_stems[stem] + EN_SUFFIXES[suffix])
            hi = lexicon.hi_stems[stem] + HI_SUFFIXES[suffix]
            roll = rng.random()
            if roll < NOISE:
                continue
            tgt.append(hi)
            if roll > 1.0 - NOISE:
                tgt.append(hi)
        if not tgt:
            tgt.append(lexicon.hi_stems[stems[0]])
        src_lines.append(" ".join(src))
        tgt_lines.append(" ".join(tgt))
    return src_lines, tgt_lines


def corrupt(rng: random.Random, lexicon: Lexicon, lines, rate: float):
    """A simulated system output: each word replaced by a random one with
    probability ``rate``."""
    out = []
    for line in lines:
        words = line.split()
        for i in range(len(words)):
            if rng.random() < rate:
                stem = rng.choices(lexicon.stem_ids, cum_weights=lexicon.stem_cum_weights)[0]
                words[i] = lexicon.hi_stems[stem]
        out.append(" ".join(words))
    return out


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def generate(out_dir, seed: int, stems: int, splits: dict, systems: dict | None = None):
    """Write ``<split>.en`` / ``<split>.hi`` for each ``{split: pairs}`` entry,
    and ``<name>.hi`` for each ``{name: (split, rate)}`` simulated system.

    Returns ``{name: path}`` for every file written.
    """
    rng = random.Random(seed)
    lexicon = Lexicon(rng, stems)
    os.makedirs(out_dir, exist_ok=True)
    paths, targets = {}, {}
    for split, count in splits.items():
        src, tgt = make_pairs(rng, lexicon, count)
        targets[split] = tgt
        for lang, lines in (("en", src), ("hi", tgt)):
            paths["%s.%s" % (split, lang)] = path = os.path.join(out_dir, "%s.%s" % (split, lang))
            write_lines(path, lines)
    for name, (split, rate) in (systems or {}).items():
        paths[name] = path = os.path.join(out_dir, name + ".hi")
        write_lines(path, corrupt(rng, lexicon, targets[split], rate))
    return paths
