"""Shared test helpers: independent oracles and published-score fixtures."""

import random
from collections import Counter

import numpy as np
import pytest

from asymbpe.bpe import END, word_symbols
from asymbpe.chrf import SignificanceResult, corpus_chrf


def oracle_learn(word_freqs, nmo):
    """Brute-force BPE learner: recounts every pair from scratch after each
    merge. Independent of the incremental production path."""
    vocab = {word_symbols(w): f for w, f in word_freqs.items() if w}
    rules = []
    for _ in range(nmo):
        counts = Counter()
        for symbols, freq in vocab.items():
            for i in range(len(symbols) - 1):
                counts[(symbols[i], symbols[i + 1])] += freq
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        rules.append(best)
        merged = best[0] + best[1]
        new_vocab = {}
        for symbols, freq in vocab.items():
            out = []
            i = 0
            while i < len(symbols):
                if i < len(symbols) - 1 and (symbols[i], symbols[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + freq
        vocab = new_vocab
    return rules


def oracle_segment(pairs, word):
    """Reference encoder: applies the rules in list order, skipping a pair's
    repeat listings, each with one exhaustive left-to-right pass, and renders
    every non-final piece with a trailing "@@". Independent of the
    rank-driven production path."""
    symbols = list(word_symbols(word))
    for k, pair in enumerate(pairs):
        if pair in pairs[:k]:
            continue
        out = []
        i = 0
        while i < len(symbols):
            if tuple(symbols[i:i + 2]) == pair:
                out.append(pair[0] + pair[1])
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return " ".join([s + "@@" for s in symbols[:-1]] + [symbols[-1][:-len(END)]])


def oracle_bin(bins, line):
    """The bin of a source line: the first upper boundary in ``bins`` that
    its token count does not exceed, found by a linear scan; past the last
    boundary, the open bin ``len(bins)``. Independent of ``bin_histogram``'s
    bisection."""
    length = len(line.split())
    b = 0
    while b < len(bins) and length > bins[b]:
        b += 1
    return b


def oracle_draw(src_lines, tgt_lines, bins, per_bin_quota, seed):
    """The two-pass stratified draw: bin every source line again
    (``oracle_bin``), then ``random.Random(seed).sample`` each bin's line
    indices, in line order, by its quota, in bin order. Returns (sampled
    source, sampled target, line indices). Independent of
    ``bin_histogram``'s single pass."""
    members = [[] for _ in range(len(bins) + 1)]
    for idx, line in enumerate(src_lines):
        members[oracle_bin(bins, line)].append(idx)
    rng = random.Random(seed)
    chosen = []
    for quota, pool in zip(per_bin_quota, members):
        chosen.extend(rng.sample(pool, quota))
    return [src_lines[i] for i in chosen], [tgt_lines[i] for i in chosen], chosen


def random_word_freqs(rng, max_types=50, alphabet="abcde", max_len=6, max_freq=20):
    n_types = rng.randint(1, max_types)
    freqs = {}
    while len(freqs) < n_types:
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        freqs[word] = rng.randint(1, max_freq)
    return freqs


def reference_chrf(matrix, beta):
    """Plain-Python chrF++ of a per-sentence statistics matrix (rows of
    per-order matched, hypothesis totals, reference totals), independent of
    the vectorised scorer. Per order of the column sums: the order is
    skipped when both totals are 0; a precision or recall whose total is 0
    is 0. Precision and recall are averaged over the kept orders, then
    combined into the F-beta score (0 with no kept order or both averages 0)."""
    matrix = [list(map(int, row)) for row in matrix]
    orders = len(matrix[0]) // 3
    sums = [sum(column) for column in zip(*matrix)]
    matched, hyp, ref = sums[:orders], sums[orders:2 * orders], sums[2 * orders:]
    kept = [k for k in range(orders) if hyp[k] or ref[k]]
    if not kept:
        return 0.0
    p = sum(matched[k] / hyp[k] if hyp[k] else 0.0 for k in kept) / len(kept)
    q = sum(matched[k] / ref[k] if ref[k] else 0.0 for k in kept) / len(kept)
    b2 = beta * beta
    if b2 * p + q == 0:
        return 0.0
    return 100.0 * (1 + b2) * p * q / (b2 * p + q)


def oracle_significance(systems, baseline, iterations, seed):
    """Paired approximate randomization of each statistics matrix in
    ``systems`` against ``baseline``, one system and one iteration at a time:
    iteration i swaps the rows where ``default_rng(seed).random((iterations,
    n))[i] < 0.5`` between the system and the baseline and scores both
    swapped matrices with ``corpus_chrf``. Independent of the stacked,
    chunked production path; the production scorer is shared so that ties
    compare alike."""
    masks = np.random.default_rng(seed).random((iterations, len(baseline))) < 0.5
    score_b = corpus_chrf(baseline)
    results = []
    for system in systems:
        score_a = corpus_chrf(system)
        count = 0
        for swap in masks:
            side_a = np.where(swap[:, None], baseline, system)
            side_b = np.where(swap[:, None], system, baseline)
            diff = corpus_chrf(side_a) - corpus_chrf(side_b)
            count += abs(diff) >= abs(score_a - score_b) - 1e-12
        better = "A" if score_a > score_b else ("B" if score_b > score_a else "tie")
        results.append(SignificanceResult((count + 1) / (iterations + 1), iterations, seed,
                                          better, score_a - score_b))
    return results


@pytest.fixture
def rng():
    return random.Random(12345)


# Full-corpus length-bin counts behind the reference sampling protocol
# (8,180,584 pairs; bins 0-10 .. >=41).
FULL_CORPUS_BIN_COUNTS = [2792334, 1655162, 1150396, 854091, 617318, 420583,
                          275774, 414926]
FULL_CORPUS_TOTAL = 8180584
FULL_CORPUS_PERCENTAGES = [34.13, 20.23, 14.06, 10.44, 7.55, 5.14, 3.37, 5.07]

# Quotas listed for the 0.1M sample (the 26-30 bin row, 7550, is derived
# from the published total of 99,990).
QUOTAS_100K = [34130, 20230, 14060, 10440, 7550, 5140, 3370, 5070]


# Published tier tables: FLORES CHRF++ for Hindi->English and
# English->Hindi. Per cell: tier -> (src_nmo, tgt_nmo, score, delta).
TIER_TABLE_HI_EN = {
    50_000: {
        "Low A": (500, 1000, 19.56, -3.93),
        "Low B": (500, 2000, 19.58, -3.91),
        "Baseline": (4000, 4000, 23.49, 0.0),
        "High B": (25000, 500, 28.47, 4.98),
        "High A": (16000, 500, 29.33, 5.84),
    },
    100_000: {
        "Low A": (500, 25000, 23.36, -15.92),
        "Low B": (1000, 32000, 24.2, -15.08),
        "Baseline": (500, 500, 39.28, 0.0),
        "High B": (16000, 500, 40.66, 1.38),
        "High A": (8000, 500, 40.75, 1.47),
    },
    500_000: {
        "Low A": (2000, 32000, 48.92, -3.53),
        "Low B": (25000, 32000, 49.62, -2.83),
        "Baseline": (4000, 4000, 52.45, 0.0),
        "High B": (8000, 2000, 53.19, 0.74),
        "High A": (4000, 500, 53.37, 0.92),
    },
    1_000_000: {
        "Low A": (500, 32000, 53.27, -1.77),
        "Low B": (1000, 32000, 53.58, -1.46),
        "Baseline": (8000, 8000, 55.04, 0.0),
        "High B": (16000, 8000, 55.19, 0.15),
        "High A": (16000, 4000, 55.39, 0.35),
    },
    4_000_000: {
        "Low A": (500, 1000, 56.1, -1.73),
        "Low B": (1000, 2000, 56.3, -1.53),
        "Baseline": (32000, 32000, 57.83, 0.0),
        "High B": (32000, 16000, 58.06, 0.23),
        "High A": (25000, 16000, 58.18, 0.35),
    },
    8_000_000: {
        # Note: the published Low B here is the symmetric 500_500 system.
        "Low A": (500, 2000, 56.26, -2.45),
        "Low B": (500, 500, 56.43, -2.28),
        "Baseline": (32000, 32000, 58.71, 0.0),
        "High B": (16000, 25000, 58.74, 0.03),
        "High A": (4000, 32000, 58.75, 0.04),
    },
}

TIER_TABLE_EN_HI = {
    50_000: {
        "Low A": (1000, 25000, 13.0, -5.39),
        "Low B": (500, 4000, 13.55, -4.84),
        "Baseline": (8000, 8000, 18.39, 0.0),
        "High B": (16000, 500, 23.19, 4.8),
        "High A": (8000, 500, 23.83, 5.44),
    },
    100_000: {
        "Low A": (500, 32000, 16.49, -12.55),
        "Low B": (500, 25000, 16.74, -12.3),
        "Baseline": (4000, 4000, 29.04, 0.0),
        "High B": (16000, 500, 34.73, 5.69),
        "High A": (8000, 500, 35.0, 5.96),
    },
    500_000: {
        "Low A": (500, 32000, 43.57, -3.5),
        "Low B": (1000, 32000, 43.88, -3.19),
        "Baseline": (4000, 4000, 47.07, 0.0),
        "High B": (8000, 500, 47.12, 0.05),
        "High A": (4000, 500, 47.55, 0.48),
    },
    1_000_000: {
        "Low A": (1000, 32000, 47.23, -1.93),
        "Low B": (2000, 32000, 47.83, -1.33),
        "Baseline": (8000, 8000, 49.16, 0.0),
        "High B": (4000, 2000, 49.74, 0.58),
        "High A": (8000, 2000, 49.75, 0.59),
    },
    4_000_000: {
        "Low A": (8000, 2000, 50.64, -1.12),
        "Low B": (500, 2000, 50.73, -1.03),
        "Baseline": (16000, 16000, 51.76, 0.0),
        "High B": (16000, 32000, 51.95, 0.19),
        "High A": (32000, 25000, 52.0, 0.24),
    },
    8_000_000: {
        "Low A": (500, 1000, 50.79, -1.84),
        "Low B": (32000, 2000, 51.29, -1.34),
        "Baseline": (25000, 25000, 52.63, 0.0),
        "High B": (25000, 32000, 52.63, 0.0),
        "High A": (16000, 25000, 53.0, 0.37),
    },
}

PUBLISHED_TIER_TABLES = {"hi-en": TIER_TABLE_HI_EN, "en-hi": TIER_TABLE_EN_HI}
