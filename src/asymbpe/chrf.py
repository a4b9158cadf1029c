"""Corpus-level CHRF++ and paired approximate-randomization significance.

CHRF++ here means: character n-grams of orders 1-6 computed on text with
all whitespace removed, word n-grams of orders 1-2 on whitespace tokens,
clipped matches, uniform averaging of precision/recall across the 8 orders,
and an F-score with beta = 2. Orders empty on both sides are skipped; an
order empty on one side only contributes 0. Scores are in [0, 100].

The significance test is paired approximate randomization: each iteration
swaps every sentence's two system outputs independently with probability
1/2 and recounts how often the absolute corpus-score difference is at least
the observed one; p = (count + 1) / (iterations + 1).
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

CHAR_ORDER = 6
WORD_ORDER = 2
DEFAULT_BETA = 2.0

SIGNIFICANCE_METHOD = "paired-approximate-randomization"


class ChrfError(ValueError):
    pass


@dataclass
class NGramStats:
    """Clipped match / total counts per order (char orders first, then word)."""

    matched: list
    hyp_total: list
    ref_total: list

    @property
    def orders(self) -> int:
        return len(self.matched)


@dataclass
class ChrfScore:
    value: float
    beta: float
    sentence_stats: list


@dataclass
class SignificanceResult:
    p_value: float
    iterations: int
    seed: int
    better_system: str
    observed_difference: float


def _ngram_counts(items, n: int) -> Counter:
    return Counter(tuple(items[i:i + n]) for i in range(len(items) - n + 1))


def sentence_stats(hypothesis: str, reference: str,
                   char_order: int = CHAR_ORDER,
                   word_order: int = WORD_ORDER) -> NGramStats:
    """Per-order clipped n-gram statistics for one sentence pair."""
    hyp_chars = "".join(hypothesis.split())
    ref_chars = "".join(reference.split())
    hyp_words = hypothesis.split()
    ref_words = reference.split()

    matched, hyp_total, ref_total = [], [], []
    for seq_h, seq_r, max_n in ((hyp_chars, ref_chars, char_order),
                                (hyp_words, ref_words, word_order)):
        for n in range(1, max_n + 1):
            h = _ngram_counts(seq_h, n)
            r = _ngram_counts(seq_r, n)
            matched.append(sum(min(c, r[g]) for g, c in h.items()))
            hyp_total.append(sum(h.values()))
            ref_total.append(sum(r.values()))
    return NGramStats(matched, hyp_total, ref_total)


def _score_from_sums(matched, hyp_total, ref_total, beta: float) -> float:
    precisions, recalls = [], []
    for m, h, r in zip(matched, hyp_total, ref_total):
        if h == 0 and r == 0:
            continue
        precisions.append(m / h if h > 0 else 0.0)
        recalls.append(m / r if r > 0 else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1.0 + b2) * p * r / (b2 * p + r)


def corpus_chrf(stats, beta: float = DEFAULT_BETA) -> ChrfScore:
    """Aggregate sentence statistics into one corpus score."""
    stats = list(stats)
    if not stats:
        raise ChrfError("empty statistics list")
    orders = stats[0].orders
    matched = [0] * orders
    hyp_total = [0] * orders
    ref_total = [0] * orders
    for s in stats:
        for i in range(orders):
            matched[i] += s.matched[i]
            hyp_total[i] += s.hyp_total[i]
            ref_total[i] += s.ref_total[i]
    return ChrfScore(_score_from_sums(matched, hyp_total, ref_total, beta), beta, stats)


def corpus_chrf_from_lines(hypotheses, references, beta: float = DEFAULT_BETA,
                           char_order: int = CHAR_ORDER,
                           word_order: int = WORD_ORDER) -> ChrfScore:
    hypotheses = list(hypotheses)
    references = list(references)
    if len(hypotheses) != len(references):
        raise ChrfError("hypothesis/reference line counts differ: %d vs %d"
                        % (len(hypotheses), len(references)))
    return corpus_chrf(
        [sentence_stats(h, r, char_order, word_order)
         for h, r in zip(hypotheses, references)], beta)


def _stats_matrix(stats) -> np.ndarray:
    return np.array([s.matched + s.hyp_total + s.ref_total for s in stats], dtype=np.float64)


def _scores_from_sum_rows(sums: np.ndarray, orders: int, beta: float) -> np.ndarray:
    m = sums[:, :orders]
    h = sums[:, orders:2 * orders]
    r = sums[:, 2 * orders:]
    kept = ~((h == 0) & (r == 0))
    nkept = kept.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(h > 0, m / np.where(h > 0, h, 1.0), 0.0)
        rec = np.where(r > 0, m / np.where(r > 0, r, 1.0), 0.0)
    prec = np.where(kept, prec, 0.0).sum(axis=1)
    rec = np.where(kept, rec, 0.0).sum(axis=1)
    safe_n = np.where(nkept > 0, nkept, 1)
    p = prec / safe_n
    q = rec / safe_n
    b2 = beta * beta
    denom = b2 * p + q
    score = np.where(denom > 0, 100.0 * (1.0 + b2) * p * q / np.where(denom > 0, denom, 1.0), 0.0)
    return np.where(nkept > 0, score, 0.0)


def paired_significance(hyps_a, hyps_b, refs, iterations: int = 10000,
                        seed: int = 0, beta: float = DEFAULT_BETA) -> SignificanceResult:
    """Paired approximate randomization over per-sentence statistics."""
    hyps_a, hyps_b, refs = list(hyps_a), list(hyps_b), list(refs)
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ChrfError("line counts differ: A=%d B=%d refs=%d"
                        % (len(hyps_a), len(hyps_b), len(refs)))
    if not refs:
        raise ChrfError("empty test set: no sentences to compare")
    if iterations < 1:
        raise ChrfError("iterations must be >= 1")
    stats_a = [sentence_stats(h, r) for h, r in zip(hyps_a, refs)]
    stats_b = [sentence_stats(h, r) for h, r in zip(hyps_b, refs)]
    orders = stats_a[0].orders

    mat_a = _stats_matrix(stats_a)
    mat_b = _stats_matrix(stats_b)
    base_a = mat_a.sum(axis=0)
    base_b = mat_b.sum(axis=0)
    score_a = _scores_from_sum_rows(base_a[None, :], orders, beta)[0]
    score_b = _scores_from_sum_rows(base_b[None, :], orders, beta)[0]
    observed = score_a - score_b

    diff = mat_b - mat_a  # row-swap moves this much mass from A to B view
    rng = np.random.default_rng(seed)
    n = len(refs)
    count = 0
    chunk = max(1, min(iterations, 4_000_000 // max(1, n)))
    done = 0
    while done < iterations:
        k = min(chunk, iterations - done)
        mask = rng.random((k, n)) < 0.5
        shift = mask.astype(np.float64) @ diff
        sums_a = base_a[None, :] + shift
        sums_b = base_b[None, :] - shift
        sa = _scores_from_sum_rows(sums_a, orders, beta)
        sb = _scores_from_sum_rows(sums_b, orders, beta)
        count += int(np.sum(np.abs(sa - sb) >= abs(observed) - 1e-12))
        done += k
    p = (count + 1) / (iterations + 1)
    better = "A" if score_a > score_b else ("B" if score_b > score_a else "tie")
    return SignificanceResult(p, iterations, seed, better, observed)
