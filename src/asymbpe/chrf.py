"""Corpus-level CHRF++ and paired approximate-randomization significance.

CHRF++ here means: character n-grams of orders 1-6 computed on text with
all whitespace removed, word n-grams of orders 1-2 on whitespace tokens,
clipped matches, uniform averaging of precision/recall across the 8 orders,
and an F-score with beta = 2. Orders empty on both sides are skipped; an
order empty on one side only contributes 0. Scores are in [0, 100].

Scores and tests work from per-sentence sufficient statistics: an
``n x 3·orders`` integer matrix (``stats_matrix``) whose row holds one
sentence's clipped matches, hypothesis totals and reference totals per
order. A system's matrix is computed once, scored with ``corpus_chrf`` and
handed to ``paired_significance_stats`` without rescoring any text. The
score and the test share one scorer, so two systems whose corpus scores are
equal test as a tie, and the test's observed difference is the difference of
the two corpus scores to the last bit.

The significance test is paired approximate randomization: each iteration
swaps every sentence's two system outputs independently with probability
1/2 and recounts how often the absolute corpus-score difference is at least
the observed one; p = (count + 1) / (iterations + 1). Several systems tested
against one baseline with one seed share each drawn swap mask, so every
system's p-value equals the one a separate pairwise test gives.
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


@dataclass
class SignificanceResult:
    p_value: float
    iterations: int
    seed: int
    better_system: str
    observed_difference: float


def _ngram_counts(seq, n: int) -> Counter:
    """n-gram counts of a string (keyed by substring) or a tuple of words
    (keyed by word tuple)."""
    return Counter(seq[i:i + n] for i in range(len(seq) - n + 1))


def sentence_stats(hypothesis: str, reference: str,
                   char_order: int = CHAR_ORDER,
                   word_order: int = WORD_ORDER) -> NGramStats:
    """Per-order clipped n-gram statistics for one sentence pair."""
    hyp_words = tuple(hypothesis.split())
    ref_words = tuple(reference.split())
    hyp_chars = "".join(hyp_words)
    ref_chars = "".join(ref_words)

    matched, hyp_total, ref_total = [], [], []
    for seq_h, seq_r, max_n in ((hyp_chars, ref_chars, char_order),
                                (hyp_words, ref_words, word_order)):
        for n in range(1, max_n + 1):
            clipped = _ngram_counts(seq_h, n) & _ngram_counts(seq_r, n)
            matched.append(sum(clipped.values()))
            hyp_total.append(max(0, len(seq_h) - n + 1))
            ref_total.append(max(0, len(seq_r) - n + 1))
    return NGramStats(matched, hyp_total, ref_total)


def stats_matrix(hypotheses, references, char_order: int = CHAR_ORDER,
                 word_order: int = WORD_ORDER) -> np.ndarray:
    """``n x 3·orders`` int64 matrix of per-sentence statistics: each row is
    one line's matched, hypothesis-total and reference-total counts."""
    hypotheses = list(hypotheses)
    references = list(references)
    if len(hypotheses) != len(references):
        raise ChrfError("hypothesis/reference line counts differ: %d vs %d"
                        % (len(hypotheses), len(references)))
    if char_order < 0 or word_order < 0:
        raise ChrfError("n-gram orders must be >= 0, got char %d, word %d"
                        % (char_order, word_order))
    rows = []
    for h, r in zip(hypotheses, references):
        s = sentence_stats(h, r, char_order, word_order)
        rows.append(s.matched + s.hyp_total + s.ref_total)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3 * (char_order + word_order))


def corpus_chrf(stats, beta: float = DEFAULT_BETA) -> ChrfScore:
    """Aggregate sentence statistics, a list of ``NGramStats`` or a
    ``stats_matrix``, into one corpus score."""
    if not isinstance(stats, np.ndarray):
        stats = [s.matched + s.hyp_total + s.ref_total for s in stats]
    if len(stats) == 0:
        raise ChrfError("empty statistics list")
    sums = np.asarray(stats, dtype=np.int64).sum(axis=0)
    return ChrfScore(float(_scores_from_sum_rows(sums[None, :], len(sums) // 3, beta)[0]),
                     beta)


def corpus_chrf_from_lines(hypotheses, references, beta: float = DEFAULT_BETA,
                           char_order: int = CHAR_ORDER,
                           word_order: int = WORD_ORDER) -> ChrfScore:
    return corpus_chrf(stats_matrix(hypotheses, references, char_order, word_order), beta)


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


def paired_significance_stats(systems, baseline, iterations: int = 10000,
                              seed: int = 0, beta: float = DEFAULT_BETA) -> list:
    """Paired approximate randomization of each system against one baseline,
    from ``stats_matrix`` statistics. Returns one ``SignificanceResult`` per
    system (A = the system, B = the baseline). One swap-mask stream drawn
    from ``seed`` serves every system, so each result equals a separate
    ``paired_significance`` with the same seed."""
    if iterations < 1:
        raise ChrfError("iterations must be >= 1")
    mat_b = np.asarray(baseline, dtype=np.float64)
    if mat_b.ndim != 2 or mat_b.shape[0] == 0:
        raise ChrfError("empty test set: no sentences to compare")
    n, width = mat_b.shape
    orders = width // 3
    base_b = mat_b.sum(axis=0)
    score_b = _scores_from_sum_rows(base_b[None, :], orders, beta)[0]

    tests = []  # (A's column sums, row-swap mass moved from A to B, A's score)
    for system in systems:
        mat_a = np.asarray(system, dtype=np.float64)
        if mat_a.shape != mat_b.shape:
            raise ChrfError("statistics shapes differ: system %s, baseline %s"
                            % (mat_a.shape, mat_b.shape))
        base_a = mat_a.sum(axis=0)
        tests.append((base_a, mat_b - mat_a,
                      _scores_from_sum_rows(base_a[None, :], orders, beta)[0]))

    rng = np.random.default_rng(seed)
    counts = [0] * len(tests)
    chunk = max(1, min(iterations, 4_000_000 // n))
    done = 0
    while done < iterations:
        k = min(chunk, iterations - done)
        mask = rng.random((k, n)) < 0.5
        # Cast per system: a float copy of the mask kept across the loop
        # raises peak memory by its size.
        for j, (base_a, diff, score_a) in enumerate(tests):
            shift = mask.astype(np.float64) @ diff
            sa = _scores_from_sum_rows(base_a[None, :] + shift, orders, beta)
            sb = _scores_from_sum_rows(base_b[None, :] - shift, orders, beta)
            counts[j] += int(np.sum(np.abs(sa - sb) >= abs(score_a - score_b) - 1e-12))
        done += k

    results = []
    for (_, _, score_a), count in zip(tests, counts):
        better = "A" if score_a > score_b else ("B" if score_b > score_a else "tie")
        results.append(SignificanceResult((count + 1) / (iterations + 1), iterations,
                                          seed, better, score_a - score_b))
    return results


def paired_significance(hyps_a, hyps_b, refs, iterations: int = 10000,
                        seed: int = 0, beta: float = DEFAULT_BETA) -> SignificanceResult:
    """Paired approximate randomization of system A against system B."""
    hyps_a, hyps_b, refs = list(hyps_a), list(hyps_b), list(refs)
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ChrfError("line counts differ: A=%d B=%d refs=%d"
                        % (len(hyps_a), len(hyps_b), len(refs)))
    return paired_significance_stats([stats_matrix(hyps_a, refs)], stats_matrix(hyps_b, refs),
                                     iterations, seed, beta)[0]
