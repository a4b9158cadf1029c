"""Corpus-level CHRF++ and paired approximate-randomization significance.

CHRF++ here means: character n-grams of orders 1-6 computed on text with
all whitespace removed, word n-grams of orders 1-2 on whitespace tokens,
clipped matches, uniform averaging of precision/recall across the 8 orders,
and an F-score with beta = 2. Orders empty on both sides are skipped; an
order empty on one side only contributes 0. Scores are in [0, 100].
The scorer computes precision, recall and the F-score with one masked
``np.divide`` each, leaving 0 where the denominator is 0. A skipped order
has both totals 0 and so adds 0 to both sums: only the count of kept
orders has to leave it out.

Scores and tests work from per-sentence sufficient statistics: an
``n x 3·orders`` integer matrix (``stats_matrix``) whose row holds one
sentence's clipped matches, hypothesis totals and reference totals per
order. A system's matrix is computed once, scored with ``corpus_chrf`` and
handed to ``paired_significance_stats`` without rescoring any text. The
score and the test share one scorer, so two systems whose corpus scores are
equal test as a tie, and the test's observed difference is the difference of
the two corpus scores to the last bit.

``stats_matrix`` counts a whole corpus in one vectorised pass, with no
per-sentence n-gram dictionaries: each line is split once, the characters of
all lines become one code-point array and the words one array of dense word
ids. For each order, every n-gram gets an integer key built from the dense
id of its (line, first n-1 unigrams) and its last unigram. One ``np.unique``
of the keys gives each distinct (line, n-gram) a dense id, which is also the
prefix id of the next order's keys; one ``np.bincount`` of (id, side) gives
its hypothesis and reference counts, and the clipped match is the smaller.
The keys are exact, not hashes: an n-gram's key determines its line and
unigrams, so distinct n-grams never share a key, and every key stays far
below 2^63.
N-grams that would span two lines, or the end of the hypotheses and the
start of the references, are never formed.

The significance test is paired approximate randomization: each iteration
swaps every sentence's two system outputs independently with probability
1/2 and recounts how often the absolute corpus-score difference is at least
the observed one; p = (count + 1) / (iterations + 1). Several systems tested
against one baseline with one seed share each drawn swap mask, so every
system's p-value equals the one a separate pairwise test gives.
"""

from dataclasses import dataclass

import numpy as np

CHAR_ORDER = 6
WORD_ORDER = 2
DEFAULT_BETA = 2.0

SIGNIFICANCE_METHOD = "paired-approximate-randomization"
# Swap-mask cells (iterations x lines) drawn per significance chunk. The
# float64 draw and the mask's float64 cast each take 8 bytes a cell, so a
# chunk stays near 2 MB. The draw fills row by row, so the chunk size never
# changes a p-value.
_SIGNIFICANCE_CHUNK_CELLS = 250_000


class ChrfError(ValueError):
    pass


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


def sentence_stats(hypothesis: str, reference: str, char_order: int = CHAR_ORDER,
                   word_order: int = WORD_ORDER) -> np.ndarray:
    """One sentence pair's row of ``stats_matrix``. Nothing in the package
    calls it; it stays only because the benchmark's tracer wraps it by
    name, and goes once ROADMAP item 3 re-points that wrapper."""
    return stats_matrix([hypothesis], [reference], char_order, word_order)[0]


def _ngram_stats(ids: np.ndarray, lengths: list, n: int, max_order: int, base: int):
    """Clipped matches, hypothesis totals and reference totals of n-gram
    orders 1..max_order, each an ``n x max_order`` int64 array.

    ``ids`` holds the unigram ids (each below ``base``) of the n hypothesis
    lines followed by the n reference lines; ``lengths`` gives those 2n line
    lengths. An order-k n-gram is keyed by ``gid * base + last unigram``,
    where ``gid`` is the dense id of the pair (line, its first k-1 unigrams)
    found at order k-1 and the line itself at order 1. Keys of different
    n-grams or lines therefore never collide, and every key stays below
    ``base * max(n, len(ids))``, far inside int64.

    Per order, ``np.unique(keys, return_inverse=True)`` gives each position
    its n-gram's dense id, the next order's ``gid``; ``np.bincount(id * 2 +
    is_reference)`` counts each n-gram on both sides, and the smaller count
    is its clipped match.
    """
    lengths = np.array(lengths, dtype=np.int64)
    totals = np.maximum(lengths[:, None] - np.arange(max_order), 0)
    matched = np.zeros((n, max_order), dtype=np.int64)
    split = int(lengths[:n].sum())  # positions from here on are references
    end = np.repeat(np.cumsum(lengths), lengths)
    pos = np.arange(len(ids), dtype=np.int64)
    gid = np.repeat(np.tile(np.arange(n, dtype=np.int64), 2), lengths)
    group_line = np.arange(n, dtype=np.int64)
    for k in range(max_order):
        if k:
            keep = pos + k < end[pos]  # the n-gram ends inside its line
            pos, gid = pos[keep], gid[keep]
            del keep
        if not len(pos):
            break
        gid *= base  # the (line, n-gram) key, built in place
        gid += ids[pos + k]
        grams, gid = np.unique(gid, return_inverse=True)
        counts = np.bincount(gid * 2 + (pos >= split), minlength=2 * len(grams))
        group_line = group_line[grams // base]
        matched[:, k] = np.bincount(group_line, weights=np.minimum(counts[::2], counts[1::2]),
                                    minlength=n)
    return matched, totals[:n], totals[n:]


def stats_matrix(hypotheses, references, char_order: int = CHAR_ORDER,
                 word_order: int = WORD_ORDER) -> np.ndarray:
    """``n x 3·orders`` int64 matrix of per-sentence statistics: each row is
    one line's matched, hypothesis-total and reference-total counts.

    All lines are counted in one batch: the characters (whitespace removed)
    of every line form one code-point array, the words one array of dense
    word ids, and each order's n-grams are counted with one ``np.unique`` of
    their (line, n-gram) keys (``_ngram_stats``).
    """
    hypotheses = list(hypotheses)
    references = list(references)
    if len(hypotheses) != len(references):
        raise ChrfError("hypothesis/reference line counts differ: %d vs %d"
                        % (len(hypotheses), len(references)))
    if char_order < 0 or word_order < 0:
        raise ChrfError("n-gram orders must be >= 0, got char %d, word %d"
                        % (char_order, word_order))
    n = len(hypotheses)
    words = [line.split() for line in hypotheses + references]
    chars = ["".join(w) for w in words]
    vocab = {}
    word_ids = np.array([vocab.setdefault(w, len(vocab)) for line in words for w in line],
                        dtype=np.int64)
    # surrogatepass: a lone surrogate is one code point, as it is in a str.
    code_points = np.frombuffer("".join(chars).encode("utf-32-le", "surrogatepass"),
                                dtype="<u4").astype(np.int64)
    char_stats = _ngram_stats(code_points, [len(c) for c in chars], n, char_order,
                              int(code_points.max(initial=0)) + 1)
    word_stats = _ngram_stats(word_ids, [len(w) for w in words], n, word_order, len(vocab))
    return np.hstack([part for pair in zip(char_stats, word_stats) for part in pair])


def corpus_chrf(stats, beta: float = DEFAULT_BETA) -> ChrfScore:
    """Aggregate a ``stats_matrix`` into one corpus score."""
    if len(stats) == 0:
        raise ChrfError("empty statistics matrix")
    stats = np.asarray(stats, dtype=np.int64)
    _check_width(stats)
    sums = stats.sum(axis=0)
    return ChrfScore(float(_scores_from_sum_rows(sums[None, :], len(sums) // 3, beta)[0]),
                     beta)


def _check_width(matrix: np.ndarray):
    """Refuse statistics that are not an ``n x 3·orders`` matrix with at
    least one order."""
    if matrix.ndim != 2 or matrix.shape[1] == 0 or matrix.shape[1] % 3:
        raise ChrfError("statistics of shape %s: the width must be a positive multiple of 3 "
                        "(matched, hypothesis and reference counts per order)"
                        % (matrix.shape,))


def corpus_chrf_from_lines(hypotheses, references, beta: float = DEFAULT_BETA,
                           char_order: int = CHAR_ORDER,
                           word_order: int = WORD_ORDER) -> ChrfScore:
    return corpus_chrf(stats_matrix(hypotheses, references, char_order, word_order), beta)


def _scores_from_sum_rows(sums: np.ndarray, orders: int, beta: float) -> np.ndarray:
    m = sums[:, :orders]
    h = sums[:, orders:2 * orders]
    r = sums[:, 2 * orders:]
    nkept = ((h > 0) | (r > 0)).sum(axis=1)
    prec = np.divide(m, h, out=np.zeros(h.shape), where=h > 0).sum(axis=1)
    rec = np.divide(m, r, out=np.zeros(r.shape), where=r > 0).sum(axis=1)
    p = prec / np.maximum(nkept, 1)
    q = rec / np.maximum(nkept, 1)
    b2 = beta * beta
    denom = b2 * p + q
    return np.divide(100.0 * (1.0 + b2) * p * q, denom, out=np.zeros(len(denom)),
                     where=denom > 0)


def paired_significance_stats(systems, baseline, iterations: int = 10000,
                              seed: int = 0) -> list:
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
    _check_width(mat_b)
    n, width = mat_b.shape
    orders = width // 3
    base_b = mat_b.sum(axis=0)
    score_b = _scores_from_sum_rows(base_b[None, :], orders, DEFAULT_BETA)[0]

    tests = []  # (A's column sums, row-swap mass moved from A to B, A's score)
    for system in systems:
        mat_a = np.asarray(system, dtype=np.float64)
        if mat_a.shape != mat_b.shape:
            raise ChrfError("statistics shapes differ: system %s, baseline %s"
                            % (mat_a.shape, mat_b.shape))
        base_a = mat_a.sum(axis=0)
        tests.append((base_a, mat_b - mat_a,
                      _scores_from_sum_rows(base_a[None, :], orders, DEFAULT_BETA)[0]))

    rng = np.random.default_rng(seed)
    counts = [0] * len(tests)
    chunk = max(1, min(iterations, _SIGNIFICANCE_CHUNK_CELLS // n))
    done = 0
    while done < iterations:
        k = min(chunk, iterations - done)
        mask = rng.random((k, n)) < 0.5
        # Cast per system: a float copy of the mask kept across the loop
        # raises peak memory by its size.
        for j, (base_a, diff, score_a) in enumerate(tests):
            shift = mask.astype(np.float64) @ diff
            sa = _scores_from_sum_rows(base_a[None, :] + shift, orders, DEFAULT_BETA)
            sb = _scores_from_sum_rows(base_b[None, :] - shift, orders, DEFAULT_BETA)
            counts[j] += int(np.sum(np.abs(sa - sb) >= abs(score_a - score_b) - 1e-12))
        done += k

    results = []
    for (_, _, score_a), count in zip(tests, counts):
        better = "A" if score_a > score_b else ("B" if score_b > score_a else "tie")
        results.append(SignificanceResult((count + 1) / (iterations + 1), iterations,
                                          seed, better, score_a - score_b))
    return results


def paired_significance(hyps_a, hyps_b, refs, iterations: int = 10000,
                        seed: int = 0) -> SignificanceResult:
    """Paired approximate randomization of system A against system B."""
    hyps_a, hyps_b, refs = list(hyps_a), list(hyps_b), list(refs)
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ChrfError("line counts differ: A=%d B=%d refs=%d"
                        % (len(hyps_a), len(hyps_b), len(refs)))
    return paired_significance_stats([stats_matrix(hyps_a, refs)], stats_matrix(hyps_b, refs),
                                     iterations, seed)[0]
