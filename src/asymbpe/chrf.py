"""Corpus-level CHRF++ and paired approximate-randomization significance.

CHRF++ is one metric here, with no switch for another: character n-grams
of orders 1-6 (``CHAR_ORDER``) computed on text with all whitespace
removed, word n-grams of orders 1-2 (``WORD_ORDER``) on whitespace tokens,
clipped matches, uniform averaging of precision/recall across the 8 orders,
and an F-score with beta = 2 (``BETA``). Orders empty on both sides are
skipped; an order empty on one side only contributes 0. Scores are in
[0, 100].
The scorer computes precision, recall and the F-score with one masked
``np.divide`` each, leaving 0 where the denominator is 0. A skipped order
has both totals 0 and so adds 0 to both sums: only the count of kept
orders has to leave it out.

Scores and tests work from per-sentence sufficient statistics: an
``n x 24`` integer matrix (``stats_matrix``) whose row holds one sentence's
clipped matches, hypothesis totals and reference totals of the 8 orders.
Any other shape is refused, and so is a matrix of no rows, an empty test
set. A system's matrix is computed once, scored with ``corpus_chrf``, which
returns a plain float, and handed to ``paired_significance_stats`` without
rescoring any text. The score and the test share one scorer, so two systems
whose corpus scores are equal test as a tie, and the test's observed
difference is the difference of the two corpus scores to the last bit.

``stats_matrix`` counts a corpus in blocks of lines, with no per-sentence
n-gram dictionaries and in bounded working memory: it takes the two sides
as iterables and consumes one block at a time, a block holding lines until
their hypothesis plus reference characters would pass
``_STATS_BLOCK_CHARS`` (a longer single line forms a block of its own). In
a block, each line is split once, the characters of its lines become one
code-point array and the words one array of dense word ids. For each order,
every n-gram gets an integer key built from the dense id of its (line,
first n-1 unigrams) and its last unigram. One ``np.unique`` of the keys
gives each distinct (line, n-gram) a dense id, which is also the prefix id
of the next order's keys; one ``np.bincount`` of (id, side) gives its
hypothesis and reference counts, and the clipped match is the smaller.
The keys are exact, not hashes: an n-gram's key determines its line and
unigrams, so distinct n-grams never share a key, and every key stays far
below 2^63. A row only ever counts its own line, so the blocks' rows, in
order, are the rows of the whole corpus counted at once.
N-grams that would span two lines, or the end of the hypotheses and the
start of the references, are never formed.

The significance test is paired approximate randomization: each iteration
swaps every sentence's two system outputs independently with probability
1/2 and recounts how often the absolute corpus-score difference is at least
the observed one; p = (count + 1) / (iterations + 1). Several systems tested
against one baseline with one seed share each drawn swap mask, so every
system's p-value equals the one a separate pairwise test gives. The S
systems' row-swap differences sit side by side in one ``n x S·24`` array,
so each chunk of k masks makes one ``mask @ diff`` product for all systems,
and each side's shifted sums are scored with one call over ``k·S`` rows.
Chunks are small (``_SIGNIFICANCE_CHUNK_CELLS``), so besides the difference
array the test's working memory stays near a megabyte.
The statistics are integer counts and the mask is 0/1, so every sum is exact
in float64 and no p-value depends on the product's summation order.

numpy is imported by the functions that compute with it, not with this
module, which ``import asymbpe`` loads. So the commands that only segment,
sample or recommend never load numpy (about 13 MB of RSS and 60-100 ms),
and a process that prepares and then scores, as a sweep does, imports it
into memory that learning and segmentation have already freed. The first
scoring call in a process pays the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

CHAR_ORDER = 6
WORD_ORDER = 2
BETA = 2.0
# Columns of a statistics row: matched, hypothesis and reference counts of
# each of the CHAR_ORDER + WORD_ORDER orders.
WIDTH = 3 * (CHAR_ORDER + WORD_ORDER)

SIGNIFICANCE_METHOD = "paired-approximate-randomization"
# Float64 cells per significance chunk and array. Each iteration of a chunk
# draws n mask cells (one per line) and shifts S·24 column sums (S
# systems), so a chunk holds 65,536 // (n + S·24) iterations and each of
# its draw, float mask and shifted sums stays near 512 KB; but never fewer
# than _SIGNIFICANCE_CHUNK_MIN_ITERATIONS, because every chunk reads the
# whole n x S·24 difference array once. The draw fills row by row, so
# the chunk size never changes a p-value.
_SIGNIFICANCE_CHUNK_CELLS = 65_536
_SIGNIFICANCE_CHUNK_MIN_ITERATIONS = 64
# Hypothesis plus reference characters of the lines that stats_matrix
# counts at once. A block's key arrays take up to about 200 bytes per
# character, so its working memory stays within about 3 MB whatever the
# corpus size.
_STATS_BLOCK_CHARS = 16_384


class ChrfError(ValueError):
    pass


@dataclass
class SignificanceResult:
    p_value: float
    iterations: int
    seed: int
    better_system: str
    observed_difference: float


def sentence_stats(hypothesis: str, reference: str) -> np.ndarray:
    """One sentence pair's row of ``stats_matrix``. Nothing in the package
    calls it; it stays only because the benchmark's tracer wraps it by
    name, and goes once ROADMAP item 3 re-points that wrapper."""
    return stats_matrix([hypothesis], [reference])[0]


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
    import numpy as np
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


def _line_blocks(hypotheses, references):
    """Yield the line pairs of two iterables as blocks ``(hypotheses,
    references)`` of at most ``_STATS_BLOCK_CHARS`` characters, a longer
    pair forming a block of its own; an empty corpus is one empty block.
    Both sides are consumed one block at a time and counted to the end, and
    unequal line counts are refused after the last block."""
    hyps, refs = [], []
    chars = pairs = extra_hyps = extra_refs = 0
    for hyp, ref in zip_longest(hypotheses, references):
        if hyp is None or ref is None:  # one side has run out: count the other
            extra_hyps += hyp is not None
            extra_refs += ref is not None
            continue
        size = len(hyp) + len(ref)
        if hyps and chars + size > _STATS_BLOCK_CHARS:
            yield hyps, refs
            hyps, refs, chars = [], [], 0
        hyps.append(hyp)
        refs.append(ref)
        chars += size
        pairs += 1
    if extra_hyps or extra_refs:
        raise ChrfError("hypothesis/reference line counts differ: %d vs %d"
                        % (pairs + extra_hyps, pairs + extra_refs))
    yield hyps, refs


def _block_stats(hypotheses: list, references: list) -> np.ndarray:
    """The ``stats_matrix`` rows of one block of lines, counted in one
    batch: the characters (whitespace removed) of its lines form one
    code-point array, the words one array of dense word ids, and each
    order's n-grams are counted with one ``np.unique`` of their (line,
    n-gram) keys (``_ngram_stats``)."""
    import numpy as np
    n = len(hypotheses)
    words = [line.split() for line in hypotheses + references]
    chars = ["".join(w) for w in words]
    vocab = {}
    word_ids = np.array([vocab.setdefault(w, len(vocab)) for line in words for w in line],
                        dtype=np.int64)
    # surrogatepass: a lone surrogate is one code point, as it is in a str.
    code_points = np.frombuffer("".join(chars).encode("utf-32-le", "surrogatepass"),
                                dtype="<u4").astype(np.int64)
    char_stats = _ngram_stats(code_points, [len(c) for c in chars], n, CHAR_ORDER,
                              int(code_points.max(initial=0)) + 1)
    word_stats = _ngram_stats(word_ids, [len(w) for w in words], n, WORD_ORDER, len(vocab))
    return np.hstack([part for pair in zip(char_stats, word_stats) for part in pair])


def stats_matrix(hypotheses, references) -> np.ndarray:
    """``n x 24`` int64 matrix of per-sentence statistics: each row is
    one line's matched, hypothesis-total and reference-total counts.

    ``hypotheses`` and ``references`` may be any iterables of lines, such as
    two ``textfiles.iter_lines``: they are read one block of lines at a time
    (``_line_blocks``) and each block is counted in one batch
    (``_block_stats``), so the working memory is one block's plus the rows.
    Unequal line counts are refused, both counted to the end.
    """
    import numpy as np
    # Each block's rows are appended to one growing buffer, so the rows are
    # never held twice, as stacking a list of blocks would hold them.
    rows, n = bytearray(), 0
    for hyps, refs in _line_blocks(hypotheses, references):
        rows += _block_stats(hyps, refs).data
        n += len(hyps)
    return np.frombuffer(rows, dtype=np.int64).reshape(n, WIDTH)


def corpus_chrf(stats) -> float:
    """Aggregate a ``stats_matrix`` into one corpus score in [0, 100]."""
    import numpy as np
    stats = np.asarray(stats, dtype=np.int64)
    _check_shape(stats, "score")
    return float(_scores_from_sum_rows(stats.sum(axis=0)[None, :])[0])


def _check_shape(matrix: np.ndarray, task: str):
    """Refuse statistics that are not an ``n x 24`` matrix of one or more
    rows; ``task`` says what an empty test set leaves nothing to do."""
    if matrix.ndim and not len(matrix):
        raise ChrfError("empty test set: no sentences to %s" % task)
    if matrix.ndim != 2 or matrix.shape[1] != WIDTH:
        raise ChrfError("statistics of shape %s: CHRF++ statistics are (n, %d), the "
                        "matched, hypothesis and reference counts of %d orders"
                        % (matrix.shape, WIDTH, CHAR_ORDER + WORD_ORDER))


def corpus_chrf_from_lines(hypotheses, references) -> float:
    return corpus_chrf(stats_matrix(hypotheses, references))


def _scores_from_sum_rows(sums: np.ndarray) -> np.ndarray:
    import numpy as np
    orders = CHAR_ORDER + WORD_ORDER
    m = sums[:, :orders]
    h = sums[:, orders:2 * orders]
    r = sums[:, 2 * orders:]
    nkept = ((h > 0) | (r > 0)).sum(axis=1)
    prec = np.divide(m, h, out=np.zeros(h.shape), where=h > 0).sum(axis=1)
    rec = np.divide(m, r, out=np.zeros(r.shape), where=r > 0).sum(axis=1)
    p = prec / np.maximum(nkept, 1)
    q = rec / np.maximum(nkept, 1)
    b2 = BETA * BETA
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
    import numpy as np
    if iterations < 1:
        raise ChrfError("iterations must be >= 1")
    if seed < 0:
        raise ChrfError("the significance seed must be >= 0, got %d" % seed)
    mat_b = np.asarray(baseline, dtype=np.float64)
    _check_shape(mat_b, "compare")
    n = len(mat_b)
    base_b = mat_b.sum(axis=0)
    score_b = _scores_from_sum_rows(base_b[None, :])[0]

    systems = list(systems)
    if not systems:
        return []
    # Each system's column sums, and its row-swap differences (the mass a
    # swap moves from A to B) side by side: column block j is system j's.
    base_a = np.empty((len(systems), WIDTH))
    diff = np.empty((n, len(systems) * WIDTH))
    for j, system in enumerate(systems):
        mat_a = np.asarray(system, dtype=np.float64)
        if mat_a.shape != mat_b.shape:
            raise ChrfError("statistics shapes differ: system %s, baseline %s"
                            % (mat_a.shape, mat_b.shape))
        base_a[j] = mat_a.sum(axis=0)
        np.subtract(mat_b, mat_a, out=diff[:, j * WIDTH:(j + 1) * WIDTH])
    score_a = _scores_from_sum_rows(base_a)
    observed = np.abs(score_a - score_b) - 1e-12

    rng = np.random.default_rng(seed)
    counts = np.zeros(len(systems), dtype=np.int64)
    chunk = min(iterations, max(_SIGNIFICANCE_CHUNK_MIN_ITERATIONS,
                                _SIGNIFICANCE_CHUNK_CELLS // (n + diff.shape[1])))
    done = 0
    while done < iterations:
        k = min(chunk, iterations - done)
        mask = rng.random((k, n)) < 0.5
        shift = (mask.astype(np.float64) @ diff).reshape(k, len(systems), WIDTH)
        sa = _scores_from_sum_rows((base_a + shift).reshape(-1, WIDTH))
        sb = _scores_from_sum_rows((base_b - shift).reshape(-1, WIDTH))
        counts += (np.abs(sa - sb).reshape(k, len(systems)) >= observed).sum(axis=0)
        done += k

    results = []
    for a, count in zip(score_a, counts):
        better = "A" if a > score_b else ("B" if score_b > a else "tie")
        results.append(SignificanceResult((int(count) + 1) / (iterations + 1), iterations,
                                          seed, better, a - score_b))
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
