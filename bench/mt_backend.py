"""Deterministic stand-in for an MT backend (stdlib only).

Usage: mt_backend.py TRAIN_SRC TRAIN_TGT TEST_SRC HYP_OUT

Learns a piece-level translation table from the position-aligned segmented
training pair (source piece i of an m-piece line aligns with target piece
i*n//m of an n-piece line; each source piece maps to its most frequent
target piece, ties to the smallest) and translates the segmented test
source with it. Unknown pieces are dropped.

The benchmark uses this instead of ``mock:identity`` because the mock
copies the de-segmented source, so every hypothesis in a cell is identical,
every CHRF++ score and p-value coincide, and ``chrf.sentence_stats`` sees
only 1/|configs| distinct (hyp, ref) pairs. A cross-run cache or an
"identical systems" shortcut would then win on the benchmark only. Here the
hypotheses depend on each configuration's segmented inputs, so scores differ
across configurations and p-values are not all 1.
"""

import sys
from collections import Counter, defaultdict

CONTINUATION = "@@"


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh]


def learn(src_lines, tgt_lines):
    counts = defaultdict(Counter)
    for src, tgt in zip(src_lines, tgt_lines):
        if not src or not tgt:
            continue
        m, n = len(src), len(tgt)
        for i, piece in enumerate(src):
            counts[piece][tgt[i * n // m]] += 1
    return {piece: min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for piece, c in counts.items()}


def translate(table, pieces):
    out = [table[p] for p in pieces if p in table]
    if out and out[-1].endswith(CONTINUATION):
        out[-1] = out[-1][:-len(CONTINUATION)]
    return " ".join(out)


def main(argv):
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    train_src, train_tgt, test_src, hyp_out = argv
    table = learn(read_lines(train_src), read_lines(train_tgt))
    with open(hyp_out, "w", encoding="utf-8") as fh:
        for pieces in read_lines(test_src):
            fh.write(translate(table, pieces) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
