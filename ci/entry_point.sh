#!/usr/bin/env bash
# Round trips through the installed `asymbpe` entry point: import-time
# checks, learn-bpe / apply-bpe / unbpe identities, refusals of bad input,
# and peak-RSS bounds of chrf, apply-bpe and sample.
#
# Usage: bash ci/entry_point.sh WORK_DIR
# WORK_DIR must exist; the script writes its files there. `asymbpe` and a
# `python` that imports the package must be on PATH.
set -e
cd "$1"
# numpy is imported at the first CHRF++ computation, not with the package.
python -X importtime -c "import asymbpe.cli, asymbpe.orchestrator" 2> importtime.txt
if grep -E '\| +numpy(\.|$)' importtime.txt; then exit 1; fi
# Only sweep and report import orchestrator, and parse_nmo
# imports fractions only for K-notation.
python -X importtime -c "import asymbpe.cli" 2> cli-importtime.txt
if grep -E '\| +(asymbpe\.orchestrator|concurrent\.futures|fractions)(\.|$)' cli-importtime.txt; then exit 1; fi
printf 'the cat sat\nthe cat ran\nदेखो the mats\n' > corpus.txt
asymbpe learn-bpe --input corpus.txt --nmo 0.01K --output corpus.bpe
asymbpe learn-bpe --input corpus.txt --nmo 0.005K --output corpus5.bpe
head -n 6 corpus.bpe | cmp - corpus5.bpe
# Learned to exhaustion, past the count-1 merges, the table keeps the prefix.
asymbpe learn-bpe --input corpus.txt --nmo 1K --output all.bpe
head -n 11 all.bpe | cmp - corpus.bpe
if asymbpe learn-bpe --input corpus.txt --nmo 0.0025K --output frac.bpe; then exit 1; fi
if printf 'ab\xff\n' | asymbpe unbpe; then exit 1; fi
asymbpe learn-bpe --input corpus.txt --nmo 0.01K --output newdir/corpus.bpe
cmp newdir/corpus.bpe corpus.bpe
{ head -n 1 corpus.bpe; printf 't h\xff\n'; } > bad.bpe
if asymbpe apply-bpe --table bad.bpe --input corpus.txt; then exit 1; fi
asymbpe apply-bpe --table corpus.bpe --input corpus.txt --output corpus.seg
test "$(printf 'the cat\rsat\n' | asymbpe apply-bpe --table corpus.bpe | wc -l)" -eq 1
asymbpe unbpe --input corpus.seg --output corpus.out
cmp corpus.txt corpus.out
cp corpus.txt inplace.txt
asymbpe apply-bpe --table corpus.bpe --input inplace.txt --output inplace.txt
cmp inplace.txt corpus.seg
asymbpe unbpe --input inplace.txt --output inplace.txt
cmp inplace.txt corpus.txt
# CHRF++ counts the lines in blocks: scoring two 20,000-line files
# takes a fraction of the memory that counting them at once needs
# (over 200 MB).
python - <<'PY'
import random, resource, subprocess
rng = random.Random(0)
words = ["".join(rng.choices("abcdefghijklmnop", k=rng.randint(2, 8))) for _ in range(2000)]
for name in ("big.hyp", "big.ref"):
    with open(name, "w", encoding="utf-8") as fh:
        for _ in range(20000):
            fh.write(" ".join(rng.choices(words, k=rng.randint(3, 10))) + "\n")
subprocess.run(["asymbpe", "chrf", "--hyp", "big.hyp", "--ref", "big.ref"], check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("asymbpe chrf on 20,000 lines: peak RSS %.1f MB" % peak_mb)
assert peak_mb < 100, peak_mb
PY
# Segmenting never loads numpy: apply-bpe peaks near 20 MB, where
# a process that imports numpy peaks above 32 MB.
asymbpe learn-bpe --input big.ref --nmo 8K --output big.bpe
python - <<'PY'
import resource, subprocess
subprocess.run(["asymbpe", "apply-bpe", "--table", "big.bpe", "--input", "big.hyp",
                "--output", "big.seg"], check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("asymbpe apply-bpe on 20,000 lines: peak RSS %.1f MB" % peak_mb)
assert peak_mb < 26, peak_mb
PY
# Sampling holds one index per pool line and the sample, not the
# pool's lines: 5,000 pairs of a 100,000-line pool peak near 21 MB,
# where holding both sides of the pool took about 60 MB.
python - <<'PY'
import random, resource, subprocess
rng = random.Random(0)
words = ["".join(rng.choices("abcdefghijklmnop", k=rng.randint(2, 8))) for _ in range(2000)]
for name in ("pool.src", "pool.tgt"):
    with open(name, "w", encoding="utf-8") as fh:
        for _ in range(100000):
            fh.write(" ".join(rng.choices(words, k=rng.randint(1, 45))) + "\n")
subprocess.run(["asymbpe", "sample", "--src", "pool.src", "--tgt", "pool.tgt",
                "--size", "5000", "--seed", "1", "--out-prefix", "pool.s5k"], check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("asymbpe sample of 5,000 pairs from 100,000 lines: peak RSS %.1f MB" % peak_mb)
assert peak_mb < 35, peak_mb
PY
