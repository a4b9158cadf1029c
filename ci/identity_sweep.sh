#!/usr/bin/env bash
# An identity sweep through the installed `asymbpe` entry point, then a
# resume with a smaller grid and two `report --run-dir` runs, each of which
# must leave the reports byte-identical.
#
# Usage: bash ci/identity_sweep.sh WORK_DIR
# WORK_DIR must exist; the script works in WORK_DIR/"sweep dir", which must
# not. `asymbpe` and a `python` that imports the package must be on PATH.
set -e
# A directory name with a space: each placeholder must reach the
# backend as one shell word.
mkdir "$1/sweep dir" && cd "$1/sweep dir"
for i in $(seq 1 60); do echo "the cat $i sat on mat $((i % 7))"; done > train.txt
head -n 8 train.txt > test.txt
tail -n 6 train.txt > dev.txt
cat > experiment.json <<'JSON'
{"train_src": "train.txt", "train_tgt": "train.txt",
 "valid_src": "dev.txt", "valid_tgt": "dev.txt",
 "test_src": "test.txt", "test_tgt": "test.txt",
 "extra_test_sets": [{"name": "dev", "src": "dev.txt", "tgt": "dev.txt"}],
 "direction": "en-hi", "sizes": [40, 30], "nmo_set": [10, 20], "repetitions": 2,
 "backend": "sed 's/@@ //g' {test_src} > {hyp_out}",
 "output_dir": "runs", "significance_iterations": 100}
JSON
asymbpe sweep --config experiment.json --workers 2
if grep -q 'failed$' runs/results.tsv; then exit 1; fi
# `asymbpe sample` with its default bins and granularity draws the sweep's
# default sample of a cell: seed 0 + rep 0.
asymbpe sample --src train.txt --tgt train.txt --size 40 --seed 0 --out-prefix cli40
cmp cli40.manifest.json runs/size40/rep0/sample/manifest.json
cmp cli40.src runs/size40/rep0/sample/train.src
cmp cli40.tgt runs/size40/rep0/sample/train.tgt
cp runs/results.tsv swept.tsv
cp runs/src_nmo_max.tsv swept_max.tsv
cp runs/summary.tsv swept_summary.tsv
cp runs/manifest.json swept_manifest.json
cp -r runs/tiers swept_tiers
same_reports() {
  cmp swept.tsv runs/results.tsv
  cmp swept_max.tsv runs/src_nmo_max.tsv
  cmp swept_summary.tsv runs/summary.tsv
}
# A resume with fewer NMOs keeps and reports every run on disk; its
# manifest records the smaller grid and changes nothing else.
sed 's/"nmo_set": \[10, 20\]/"nmo_set": [10]/' experiment.json > cut.json
grep -q '"nmo_set": \[10\]' cut.json
asymbpe sweep --config cut.json
same_reports
diff -r swept_tiers runs/tiers
python - <<'PY'
import json
swept, cut = (json.load(open(p, encoding="utf-8"))
              for p in ("swept_manifest.json", "runs/manifest.json"))
assert cut == dict(swept, nmo_set=[10], planned_runs=8), cut
PY
cp runs/manifest.json cut_manifest.json
asymbpe report --run-dir runs
same_reports
cmp cut_manifest.json runs/manifest.json
test "$(ls runs/tiers | wc -l)" -eq 16  # .tsv and .txt for 2 sizes x 2 reps x 2 test sets
# Blank every p-value, as a sweep stopped before evaluating leaves them;
# report --run-dir computes them again.
python -c "import json, pathlib; [p.write_text(json.dumps(dict(json.loads(p.read_text()), p_vs_baseline=None, baseline=None))) for p in pathlib.Path('runs').rglob('record.json')]"
asymbpe report --run-dir runs
same_reports
cmp cut_manifest.json runs/manifest.json
if asymbpe report --run-dir runs/results.tsv; then exit 1; fi
