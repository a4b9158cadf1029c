"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from asymbpe import bpe, chrf
from asymbpe.bpe import MergeRule, MergeTable, learn_bpe, segment_line, unsegment
from asymbpe.orchestrator import emit_report, load_experiment, run_sweep
from asymbpe.sampler import BinPlan, make_bins, make_sample_plan
from asymbpe.sweep import (PAPER_NMO_SET, BpeConfig, SystemResult,
                           enumerate_grid, tier_report)
from conftest import (FULL_CORPUS_BIN_COUNTS, FULL_CORPUS_TOTAL,
                      PUBLISHED_TIER_TABLES, QUOTAS_100K, oracle_learn,
                      random_word_freqs)
from test_chrf import TINY_SCORE, oracle_stats
from test_orchestrator import write_config, write_toy_corpus


def report(n, text):
    print("PASS criterion %d: %s" % (n, text))


def mixed_script_corpus(n_lines=10_000, seed=42):
    rng = random.Random(seed)
    scripts = [(0x61, 26), (0x900, 80), (0x430, 32), (0x4E00, 100), (0x30, 10)]

    def word():
        base, span = rng.choice(scripts)
        return "".join(chr(base + rng.randrange(span)) for _ in range(rng.randint(1, 8)))

    vocab = [word() for _ in range(3000)]
    return [" ".join(rng.choices(vocab, k=rng.randint(3, 15))) for _ in range(n_lines)]


def test_criterion_1_bpe_oracle_equivalence():
    rng = random.Random(101)
    start = time.time()
    for _ in range(200):
        freqs = random_word_freqs(rng, max_types=50)
        nmo = rng.randint(0, 30)
        got = [r.pair for r in learn_bpe(freqs, nmo).rules]
        assert got == oracle_learn(freqs, nmo)
    elapsed = time.time() - start
    assert elapsed < 10.0, "oracle equivalence took %.1fs" % elapsed
    report(1, "200 corpora match the recount-every-step oracle rule-for-rule "
              "(%.1fs)" % elapsed)


def test_criterion_2_prefix_property():
    rng = random.Random(202)
    for _ in range(50):
        freqs = random_word_freqs(rng, max_types=50, max_len=8)
        m = rng.randint(2, 200)
        n = rng.randint(1, m - 1)
        big = learn_bpe(freqs, m).rules
        small = learn_bpe(freqs, n).rules
        assert small == big[:len(small)]
    report(2, "50 corpora: the n-rule table is an exact prefix of the m-rule table")


def test_criterion_3_roundtrip_mixed_script():
    lines = mixed_script_corpus()
    mismatches = 0
    for nmo in (0, 500, 2000):
        table = learn_bpe(lines, nmo)
        for line in lines:
            if unsegment(segment_line(table, line)) != line:
                mismatches += 1
    assert mismatches == 0
    report(3, "roundtrip over 10,000 mixed-script lines at NMO {0, 500, 2000}: "
              "zero mismatches")


def test_criterion_4_table_1_replay():
    pairs = [("b", "o"), ("s", "u"), ("s", "c"), ("sc", "o" + bpe.END)]
    table = MergeTable([MergeRule(l, r) for l, r in pairs])
    assert segment_line(table, "bosusco") == "bo@@ su@@ sco"
    empty = MergeTable([])
    for word in ("bosusco", "runs", "a"):
        expected = " ".join(c + "@@" for c in word[:-1]) + (" " if len(word) > 1 else "") + word[-1]
        assert segment_line(empty, word) == expected
    report(4, 'constructed table segments "bosusco" -> "bo@@ su@@ sco"; '
              "zero-merge split places @@ on every non-final character")


def test_criterion_5_chrf_oracles():
    lines = ["the cat sat", "on the mat", "birds fly"]
    assert chrf.corpus_chrf_from_lines(lines, lines).value == pytest.approx(100.0, abs=1e-9)
    assert chrf.corpus_chrf_from_lines(["abcd", "efg"], ["wxyz", "uvt"]).value == 0.0
    matrix = chrf.stats_matrix(["the cat"], ["the cats"])
    matched, hyp_total, ref_total = oracle_stats("the cat", "the cats")
    assert matrix[0].tolist() == matched + hyp_total + ref_total
    assert chrf.corpus_chrf(matrix).value == pytest.approx(TINY_SCORE, abs=1e-6)
    report(5, "identity corpus 100.00, disjoint corpus 0.00, hand-derived tiny "
              "corpus matches within 1e-6")


def test_criterion_6_significance_calibration():
    refs0 = ["the cat sat", "on a mat", "dogs run"]
    identical = chrf.paired_significance(refs0, refs0, refs0, iterations=1000, seed=3)
    assert identical.p_value == 1.0

    start = time.time()
    rng = random.Random(2024)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    low = 0
    trials = 200
    for trial in range(trials):
        refs = [" ".join(rng.choices(words, k=8)) for _ in range(30)]

        def noisy(line, salt):
            local = random.Random(salt)
            return " ".join(w if local.random() > 0.3 else "junk%d" % local.randrange(5)
                            for w in line.split())

        sys_a = [noisy(r, trial * 1000 + i) for i, r in enumerate(refs)]
        sys_b = [noisy(r, 7_000_000 + trial * 1000 + i) for i, r in enumerate(refs)]
        p = chrf.paired_significance(sys_a, sys_b, refs, iterations=1000,
                                     seed=trial).p_value
        if p <= 0.05:
            low += 1
    elapsed = time.time() - start
    fraction = low / trials
    assert 0.01 <= fraction <= 0.09, "null rejection rate %.3f" % fraction
    assert elapsed < 120.0
    report(6, "identical systems p = 1.0 exactly; null rejection rate %.3f in "
              "[0.01, 0.09] (%.1fs)" % (fraction, elapsed))


def test_criterion_7_sampler_replay():
    plan = BinPlan(make_bins(), list(FULL_CORPUS_BIN_COUNTS), FULL_CORPUS_TOTAL)
    sample = make_sample_plan(plan, 100_000, seed=1)
    listed = [34130, 20230, 14060, 10440, 5140, 3370, 5070]
    got_listed = sample.per_bin_quota[:4] + sample.per_bin_quota[5:]
    assert got_listed == listed
    assert sample.per_bin_quota[4] == 7550
    assert sum(sample.per_bin_quota) == 99_990
    report(7, "quotas replay the published 0.1M sample exactly "
              "(incl. derived 26-30 quota 7,550; total 99,990)")


def test_criterion_8_tier_replay():
    checked = 0
    for direction, table in PUBLISHED_TIER_TABLES.items():
        for size, cell in table.items():
            results = [SystemResult(BpeConfig(src, tgt), score)
                       for src, tgt, score, _ in cell.values()]
            rep = tier_report(results)
            for tier, result, delta in rep.rows():
                src, tgt, score, expected_delta = cell[tier]
                assert result.config == BpeConfig(src, tgt), (direction, size, tier)
                assert delta == pytest.approx(expected_delta, abs=0.005), \
                    (direction, size, tier)
            checked += 1
    assert checked == 12
    report(8, "published tier tables replay across 12 cells")


def test_criterion_9_grid_cardinality(tmp_path):
    assert len(enumerate_grid(PAPER_NMO_SET)) == 64
    corpus = write_toy_corpus(str(tmp_path))
    total = 0
    for direction in ("en-hi", "hi-en"):
        path = write_config(
            str(tmp_path), corpus, direction=direction,
            sizes=[50_000, 100_000, 500_000, 1_000_000, 4_000_000, 8_000_000],
            nmo_set=["0.5K", "1K", "2K", "4K", "8K", "16K", "25K", "32K"])
        total += load_experiment(path).planned_runs()
    assert total == 768
    report(9, "8-NMO grid yields 64 configurations per direction; paper-scale "
              "configs plan 768 runs")


def test_criterion_10_end_to_end(tmp_path):
    start = time.time()
    corpus = write_toy_corpus(str(tmp_path), n_train=500, n_test=20)

    # echo-reference: everything scores 100.00
    cfg = load_experiment(write_config(str(tmp_path), corpus, sizes=[100],
                                       nmo_set=[20, 40]))
    records = run_sweep(cfg)
    assert len(records) == 4 and all(r.status == "done" for r in records)
    assert all(r.chrf == pytest.approx(100.0, abs=1e-9) for r in records)

    artifacts = emit_report(records, cfg.output_dir)
    lines = Path(artifacts["results"]).read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 5 and lines[0].startswith("config\t")

    # resume: a second run must not change any persisted score
    record_file = os.path.join(cfg.output_dir, "size100", "rep0",
                               records[0].config_label, "test", "record.json")
    before = json.loads(Path(record_file).read_text(encoding="utf-8"))
    rerun = run_sweep(cfg)
    assert json.loads(Path(record_file).read_text(encoding="utf-8")) == before
    assert [r.chrf for r in rerun] == [r.chrf for r in records]

    # planted quality: the best configuration is recovered by the tier report
    script = tmp_path / "planted.py"
    script.write_text(
        "import sys\n"
        "config, ref_path, out_path = sys.argv[1:4]\n"
        "rates = {'20_40': 5, '20_20': 2, '40_40': 1, '40_20': 0}\n"
        "k = rates[config]\n"
        "with open(ref_path) as fh: lines = [l.split() for l in fh]\n"
        "with open(out_path, 'w') as fh:\n"
        "    for toks in lines:\n"
        "        fh.write(' '.join('junk' if i < k else t\n"
        "                          for i, t in enumerate(toks)) + '\\n')\n")
    command = "python3 %s {config} %s {hyp_out}" % (script, corpus["test_tgt"])
    planted_cfg = load_experiment(write_config(
        str(tmp_path), corpus, sizes=[100], nmo_set=[20, 40],
        backend={"command": command},
        output_dir=str(tmp_path / "out_planted")))
    planted_records = run_sweep(planted_cfg)
    results = [SystemResult(BpeConfig(r.src_nmo, r.tgt_nmo), r.chrf)
               for r in planted_records]
    rep = tier_report(results)
    assert rep.high_a.config == BpeConfig(40, 20)
    assert rep.low_a.config == BpeConfig(20, 40)

    elapsed = time.time() - start
    assert elapsed < 60.0
    report(10, "end-to-end sweep + resume + planted-quality recovery in %.1fs"
           % elapsed)
