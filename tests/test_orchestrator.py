import json
import os
import random
from pathlib import Path

import pytest

from asymbpe import bpe, chrf
from asymbpe.orchestrator import (OrchestratorError, RunRecord, collect_records,
                                  emit_report, load_experiment, run_sweep)
from asymbpe.sweep import BpeConfig
from conftest import PUBLISHED_TIER_TABLES

WORDS = ["the", "cat", "sat", "mat", "dog", "ran", "big", "red", "sun", "sky",
         "tree", "bird", "fish", "moon", "star", "rock", "leaf", "wind"]


def write_toy_corpus(directory, n_train=120, n_valid=10, n_test=12, seed=0,
                     parallel_identity=False):
    rng = random.Random(seed)

    def sentence():
        return " ".join(rng.choices(WORDS, k=rng.randint(2, 9)))

    paths = {}
    for split, n in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        src = [sentence() for _ in range(n)]
        tgt = src if parallel_identity else [sentence() for _ in range(n)]
        for side, lines in (("src", src), ("tgt", tgt)):
            path = os.path.join(directory, "%s.%s" % (split, side))
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
            paths["%s_%s" % (split, side)] = path
    return paths


def write_config(directory, corpus_paths, **overrides):
    cfg = {
        "schema": 1,
        "train_src": corpus_paths["train_src"],
        "train_tgt": corpus_paths["train_tgt"],
        "valid_src": corpus_paths["valid_src"],
        "valid_tgt": corpus_paths["valid_tgt"],
        "test_src": corpus_paths["test_src"],
        "test_tgt": corpus_paths["test_tgt"],
        "direction": "en-xx",
        "sizes": [50],
        "nmo_set": [10, 20],
        "backend": {"command": "mock:echo-reference"},
        "output_dir": os.path.join(directory, "out"),
        "seed": 7,
        "significance_iterations": 100,
    }
    cfg.update(overrides)
    path = os.path.join(directory, "experiment.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


class TestLoadExperiment:
    def test_minimal_config_plans_four_runs(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        assert cfg.planned_runs() == 4
        assert cfg.repetitions == 1 and cfg.workers == 1
        assert cfg.significance_iterations == 100

    def test_defaults_applied(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus)
        with open(path) as fh:
            raw = json.load(fh)
        del raw["significance_iterations"]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        cfg = load_experiment(path)
        assert cfg.significance_iterations == 10000

    def test_paper_scale_plan(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        total = 0
        for direction in ("en-hi", "hi-en"):
            path = write_config(
                str(tmp_path), corpus, direction=direction,
                sizes=[50_000, 100_000, 500_000, 1_000_000, 4_000_000, 8_000_000],
                nmo_set=["0.5K", "1K", "2K", "4K", "8K", "16K", "25K", "32K"])
            total += load_experiment(path).planned_runs()
        assert total == 768

    def test_repetitions_multiply_runs(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus, repetitions=3))
        assert cfg.planned_runs() == 12

    def test_unknown_key_rejected(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus)
        with open(path) as fh:
            raw = json.load(fh)
        raw["bogus_option"] = 1
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(OrchestratorError, match="bogus_option"):
            load_experiment(path)

    def test_missing_field_named(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus)
        with open(path) as fh:
            raw = json.load(fh)
        del raw["train_src"]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(OrchestratorError, match="train_src"):
            load_experiment(path)

    def test_absent_path_named(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        corpus["valid_src"] = str(tmp_path / "nope.txt")
        path = write_config(str(tmp_path), corpus)
        with pytest.raises(OrchestratorError, match="valid_src"):
            load_experiment(path)

    def test_backend_requires_hyp_out(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus,
                            backend={"command": "train {train_src}"})
        with pytest.raises(OrchestratorError, match="hyp_out"):
            load_experiment(path)

    @pytest.mark.parametrize("direction, message", [
        ("en-en", "one language on both sides"),
        ("en-hi-x", "two language codes"),
        ("en-", "two language codes"),
        ("enhi", "two language codes"),
    ])
    def test_malformed_direction_rejected(self, tmp_path, direction, message):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, direction=direction)
        with pytest.raises(OrchestratorError, match=message) as err:
            load_experiment(path)
        assert repr(direction) in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("sizes", [-5]), ("sizes", [0]), ("sizes", [50, 1.5]), ("sizes", ["50"]),
        ("sizes", [True]), ("sizes", 50),
        ("significance_iterations", 0), ("workers", 0), ("repetitions", 0),
        ("nmo_set", [10, 10]), ("nmo_set", ["1K", 1000]),
    ])
    def test_bad_sweep_setting_named(self, tmp_path, field, value):
        # Each is refused before any sample is drawn or backend run.
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, **{field: value})
        with pytest.raises(OrchestratorError, match=field):
            load_experiment(path)

    def extra_sets_config(self, tmp_path, *names):
        corpus = write_toy_corpus(str(tmp_path))
        extra = [{"name": n, "src": corpus["test_src"], "tgt": corpus["test_tgt"]}
                 for n in names]
        return write_config(str(tmp_path), corpus, extra_test_sets=extra)

    @pytest.mark.parametrize("names", [("test",), ("dev", "dev")])
    def test_repeated_test_set_name_rejected(self, tmp_path, names):
        path = self.extra_sets_config(tmp_path, *names)
        with pytest.raises(OrchestratorError, match="used twice") as err:
            load_experiment(path)
        assert repr(names[-1]) in str(err.value)

    def test_empty_test_set_name_rejected(self, tmp_path):
        path = self.extra_sets_config(tmp_path, "")
        with pytest.raises(OrchestratorError, match="not a plain file name") as err:
            load_experiment(path)
        assert "''" in str(err.value)

    @pytest.mark.parametrize("name", ["dev/a", ".", ".."])
    def test_test_set_name_must_be_one_path_component(self, tmp_path, name):
        path = self.extra_sets_config(tmp_path, name)
        with pytest.raises(OrchestratorError, match="not a plain file name") as err:
            load_experiment(path)
        assert repr(name) in str(err.value)

    def test_unknown_placeholder_rejected(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus,
                            backend={"command": "x {hyp_out} {gpu_count}"})
        with pytest.raises(OrchestratorError, match="gpu_count"):
            load_experiment(path)


class TestRunSweep:
    def test_echo_reference_scores_100(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        records = run_sweep(cfg)
        assert len(records) == 4
        assert all(r.status == "done" for r in records)
        assert all(r.chrf == pytest.approx(100.0, abs=1e-9) for r in records)
        assert all(r.p_vs_baseline == 1.0 for r in records)

    def test_identity_backend_on_copy_corpus(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path), parallel_identity=True)
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, backend={"command": "mock:identity"}))
        records = run_sweep(cfg)
        assert all(r.chrf == pytest.approx(100.0, abs=1e-9) for r in records)

    def test_resume_preserves_scores(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        first = run_sweep(cfg)
        record_file = os.path.join(cfg.output_dir, "size50", "rep0",
                                   first[0].config_label, "test", "record.json")
        before = os.path.getmtime(record_file)
        second = run_sweep(cfg)
        assert [r.chrf for r in second] == [r.chrf for r in first]
        assert os.path.getmtime(record_file) == before

    def test_merge_tables_shared_per_cell(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        run_sweep(cfg)
        tables_dir = os.path.join(cfg.output_dir, "size50", "rep0", "tables")
        # one table per (side, nmo), not per configuration
        assert sorted(os.listdir(tables_dir)) == ["en.10.bpe", "en.20.bpe",
                                                  "xx.10.bpe", "xx.20.bpe"]

    def test_backend_failure_recorded_and_sweep_continues(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, backend={"command": "false {hyp_out}"}))
        records = run_sweep(cfg)
        assert len(records) == 4
        assert all(r.status == "failed" for r in records)
        assert all(r.chrf is None and r.failure_reason for r in records)

    def test_corrupt_hypothesis_line_count_recorded(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus,
            backend={"command": "echo hello > {hyp_out}"}))
        records = run_sweep(cfg)
        assert all(r.status == "failed" for r in records)
        assert all("line count" in r.failure_reason for r in records)

    def test_planted_quality_recovered_by_tiers(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        # Degrade the reference by a per-configuration number of words; the
        # backend reads its configuration label from {config}.
        script = tmp_path / "planted.py"
        script.write_text(
            "import sys\n"
            "config, ref_path, out_path = sys.argv[1:4]\n"
            "rates = {'10_20': 4, '10_10': 2, '20_20': 1, '20_10': 0}\n"
            "k = rates[config]\n"
            "with open(ref_path) as fh: lines = [l.split() for l in fh]\n"
            "with open(out_path, 'w') as fh:\n"
            "    for toks in lines:\n"
            "        out = ['junk' if i < k else t for i, t in enumerate(toks)]\n"
            "        fh.write(' '.join(out) + '\\n')\n")
        command = "python3 %s {config} %s {hyp_out}" % (script, corpus["test_tgt"])
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": command}))
        records = run_sweep(cfg)
        assert all(r.status == "done" for r in records)
        emit_report(records, cfg.output_dir)
        tier_tsv = os.path.join(cfg.output_dir, "tiers",
                                "en-xx_size50_rep0_test.tsv")
        rows = {line.split("\t")[0]: line.split("\t")
                for line in Path(tier_tsv).read_text(encoding="utf-8").strip().split("\n")[1:]}
        assert rows["High A"][1:3] == ["20", "10"]   # planted best asymmetric
        assert rows["Low A"][1:3] == ["10", "20"]    # planted worst
        assert rows["Baseline"][1:3] == ["20", "20"]  # best symmetric


def cell_path(cfg, *parts):
    return os.path.join(cfg.output_dir, "size50", "rep0", *parts)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def fresh_table_bytes(cfg, tmp_path, side, nmo):
    """The table file a separate learn at ``nmo`` writes for the cell's sample."""
    with open(cell_path(cfg, "sample", "train." + side), encoding="utf-8") as fh:
        sample = fh.read().splitlines()
    path = str(tmp_path / "fresh.bpe")
    bpe.learn_bpe(sample, nmo).save(path)
    return read_bytes(path)


class TestCellArtifacts:
    def test_one_learn_per_side_per_cell(self, tmp_path, monkeypatch):
        calls = []
        learn = bpe.learn_bpe
        monkeypatch.setattr(bpe, "learn_bpe",
                            lambda corpus, nmo: calls.append(nmo) or learn(corpus, nmo))
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus, sizes=[40, 50],
                                           nmo_set=[10, 20, 30]))
        run_sweep(cfg)
        assert calls == [30] * 4  # 2 cells x 2 sides, each at max(nmo_set)

    @pytest.mark.parametrize("nmo_set", [[10, 20, 30], [5, 500]])
    def test_tables_match_separate_learns(self, tmp_path, nmo_set):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=nmo_set))
        run_sweep(cfg)
        for lang, side in (("en", "src"), ("xx", "tgt")):
            for nmo in nmo_set:
                path = cell_path(cfg, "tables", "%s.%d.bpe" % (lang, nmo))
                assert read_bytes(path) == fresh_table_bytes(cfg, tmp_path, side, nmo)
        if 500 in nmo_set:  # the toy vocabulary runs out of pairs first
            assert bpe.MergeTable.load(cell_path(cfg, "tables", "en.500.bpe")).nmo < 500

    def test_configurations_share_segmented_inputs(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        log = tmp_path / "inputs.log"
        command = ("echo {config} {train_src} {train_tgt} {valid_src} {valid_tgt} "
                   "{test_src} >> %s && cp %s {hyp_out}" % (log, corpus["test_tgt"]))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": command}))
        records = run_sweep(cfg)
        assert all(r.status == "done" for r in records)
        inputs = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            label, *paths = line.split()
            inputs[label] = dict(zip(("train_src", "train_tgt", "valid_src",
                                      "valid_tgt", "test_src"), paths))
        for name in ("train_src", "valid_src", "test_src"):  # source NMO 10
            assert inputs["10_10"][name] == inputs["10_20"][name]
            assert inputs["10_10"][name] != inputs["20_10"][name]
        for name in ("train_tgt", "valid_tgt"):  # target NMO 20
            assert inputs["10_20"][name] == inputs["20_20"][name]
        seg_dir = cell_path(cfg, "seg")
        assert all(os.path.dirname(p) == seg_dir
                   for paths in inputs.values() for p in paths.values())
        assert sorted(os.listdir(cell_path(cfg, "10_20", "test"))) == [
            "hyp.detok.txt", "hyp.txt", "model", "record.json"]

    def test_growing_nmo_set_keeps_tables_and_records(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=[10, 20]))
        run_sweep(cfg)
        kept = [cell_path(cfg, "tables", name) for name in
                ("en.10.bpe", "en.20.bpe", "xx.10.bpe", "xx.20.bpe")]
        kept += [cell_path(cfg, label, "test", "record.json")
                 for label in ("10_10", "10_20", "20_10", "20_20")]
        before = {p: (os.stat(p).st_mtime_ns, read_bytes(p)) for p in kept}
        cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=[10, 20, 40]))
        records = run_sweep(cfg)
        assert len(records) == 9 and all(r.status == "done" for r in records)
        assert {p: (os.stat(p).st_mtime_ns, read_bytes(p)) for p in kept} == before
        assert read_bytes(cell_path(cfg, "tables", "en.40.bpe")) == \
            fresh_table_bytes(cfg, tmp_path, "src", 40)

    def test_resume_over_finished_cell_learns_and_segments_nothing(self, tmp_path,
                                                                   monkeypatch):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        first = run_sweep(cfg)

        def forbidden(*args):
            raise AssertionError("resume over a finished cell recomputed an artifact")

        monkeypatch.setattr(bpe, "learn_bpe", forbidden)
        monkeypatch.setattr(bpe, "segment_line", forbidden)
        assert [r.chrf for r in run_sweep(cfg)] == [r.chrf for r in first]

    def test_fresh_run_replaces_stale_tables_and_segments(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        stale_table = cell_path(cfg, "tables", "en.20.bpe")
        stale_seg = cell_path(cfg, "seg", "train.20.src")
        for path in (stale_table, stale_seg):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        bpe.MergeTable([bpe.MergeRule("q", "z</w>", 0)]).save(stale_table)
        with open(stale_seg, "w", encoding="utf-8") as fh:
            fh.write("stale\n")
        run_sweep(cfg, resume=False)
        assert read_bytes(stale_table) == fresh_table_bytes(cfg, tmp_path, "src", 20)
        table = bpe.MergeTable.load(stale_table)
        with open(cell_path(cfg, "sample", "train.src"), encoding="utf-8") as fh:
            expected = "".join(bpe.segment_line(table, line.rstrip("\n")) + "\n"
                               for line in fh)
        assert read_bytes(stale_seg).decode("utf-8") == expected


def planted_backend(tmp_path, corpus, rates):
    """Backend command whose hypothesis is the reference with the first
    ``rates[config]`` words of every line replaced by junk."""
    script = tmp_path / "planted.py"
    script.write_text(
        "import sys\n"
        "config, ref_path, out_path = sys.argv[1:4]\n"
        "k = %r[config]\n"
        "with open(ref_path) as fh: lines = [l.split() for l in fh]\n"
        "with open(out_path, 'w') as fh:\n"
        "    for toks in lines:\n"
        "        fh.write(' '.join('junk' if i < k else t for i, t in enumerate(toks)) + '\\n')\n"
        % rates)
    return "python3 %s {config} %s {hyp_out}" % (script, corpus["test_tgt"])


class TestSignificance:
    RATES = {"10_10": 2, "20_20": 1, "10_20": 3, "20_10": 0,
             "40_40": 0, "10_40": 4, "40_10": 1, "20_40": 2, "40_20": 3}

    def test_statistics_computed_once_per_run_and_line(self, tmp_path, monkeypatch):
        calls = []
        stats = chrf.sentence_stats
        monkeypatch.setattr(chrf, "sentence_stats",
                            lambda h, r, *a: calls.append((h, r)) or stats(h, r, *a))
        corpus = write_toy_corpus(str(tmp_path))
        extra = [{"name": "test2", "src": corpus["test_src"], "tgt": corpus["test_tgt"]}]
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, workers=2, extra_test_sets=extra,
            backend={"command": planted_backend(tmp_path, corpus, self.RATES)}))
        records = run_sweep(cfg)
        assert all(r.status == "done" and r.p_vs_baseline is not None for r in records)
        assert len(records) == 8 and len(calls) == 8 * 12  # runs x test lines
        calls.clear()
        assert [r.p_vs_baseline for r in run_sweep(cfg)] == \
            [r.p_vs_baseline for r in records]
        assert calls == []

    def test_growing_nmo_set_retests_against_new_baseline(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        command = planted_backend(tmp_path, corpus, self.RATES)
        cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=[10, 20],
                                           backend={"command": command}))
        first = {r.config_label: r for r in run_sweep(cfg)}
        assert {r.baseline for r in first.values()} == {"20_20"}

        cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=[10, 20, 40],
                                           backend={"command": command}))
        grown = run_sweep(cfg)
        cfg.output_dir = str(tmp_path / "fresh")
        fresh = run_sweep(cfg)
        assert {r.baseline for r in grown} == {"40_40"}
        assert [(r.config_label, r.p_vs_baseline) for r in grown] == \
            [(r.config_label, r.p_vs_baseline) for r in fresh]
        persisted = {r.config_label: r for r in collect_records(str(tmp_path / "out"))}
        assert all(persisted[r.config_label].p_vs_baseline == r.p_vs_baseline
                   and persisted[r.config_label].baseline == "40_40" for r in fresh)
        assert any(first[label].p_vs_baseline != persisted[label].p_vs_baseline
                   for label in first)

    def test_record_without_baseline_field_loads(self, tmp_path):
        record = make_record(10, 20, 50.0).to_dict()
        del record["baseline"]
        assert RunRecord.from_dict(record).baseline is None


def make_record(src, tgt, score, size=50, rep=0, direction="en-xx",
                testset="test", status="done"):
    return RunRecord(config_label=BpeConfig(src, tgt).label, src_nmo=src,
                     tgt_nmo=tgt, direction=direction, size=size, rep=rep,
                     testset=testset, seed=0, status=status,
                     chrf=score if status == "done" else None)


class TestEmitReport:
    def test_results_tsv_columns(self, tmp_path):
        records = [make_record(500, 1000, 42.5)]
        artifacts = emit_report(records, str(tmp_path))
        lines = Path(artifacts["results"]).read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].split("\t") == ["config", "src_nmo", "tgt_nmo",
                                        "direction", "size", "rep", "testset",
                                        "chrf", "p_vs_baseline", "status"]
        assert lines[1].split("\t")[:3] == ["500_1K", "500", "1000"]
        assert lines[1].split("\t")[7] == "42.50"

    def test_single_record_no_tier_report(self, tmp_path):
        artifacts = emit_report([make_record(500, 1000, 42.5)], str(tmp_path))
        assert artifacts["tiers"] == []

    def test_published_table_replay_through_report(self, tmp_path):
        records = []
        for size, cell in PUBLISHED_TIER_TABLES["hi-en"].items():
            for src, tgt, score, _ in cell.values():
                records.append(make_record(src, tgt, score, size=size,
                                           direction="hi-en"))
        artifacts = emit_report(records, str(tmp_path))
        assert len(artifacts["tiers"]) == 6
        tsv = (tmp_path / "tiers" / "hi-en_size50000_rep0_test.tsv").read_text(
            encoding="utf-8")
        rows = {l.split("\t")[0]: l.split("\t") for l in tsv.strip().split("\n")[1:]}
        assert rows["High A"][1:5] == ["16K", "500", "29.33", "5.84"]
        assert rows["Baseline"][1:5] == ["4K", "4K", "23.49", "0.00"]
        assert rows["Low A"][1:5] == ["500", "1K", "19.56", "-3.93"]

    def test_repetition_average(self, tmp_path):
        records = [make_record(500, 1000, s, rep=i) for i, s in enumerate((10, 20, 30))]
        artifacts = emit_report(records, str(tmp_path))
        summary = Path(artifacts["summary"]).read_text(encoding="utf-8").strip().split("\n")
        assert summary[1].split("\t")[4] == "20.00"
        assert summary[1].split("\t")[5] == "3"

    def test_src_nmo_max_trace(self, tmp_path):
        records = [make_record(500, 500, 10.0), make_record(500, 1000, 12.0),
                   make_record(1000, 500, 15.0), make_record(1000, 1000, 11.0)]
        artifacts = emit_report(records, str(tmp_path))
        lines = Path(artifacts["max_trace"]).read_text(encoding="utf-8").strip().split("\n")[1:]
        maxima = {int(l.split("\t")[4]): float(l.split("\t")[5]) for l in lines}
        assert maxima == {500: 12.0, 1000: 15.0}

    def test_no_completed_records_error(self, tmp_path):
        with pytest.raises(OrchestratorError):
            emit_report([make_record(500, 1000, None, status="failed")], str(tmp_path))

    def test_collect_records_roundtrip(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        records = run_sweep(cfg)
        loaded = collect_records(cfg.output_dir)
        assert len(loaded) == len(records)
        assert {r.config_label for r in loaded} == {r.config_label for r in records}
