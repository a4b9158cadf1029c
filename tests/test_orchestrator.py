import json
import os
import random
import subprocess
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
        ("nmo_set", [10, 10]), ("nmo_set", ["1K", 1000]), ("nmo_set", [-5, 10]),
        ("nmo_set", []), ("nmo_set", ["-5"]), ("nmo_set", ["xK"]), ("nmo_set", ["infK"]),
        ("bins", [10, 10]), ("bins", [0, 5]), ("bins", [20, 10]),
        ("granularity", 0), ("granularity", -5),
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

    def test_plus_in_test_set_name_rejected(self, tmp_path):
        # '+' joins the names in the combined test source's file name.
        path = self.extra_sets_config(tmp_path, "dev+x")
        with pytest.raises(OrchestratorError, match="contains '\\+'") as err:
            load_experiment(path)
        assert "'dev+x'" in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("repetitions", 1.7), ("repetitions", "2"), ("workers", True),
        ("workers", 2.0), ("significance_iterations", "100"),
        ("significance_iterations", False), ("granularity", 2.5), ("granularity", "10"),
        ("backend.timeout", "10"), ("backend.timeout", -1), ("backend.timeout", 0),
        ("backend.timeout", True), ("backend.timeout", float("nan")),
        ("backend.timeout", float("inf")),
        ("nmo_set", "1K"), ("nmo_set", [10, 1.5]), ("nmo_set", [True, 20]),
        ("bins", "abc"), ("bins", [10, "x"]), ("bins", [10, True]),
    ])
    def test_mistyped_setting_named(self, tmp_path, field, value):
        corpus = write_toy_corpus(str(tmp_path))
        if field == "backend.timeout":
            overrides = {"backend": {"command": "mock:identity", "timeout": value}}
        else:
            overrides = {field: value}
        path = write_config(str(tmp_path), corpus, **overrides)
        with pytest.raises(OrchestratorError, match=field.replace(".", "\\.")) as err:
            load_experiment(path)
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("overrides, message", [
        ({"extra_test_sets": [5]}, "extra_test_sets"),
        ({"extra_test_sets": {"name": "dev"}}, "extra_test_sets"),
        ({"backend": 5}, "backend"),
        ({"backend": {"command": 5}}, "backend\\.command"),
        ({"test_src": 5}, "test_src"),
        ({"train_tgt": ["a"]}, "train_tgt"),
        ({"output_dir": None}, "output_dir"),
        ({"extra_test_sets": [{"name": "dev", "src": 5, "tgt": "x"}]}, "test set 'dev' src"),
        (None, "JSON object"),
    ])
    def test_mistyped_structure_named(self, tmp_path, overrides, message):
        # Each used to end in an uncaught TypeError; None stands for a
        # config whose top level is a list.
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, **(overrides or {}))
        if overrides is None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([corpus], fh)
        with pytest.raises(OrchestratorError, match=message):
            load_experiment(path)

    def test_timeout_accepts_positive_numbers(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        for timeout in (30, 0.5):
            path = write_config(str(tmp_path), corpus,
                                backend={"command": "mock:identity", "timeout": timeout})
            assert load_experiment(path).backend_timeout == timeout

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

    def test_segmented_files_match_their_side_tables(self, tmp_path):
        # Each <cell>/seg/ file is its raw file segmented with the table file
        # of its side and NMO, on a fresh sweep and on a resume that grows
        # nmo_set at both ends. valid and test share one raw source file.
        corpus = write_toy_corpus(str(tmp_path))
        corpus["valid_src"] = corpus["test_src"]
        lang = {"src": "en", "tgt": "xx"}
        for nmo_set in ([10, 20], [5, 10, 20, 40]):
            cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=nmo_set))
            run_sweep(cfg)
            raw = {("train", "src"): cell_path(cfg, "sample", "train.src"),
                   ("train", "tgt"): cell_path(cfg, "sample", "train.tgt"),
                   ("valid", "src"): corpus["valid_src"],
                   ("valid", "tgt"): corpus["valid_tgt"],
                   ("test-test", "src"): corpus["test_src"]}
            names = sorted(os.listdir(cell_path(cfg, "seg")))
            assert len(names) == len(raw) * len(nmo_set)
            for name in names:
                split, nmo, side = name.split(".")
                table = bpe.MergeTable.load(
                    cell_path(cfg, "tables", "%s.%s.bpe" % (lang[side], nmo)))
                with open(raw[split, side], encoding="utf-8") as fh:
                    expected = "".join(bpe.segment_line(table, line.rstrip("\n")) + "\n"
                                       for line in fh)
                assert read_bytes(cell_path(cfg, "seg", name)).decode("utf-8") == expected

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
        # One backend run per configuration; each test set's scored slice
        # and record sit below it.
        assert sorted(os.listdir(cell_path(cfg, "10_20"))) == [
            "backend.log", "hyp.txt", "model", "test"]
        assert sorted(os.listdir(cell_path(cfg, "10_20", "test"))) == [
            "hyp.detok.txt", "record.json"]

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
        monkeypatch.setattr(bpe, "segment_lines", forbidden)
        assert [r.chrf for r in run_sweep(cfg)] == [r.chrf for r in first]


def planted_backend(tmp_path, corpus, rates, refs=None):
    """Backend command whose hypothesis is the reference with the first
    ``rates[config]`` words of every line replaced by junk. ``refs`` lists
    the reference files of every test set in config order (default: the
    main test set's); the script writes one line per ``{test_src}`` line."""
    script = tmp_path / "planted.py"
    script.write_text(
        "import sys\n"
        "def read(path):\n"
        "    with open(path) as fh: return fh.read().splitlines()\n"
        "config, src_path, out_path, *ref_paths = sys.argv[1:]\n"
        "k = %r[config]\n"
        "lines = [l.split() for p in ref_paths for l in read(p)]\n"
        "if len(lines) != len(read(src_path)): sys.exit('one line per test source line')\n"
        "with open(out_path, 'w') as fh:\n"
        "    for toks in lines:\n"
        "        fh.write(' '.join('junk' if i < k else t for i, t in enumerate(toks)) + '\\n')\n"
        % rates)
    return "python3 %s {config} {test_src} {hyp_out} %s" % (
        script, " ".join(refs or [corpus["test_tgt"]]))


class TestSignificance:
    RATES = {"10_10": 2, "20_20": 1, "10_20": 3, "20_10": 0,
             "40_40": 0, "10_40": 4, "40_10": 1, "20_40": 2, "40_20": 3}

    def test_statistics_computed_once_per_run_and_line(self, tmp_path, monkeypatch):
        calls = []  # one (hypothesis, reference) entry per row computed
        stats = chrf.stats_matrix
        monkeypatch.setattr(chrf, "stats_matrix",
                            lambda h, r, *a: calls.extend(zip(h, r)) or stats(h, r, *a))
        corpus = write_toy_corpus(str(tmp_path))
        extra = [{"name": "test2", "src": corpus["test_src"], "tgt": corpus["test_tgt"]}]
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, workers=2, extra_test_sets=extra,
            backend={"command": planted_backend(tmp_path, corpus, self.RATES,
                                                [corpus["test_tgt"]] * 2)}))
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


def write_lines_file(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    return str(path)


def tagging_backend(tmp_path, fail_config=None):
    """Backend command that appends its configuration label to calls.log
    and writes ``line<i>`` for the i-th ``{test_src}`` line; it exits 1
    without output for ``fail_config``."""
    script = tmp_path / "tag.py"
    script.write_text(
        "import sys\n"
        "config, src_path, out_path, log_path = sys.argv[1:]\n"
        "with open(log_path, 'a') as fh: fh.write(config + '\\n')\n"
        "if config == %r: sys.exit(1)\n"
        "with open(src_path) as fh: n = len(fh.readlines())\n"
        "with open(out_path, 'w') as fh: fh.writelines('line%%d\\n' %% i for i in range(n))\n"
        % fail_config)
    return "python3 %s {config} {test_src} {hyp_out} %s" % (script, tmp_path / "calls.log")


def backend_calls(tmp_path):
    log = tmp_path / "calls.log"
    return log.read_text(encoding="utf-8").split() if log.exists() else []


def tagged_sets(tmp_path, corpus, n_test2=10, n_refs2=None):
    """extra_test_sets with one set ``test2`` of ``n_test2`` source lines.
    The references are the tags the tagging backend writes for a correct
    split: ``line0..`` for ``test`` (12 lines) and ``line12..`` for test2."""
    write_lines_file(corpus["test_tgt"], ["line%d" % i for i in range(12)])
    src = write_lines_file(tmp_path / "test2.src", ["word %d" % i for i in range(n_test2)])
    tgt = write_lines_file(tmp_path / "test2.tgt",
                           ["line%d" % (12 + i) for i in range(n_refs2 or n_test2)])
    return [{"name": "test2", "src": src, "tgt": tgt}]


def record_bytes(cfg):
    return {os.path.relpath(os.path.join(root, "record.json"), cfg.output_dir):
            read_bytes(os.path.join(root, "record.json"))
            for root, _dirs, files in os.walk(cfg.output_dir) if "record.json" in files}


class TestOneBackendRunPerConfiguration:
    def test_one_call_per_configuration_and_none_on_resume(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus),
            backend={"command": tagging_backend(tmp_path)}))
        records = run_sweep(cfg)
        assert len(records) == 8 and all(r.status == "done" for r in records)
        assert sorted(backend_calls(tmp_path)) == ["10_10", "10_20", "20_10", "20_20"]
        assert sorted(os.listdir(cell_path(cfg, "seg"))) == [
            "test-test+test2.10.src", "test-test+test2.20.src", "train.10.src",
            "train.10.tgt", "train.20.src", "train.20.tgt", "valid.10.src",
            "valid.10.tgt", "valid.20.src", "valid.20.tgt"]
        run_sweep(cfg)
        assert len(backend_calls(tmp_path)) == 4

    def test_each_test_set_scores_its_own_slice(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus),
            backend={"command": tagging_backend(tmp_path)}))
        records = run_sweep(cfg)
        assert [(r.config_label, r.testset, r.chrf) for r in records] == [
            (label, name, 100.0) for label in ("10_10", "10_20", "20_10", "20_20")
            for name in ("test", "test2")]
        for name, first, n in (("test", 0, 12), ("test2", 12, 10)):
            assert read_bytes(cell_path(cfg, "20_10", name, "hyp.detok.txt")).decode() == \
                "".join("line%d\n" % i for i in range(first, first + n))
        assert len(read_bytes(cell_path(cfg, "20_10", "hyp.txt")).splitlines()) == 22

    def test_reference_count_off_fails_only_its_test_set(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus, n_refs2=9),
            backend={"command": tagging_backend(tmp_path)}))
        records = run_sweep(cfg)
        assert len(backend_calls(tmp_path)) == 4
        assert all(r.status == "done" and r.chrf == 100.0 and r.p_vs_baseline == 1.0
                   for r in records if r.testset == "test")
        failed = [r for r in records if r.testset == "test2"]
        assert all(r.status == "failed" and r.chrf is None for r in failed)
        assert all("'test2' has 10 source lines but 9 references" in r.failure_reason
                   for r in failed)

    def test_failing_backend_fails_every_test_set_of_its_configuration(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus),
            backend={"command": tagging_backend(tmp_path, fail_config="10_20")}))
        records = run_sweep(cfg)
        assert len(backend_calls(tmp_path)) == 4
        failed = [r for r in records if r.status == "failed"]
        assert [(r.config_label, r.testset) for r in failed] == [("10_20", "test"),
                                                                ("10_20", "test2")]
        assert failed[0].failure_reason == failed[1].failure_reason
        assert "backend exited 1" in failed[0].failure_reason
        assert all(r.status == "done" for r in records if r.config_label != "10_20")

    def test_resume_runs_only_configurations_with_pending_test_sets(self, tmp_path,
                                                                   monkeypatch):
        corpus = write_toy_corpus(str(tmp_path))
        extra = tagged_sets(tmp_path, corpus)
        rates = {"10_10": 2, "20_20": 1, "10_20": 3, "20_10": 0}
        refs = [corpus["test_tgt"], extra[0]["tgt"]]
        path = write_config(str(tmp_path), corpus,
                            backend={"command": planted_backend(tmp_path, corpus, rates)})
        run_sweep(load_experiment(path))
        before = record_bytes(load_experiment(path))
        assert len(before) == 4

        # Adding a test set leaves every configuration one pending run.
        command = planted_backend(tmp_path, corpus, rates, refs)
        cfg = load_experiment(write_config(str(tmp_path), corpus, extra_test_sets=extra,
                                           backend={"command": command}))
        calls = []
        run = subprocess.run
        monkeypatch.setattr(subprocess, "run",
                            lambda cmd, **kw: calls.append(cmd) or run(cmd, **kw))
        grown = run_sweep(cfg)
        assert len(calls) == 4
        after = record_bytes(cfg)
        assert {k: after[k] for k in before} == before
        assert all(r.status == "done" for r in grown)

        # An interrupted configuration reruns alone.
        os.remove(cell_path(cfg, "10_20", "test2", "record.json"))
        calls.clear()
        resumed = run_sweep(cfg)
        assert len(calls) == 1 and "10_20" in calls[0]
        again = record_bytes(cfg)
        assert {k: v for k, v in again.items() if "10_20/test2" not in k} == \
            {k: v for k, v in after.items() if "10_20/test2" not in k}

        cfg.output_dir = str(tmp_path / "fresh")
        fresh = run_sweep(cfg)
        key = [(r.config_label, r.testset, r.chrf, r.p_vs_baseline) for r in fresh]
        assert [(r.config_label, r.testset, r.chrf, r.p_vs_baseline) for r in grown] == key
        assert [(r.config_label, r.testset, r.chrf, r.p_vs_baseline) for r in resumed] == key
        assert any(p < 1 for *_, p in key)

    def test_echo_reference_scores_100_on_both_sets(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           extra_test_sets=tagged_sets(tmp_path, corpus)))
        records = run_sweep(cfg)
        assert len(records) == 8
        assert all(r.status == "done" and r.chrf == pytest.approx(100.0, abs=1e-9)
                   for r in records)
        assert not os.path.exists(cell_path(cfg, "10_20", "backend.log"))

    @pytest.mark.parametrize("code", [0, 1])
    def test_backend_output_kept_in_log(self, tmp_path, code):
        corpus = write_toy_corpus(str(tmp_path))
        command = ("c={config}; echo to-stdout-$c; echo to-stderr-$c >&2; "
                   "cp %s {hyp_out}; exit %d" % (corpus["test_tgt"], code))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": command}))
        records = run_sweep(cfg)
        log = cell_path(cfg, "10_20", "backend.log")
        assert read_bytes(log).decode().split() == ["to-stdout-10_20", "to-stderr-10_20"]
        rec = next(r for r in records if r.config_label == "10_20")
        if code:
            assert rec.status == "failed"
            assert log in rec.failure_reason
            assert rec.failure_reason.endswith("to-stdout-10_20\nto-stderr-10_20")
        else:
            assert rec.status == "done" and rec.failure_reason is None

    def test_failure_reason_keeps_the_last_500_characters(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        command = "python3 -c \"print('x' * 2000 + 'END')\"; exit 3 # {hyp_out}"
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": command}))
        reason = run_sweep(cfg)[0].failure_reason
        assert reason.startswith("backend exited 3 (log ")
        assert reason.endswith("x" * 497 + "END") and "x" * 498 not in reason

    def test_timeout_fails_the_configuration_and_names_the_log(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, nmo_set=[10],
            backend={"command": "echo started; exec sleep 5 # {hyp_out}", "timeout": 0.5}))
        records = run_sweep(cfg)
        log = cell_path(cfg, "10_10", "backend.log")
        assert [r.status for r in records] == ["failed"]
        assert records[0].failure_reason == \
            "backend timed out after 0.5 s (log %s): started" % log
