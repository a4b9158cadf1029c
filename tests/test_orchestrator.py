import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from asymbpe import bpe, chrf, orchestrator, sampler
from asymbpe.cli import main
from asymbpe.orchestrator import (OrchestratorError, RunRecord, collect_records,
                                  emit_report, evaluate, load_experiment, run_sweep)
from asymbpe.sweep import config_label
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


# The de-segmented test source as the hypothesis.
IDENTITY_BACKEND = "sed 's/@@ //g' {test_src} > {hyp_out}"


def write_config(directory, corpus_paths, **overrides):
    """Write an experiment config. Its default backend writes the references
    of every test set, in config order, as the hypothesis."""
    extras = overrides.get("extra_test_sets") or []  # malformed ones are load_experiment's
    refs = [corpus_paths["test_tgt"]] + [ts["tgt"] for ts in extras
                                         if isinstance(ts, dict) and "tgt" in ts]
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
        "backend": {"command": "cat %s > {hyp_out}" % " ".join(map(shlex.quote, refs))},
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
        ("../../../escaped/en-hi", "language code '../../../escaped/en' is not a plain name"),
        ("en-..", "language code '..' is not a plain name"),
        ("en-h i", "language code 'h i' is not a plain name"),
        ("en-h\x00i", "language code .* is not a plain name"),
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
        ("granularity", 0), ("granularity", -5), ("sizes", []), ("sizes", [40, 40]),
        ("schema", 2),
    ])
    def test_bad_sweep_setting_named(self, tmp_path, field, value):
        # Each is refused before any sample is drawn or backend run.
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, **{field: value})
        with pytest.raises(OrchestratorError, match=field) as err:
            load_experiment(path)
        assert repr(value) in str(err.value)

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

    @pytest.mark.parametrize("name", ["dev/a", ".", "..", "dev\tx", "dev\nx"])
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

    @pytest.mark.parametrize("name, entry", [("model", "{model_dir}"), ("hyp.txt", "{hyp_out}"),
                                             ("backend.log", "log")])
    def test_test_set_named_after_a_configuration_entry_rejected(self, tmp_path, name, entry):
        # A configuration directory holds the backend's model/, hyp.txt and
        # backend.log beside one directory per test set.
        path = self.extra_sets_config(tmp_path, name)
        with pytest.raises(OrchestratorError) as err:
            load_experiment(path)
        assert str(err.value) == ("test set name %r is taken by the backend's %s in each "
                                  "configuration directory" % (name, entry))

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
        # Both equal 1 in Python.
        ("schema", True), ("schema", 1.0),
    ])
    def test_mistyped_setting_named(self, tmp_path, field, value):
        corpus = write_toy_corpus(str(tmp_path))
        if field == "backend.timeout":
            overrides = {"backend": {"command": IDENTITY_BACKEND, "timeout": value}}
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
        ({"backend": {"command": "x {test_src} {hyp_out} {test_src}"}}, "at most once"),
        ({"extra_test_sets": [{"name": "dev", "src": "test.src"}]},
         "extra test set missing field 'tgt'"),
        ({"extra_test_sets": [{"name": "dev", "src": "test.src", "tgt": "nope.tgt"}]},
         "test set 'dev' path does not exist: .*nope\\.tgt"),
        # A misspelt timeout would otherwise run the backend with none.
        ({"backend": {"command": IDENTITY_BACKEND, "timout": 5}},
         "unknown backend keys: timout \\(allowed: command, timeout\\)"),
        ({"extra_test_sets": [{"name": "dev", "src": "test.src", "tgt": "test.tgt", "weight": 2}]},
         "unknown extra test set keys: weight \\(allowed: name, src, tgt\\)"),
        # An unnamed {} would fail only when the backend runs.
        ({"backend": {"command": "echo {} > /dev/null; " + IDENTITY_BACKEND}},
         "unknown backend placeholders: \\{\\} \\(a literal brace is written \\{\\{ or \\}\\}\\)"),
        # A format spec failed only once a cell was prepared, and !r quoted a
        # path holding a space a second time.
        ({"backend": {"command": "cp {test_src} {hyp_out:x}"}},
         "take no conversion or format spec: \\{hyp_out:x\\}"),
        ({"backend": {"command": "cp {test_src} {hyp_out!r}"}},
         "take no conversion or format spec: \\{hyp_out!r\\}"),
    ])
    def test_mistyped_structure_named(self, tmp_path, overrides, message):
        # None stands for a config whose top level is a list.
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, **(overrides or {}))
        if overrides is None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([corpus], fh)
        with pytest.raises(OrchestratorError, match=message):
            load_experiment(path)

    def test_backend_may_be_a_command_string(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        path = write_config(str(tmp_path), corpus, backend="cp {test_src} {hyp_out}")
        cfg = load_experiment(path)
        assert (cfg.backend_command, cfg.backend_timeout) == ("cp {test_src} {hyp_out}", None)

    def test_timeout_accepts_positive_numbers(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        for timeout in (30, 0.5):
            path = write_config(str(tmp_path), corpus,
                                backend={"command": IDENTITY_BACKEND, "timeout": timeout})
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
            str(tmp_path), corpus, backend={"command": IDENTITY_BACKEND}))
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

    def test_resume_does_not_score_a_stale_hypothesis(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        run_sweep(load_experiment(write_config(
            str(tmp_path), corpus, backend={"command": IDENTITY_BACKEND})))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": "true {hyp_out}"}))
        os.remove(cell_path(cfg, "10_20", "test", "record.json"))
        resumed = {r.config_label: r for r in run_sweep(cfg)}
        assert resumed["10_20"].status == "failed"
        assert "backend produced no hypothesis file" in resumed["10_20"].failure_reason
        assert not os.path.exists(cell_path(cfg, "10_20", "hyp.txt"))
        assert all(resumed[label].status == "done" for label in ("10_10", "20_10", "20_20"))

    def test_a_size_the_corpus_cannot_sample_is_refused_before_any_run(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path), n_train=60)
        cfg = load_experiment(write_config(str(tmp_path), corpus, sizes=[40, 600]))
        with pytest.raises(sampler.SamplerError, match="target size 600 exceeds corpus size 60"):
            run_sweep(cfg)
        assert record_bytes(cfg) == {}

    def test_records_hold_no_output_path(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        swept = []
        for out in ("out", "output_of_a_longer_name"):
            cfg = load_experiment(write_config(
                str(tmp_path), corpus, output_dir=os.path.join(str(tmp_path), out)))
            run_sweep(cfg)
            swept.append({path: {k: v for k, v in json.loads(data).items()
                                 if k not in ("started", "finished")}
                          for path, data in record_bytes(cfg).items()})
        assert len(swept[0]) == 4 and swept[0] == swept[1]

    def test_record_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # As floats, these two times print in different lengths.
        corpus = write_toy_corpus(str(tmp_path))
        swept = []
        for out, now in (("a", 1792428028.3177662), ("b", 1792428028.25)):
            monkeypatch.setattr(orchestrator.time, "time", lambda now=now: now)
            cfg = load_experiment(write_config(
                str(tmp_path), corpus, output_dir=os.path.join(str(tmp_path), out)))
            run_sweep(cfg)
            swept.append(record_bytes(cfg))
        assert len(swept[0]) == 4 and swept[0] == swept[1]
        for data in swept[0].values():
            record = json.loads(data)
            assert record["started"] == record["finished"] == 1792428028
            assert type(record["started"]) is type(record["finished"]) is int

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
        cfg = load_experiment(write_config(str(tmp_path), corpus, repetitions=2))
        first = run_sweep(cfg)

        def forbidden(*args):
            raise AssertionError("resume over a finished cell recomputed an artifact")

        monkeypatch.setattr(bpe, "learn_bpe", forbidden)
        monkeypatch.setattr(bpe, "segment_line", forbidden)
        monkeypatch.setattr(bpe, "segment_lines", forbidden)
        # Nor does it bin or read the training corpus.
        monkeypatch.setattr(sampler, "bin_histogram", forbidden)
        os.remove(corpus["train_src"])
        os.remove(corpus["train_tgt"])
        assert [r.chrf for r in run_sweep(cfg)] == [r.chrf for r in first]

    def test_preparation_memory_does_not_grow_with_lines(self, tmp_path):
        # A cell's training sample of 2,000 and then 20,000 lines of one
        # vocabulary, learned and segmented at 4 NMOs: the learner and the
        # segmenter hold word types and stream the lines, so the traced
        # peaks differ by far less than the 20,000 lines' segmentations.
        rng = random.Random(3)
        vocab = ["".join(rng.choices("abcdefghij", k=rng.randint(2, 7))) for _ in range(200)]
        corpus = write_toy_corpus(str(tmp_path))
        peaks = []
        for size in (2000, 20000):
            cfg = load_experiment(write_config(str(tmp_path), corpus, sizes=[size],
                                               nmo_set=[10, 20, 40, 80]))
            cell_dir = os.path.join(cfg.output_dir, "size%d" % size, "rep0")
            os.makedirs(os.path.join(cell_dir, "sample"))
            for side in ("src", "tgt"):
                write_lines_file(os.path.join(cell_dir, "sample", "train." + side),
                                 [" ".join(rng.choices(vocab, k=4)) for _ in range(size)])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                orchestrator._prepare_cells(cfg, [(size, 0)])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert len(os.listdir(os.path.join(cell_dir, "seg"))) == 5 * 4
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


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

        def counted(h, r, *a):  # the hypotheses may be a stream: read it once
            h, r = list(h), list(r)
            calls.extend(zip(h, r))
            return stats(h, r, *a)
        monkeypatch.setattr(chrf, "stats_matrix", counted)
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
        assert main(["report", "--run-dir", cfg.output_dir]) == 0
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

    def test_record_with_artifacts_field_loads(self):
        record = make_record(10, 20, 50.0).to_dict()
        record["artifacts"] = {"hypothesis": "/elsewhere/10_20/hyp.txt"}
        loaded = RunRecord.from_dict(record)
        assert loaded.to_dict() == make_record(10, 20, 50.0).to_dict()
        assert "artifacts" not in loaded.to_dict()

    def test_record_with_float_timestamps_loads(self):
        record = dict(make_record(10, 20, 50.0).to_dict(),
                      started=1792428028.3177662, finished=1792428029.25)
        loaded = RunRecord.from_dict(record)
        assert (loaded.started, loaded.finished) == (1792428028.3177662, 1792428029.25)

    @pytest.mark.parametrize("edit, named", [
        (lambda rec: dict(rec, colour="red"), "unknown key 'colour'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "seed"}, "missing key 'seed'"),
        (lambda rec: list(rec.items()), "got list"),
        (lambda rec: dict(rec, chrf="x"), "chrf must be a finite number or null, got 'x'"),
        (lambda rec: dict(rec, chrf=True), "chrf must be a finite number or null, got True"),
        (lambda rec: dict(rec, p_vs_baseline="0.5"),
         "p_vs_baseline must be a finite number or null, got '0.5'"),
        (lambda rec: dict(rec, status="finished"),
         "status must be one of pending, done, failed, got 'finished'"),
        (lambda rec: dict(rec, src_nmo="10"), "src_nmo must be an int, got '10'"),
        (lambda rec: dict(rec, size=True), "size must be an int, got True"),
        (lambda rec: dict(rec, seed=7.0), "seed must be an int, got 7.0"),
        (lambda rec: dict(rec, config_label=1020), "config_label must be a string, got 1020")],
        ids=["unknown", "missing", "list", "chrf-text", "chrf-bool", "p-text", "status",
             "src_nmo-text", "size-bool", "seed-float", "label-int"])
    def test_foreign_record_is_refused_naming_file_and_key(self, tmp_path, edit, named):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        run_sweep(cfg)
        path = cell_path(cfg, "10_20", "test", "record.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(edit(record), fh)
        unplanned = load_experiment(write_config(str(tmp_path), corpus, nmo_set=[10]))
        for load in (lambda: run_sweep(cfg), lambda: run_sweep(unplanned),
                     lambda: collect_records(cfg.output_dir)):
            with pytest.raises(OrchestratorError) as exc:
                load()
            assert path in str(exc.value) and named in str(exc.value)


class TestResume:
    @pytest.mark.parametrize("field, value", [
        ("seed", 5), ("significance_iterations", 50), ("granularity", 5),
        ("bins", [10, 20, 40]), ("direction", "en-yy")])
    def test_changed_input_is_refused_naming_field_and_values(self, tmp_path, field, value):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        run_sweep(cfg)
        manifest = Path(cfg.output_dir, "manifest.json")
        before = manifest.read_bytes()
        records = record_bytes(cfg)
        changed = load_experiment(write_config(str(tmp_path), corpus, **{field: value}))
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(changed)
        old = json.loads(before)[field]
        assert "%s is %r in its manifest.json but %r in the config" % (field, old, value) \
            in str(exc.value)
        assert manifest.read_bytes() == before and record_bytes(cfg) == records

    def test_moved_test_set_is_refused_and_test_sets_are_kept(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        dev = [{"name": "dev", "src": corpus["valid_src"], "tgt": corpus["valid_tgt"]}]
        cfg = load_experiment(write_config(str(tmp_path), corpus, extra_test_sets=dev))
        run_sweep(cfg)
        moved = [dict(dev[0], tgt=corpus["test_tgt"])]
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(load_experiment(write_config(str(tmp_path), corpus,
                                                   extra_test_sets=moved)))
        assert "test set 'dev' tgt is %r in its manifest.json but %r in the config" % (
            corpus["valid_tgt"], corpus["test_tgt"]) in str(exc.value)

        # Dropping a test set keeps it in the manifest, and a new one is added.
        new = [{"name": "new", "src": corpus["test_src"], "tgt": corpus["test_tgt"]}]
        run_sweep(load_experiment(write_config(str(tmp_path), corpus, extra_test_sets=new)))
        manifest = json.loads(Path(cfg.output_dir, "manifest.json").read_text("utf-8"))
        assert [ts["name"] for ts in manifest["test_sets"]] == ["test", "dev", "new"]
        assert manifest["test_sets"][1] == dict(dev[0])
        assert main(["report", "--run-dir", cfg.output_dir]) == 0

    @pytest.mark.parametrize("field", ["train_src", "train_tgt", "valid_src", "valid_tgt"])
    def test_moved_training_or_validation_file_is_refused(self, tmp_path, field):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        first = run_sweep(cfg)
        manifest = Path(cfg.output_dir, "manifest.json")
        before = manifest.read_bytes()
        records = record_bytes(cfg)
        moved = str(tmp_path / ("moved." + field))
        shutil.copy(corpus[field], moved)
        changed = load_experiment(write_config(str(tmp_path), corpus, **{field: moved}))
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(changed)
        assert "%s is %r in its manifest.json but %r in the config" % (
            field, corpus[field], moved) in str(exc.value)
        assert manifest.read_bytes() == before and record_bytes(cfg) == records

        # A manifest written before the training and validation paths were
        # recorded is not compared on them.
        old = json.loads(before)
        for key in ("train_src", "train_tgt", "valid_src", "valid_tgt"):
            del old[key]
        manifest.write_text(json.dumps(old), encoding="utf-8")
        assert [r.chrf for r in run_sweep(changed)] == [r.chrf for r in first]
        assert json.loads(manifest.read_text("utf-8"))[field] == moved

    def test_resume_with_a_smaller_grid_keeps_and_reports_every_run(self, tmp_path):
        # 20_20 is the best symmetric configuration of every cell. Resuming
        # with fewer NMOs, then with fewer sizes, runs nothing, changes no
        # record and reports the whole directory, as report --run-dir does.
        corpus = write_toy_corpus(str(tmp_path))
        command = planted_backend(tmp_path, corpus, TestSignificance.RATES)

        def sweep(nmo_set, sizes):
            cfg = load_experiment(write_config(str(tmp_path), corpus, nmo_set=nmo_set,
                                               sizes=sizes, backend={"command": command}))
            records = run_sweep(cfg)
            emit_report(records, cfg.output_dir)
            return records

        out = tmp_path / "out"

        def reports():
            paths = [out / name for name in ("results.tsv", "src_nmo_max.tsv", "summary.tsv")]
            return {p.relative_to(out): p.read_bytes()
                    for p in paths + sorted((out / "tiers").iterdir())}

        first = sweep([10, 20], [40, 50])
        assert {r.baseline for r in first} == {"20_20"}
        records = {p: p.read_bytes() for p in out.rglob("record.json")}
        swept = reports()
        assert len(records) == 8 and len(swept) == 3 + 4
        for nmo_set, sizes in (([10], [40, 50]), ([10, 20], [40])):
            shutil.rmtree(out / "tiers")
            resumed = sweep(nmo_set, sizes)
            assert {p: p.read_bytes() for p in out.rglob("record.json")} == records
            assert [r.to_dict() for r in resumed] == [r.to_dict() for r in first]
            rows = [(r.size, r.rep, r.src_nmo, r.tgt_nmo, r.testset) for r in resumed]
            assert rows == sorted(rows)
            assert reports() == swept
            shutil.rmtree(out / "tiers")
            assert main(["report", "--run-dir", str(out)]) == 0
            assert reports() == swept

    @pytest.mark.parametrize("interrupted", ["manifest.json", "train.src", "train.tgt"])
    def test_sample_step_interrupted_at_any_write_resumes_to_a_fresh_sample(
            self, tmp_path, monkeypatch, interrupted):
        # A resume skips the sample step once both sample files exist, so
        # every other sample file must already be on disk by then.
        corpus = write_toy_corpus(str(tmp_path))
        fresh = load_experiment(write_config(str(tmp_path), corpus,
                                             output_dir=str(tmp_path / "fresh")))
        run_sweep(fresh)
        cfg = load_experiment(write_config(str(tmp_path), corpus))

        class Interrupted(Exception):
            pass

        def interrupting(write):
            def wrapped(path, obj):
                if path == cell_path(cfg, "sample", interrupted):
                    raise Interrupted(path)
                return write(path, obj)
            return wrapped

        with monkeypatch.context() as patch:
            for name in ("write_lines", "write_json"):
                patch.setattr(sampler, name, interrupting(getattr(sampler, name)))
            with pytest.raises(Interrupted):
                run_sweep(cfg)
        records = run_sweep(cfg)
        assert len(records) == 4 and all(r.status == "done" for r in records)

        def sample_files(c):
            sample = Path(cell_path(c, "sample"))
            return {p.name: p.read_bytes() for p in sample.iterdir()}

        assert sample_files(cfg) == sample_files(fresh)

    def test_family_of_two_seeds_is_refused(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        run_sweep(cfg)
        path = cell_path(cfg, "20_10", "test", "record.json")
        record = json.loads(read_bytes(path))
        record["seed"] = 8
        write_lines_file(path, [json.dumps(record)])
        with pytest.raises(OrchestratorError, match="test set test: records of seeds 7 and 8"):
            evaluate(cfg.output_dir, collect_records(cfg.output_dir))

    def test_family_of_two_seeds_is_refused_before_any_write_or_backend(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        backend = {"command": tagging_backend(tmp_path)}
        run_sweep(load_experiment(write_config(str(tmp_path), corpus, backend=backend)))
        cfg = load_experiment(write_config(str(tmp_path), corpus, backend=backend,
                                           nmo_set=[10, 20, 40]))
        path = cell_path(cfg, "20_10", "test", "record.json")
        record = json.loads(read_bytes(path))
        record["seed"] = 8
        write_lines_file(path, [json.dumps(record)])
        manifest, calls = read_bytes(os.path.join(cfg.output_dir, "manifest.json")), \
            backend_calls(tmp_path)
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(cfg)
        assert str(exc.value) == "size 50, rep 0, test set test: records of seeds 7 and 8"
        assert backend_calls(tmp_path) == calls
        assert read_bytes(os.path.join(cfg.output_dir, "manifest.json")) == manifest
        assert not os.path.exists(cell_path(cfg, "tables", "en.40.bpe"))

    def test_record_of_a_test_set_the_manifest_does_not_name_is_refused(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus))
        run_sweep(cfg)
        path = cell_path(cfg, "20_10", "test", "record.json")
        record = json.loads(read_bytes(path))
        record.update(testset="gone", chrf=None)
        write_lines_file(path, [json.dumps(record)])
        with pytest.raises(OrchestratorError) as exc:
            evaluate(cfg.output_dir, collect_records(cfg.output_dir))
        assert str(exc.value) == "%s names no test set 'gone' in manifest.json" % cfg.output_dir


def hold_sweep_lock(out):
    """A process that locks ``out/sweep.lock`` as a sweep does (an exclusive
    ``flock``, its pid in the file) and holds it until it is killed."""
    holder = subprocess.Popen(
        [sys.executable, "-c", "import fcntl, os, sys\n"
         "os.makedirs(sys.argv[1])\n"
         "fd = os.open(os.path.join(sys.argv[1], 'sweep.lock'), os.O_RDWR | os.O_CREAT)\n"
         "fcntl.flock(fd, fcntl.LOCK_EX)\n"
         "os.write(fd, b'%d\\n' % os.getpid())\n"
         "print('held', flush=True)\n"
         "sys.stdin.read()\n", out],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert holder.stdout.readline() == "held\n"
    return holder


class TestSweepLock:
    def test_held_lock_refuses_a_second_sweep_and_a_dead_holder_is_taken_over(
            self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": tagging_backend(tmp_path)}))
        lock = os.path.join(cfg.output_dir, "sweep.lock")
        holder = hold_sweep_lock(cfg.output_dir)
        try:
            with pytest.raises(OrchestratorError) as exc:
                run_sweep(cfg)
        finally:
            holder.kill()  # as a killed sweep dies, leaving its lock file
            holder.communicate()
        assert str(exc.value) == "%s is in use by another sweep: %s is locked by pid %d" % (
            cfg.output_dir, lock, holder.pid)
        assert sorted(os.listdir(cfg.output_dir)) == ["sweep.lock"]
        assert backend_calls(tmp_path) == []
        records = run_sweep(cfg)
        assert len(records) == 4 and all(r.status == "done" for r in records)
        assert len(backend_calls(tmp_path)) == 4
        assert not os.path.exists(lock)

    def test_a_sweep_that_raises_midway_leaves_no_lock(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path), n_train=60)
        cfg = load_experiment(write_config(str(tmp_path), corpus, sizes=[40, 600]))
        with pytest.raises(sampler.SamplerError, match="target size 600 exceeds"):
            run_sweep(cfg)
        assert os.path.exists(os.path.join(cfg.output_dir, "manifest.json"))
        assert not os.path.exists(os.path.join(cfg.output_dir, "sweep.lock"))
        cfg.sizes = [40]
        assert len(run_sweep(cfg)) == 4


def make_record(src, tgt, score, size=50, rep=0, direction="en-xx",
                testset="test", status="done"):
    return RunRecord(config_label=config_label(src, tgt), src_nmo=src,
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

    def test_near_tie_baseline_and_zero_delta(self, tmp_path):
        # The symmetric systems differ by 0.003, so both render as 50.12.
        records = [make_record(500, 500, 50.121), make_record(1000, 1000, 50.124),
                   make_record(500, 1000, 51.004), make_record(1000, 500, 49.0)]
        emit_report(records, str(tmp_path))
        tiers = tmp_path / "tiers"
        tsv = (tiers / "en-xx_size50_rep0_test.tsv").read_text(encoding="utf-8")
        rows = {l.split("\t")[0]: l.split("\t")[1:5] for l in tsv.split("\n")[1:-1]}
        assert rows["Baseline"] == ["1K", "1K", "50.12", "0.00"]
        assert rows["High A"] == ["500", "1K", "51.00", "0.88"]
        assert rows["Low B"] == ["500", "500", "50.12", "0.00"]
        text = (tiers / "en-xx_size50_rep0_test.txt").read_text(encoding="utf-8")
        assert "-0.00" not in text and "Low B     500  500  50.12   0.00" in text

    def test_repetition_average(self, tmp_path):
        records = [make_record(500, 1000, s, rep=i) for i, s in enumerate((10, 20, 30))]
        artifacts = emit_report(records, str(tmp_path))
        summary = Path(artifacts["summary"]).read_text(encoding="utf-8").strip().split("\n")
        assert summary[1].split("\t")[4] == "20.00"
        assert summary[1].split("\t")[5] == "3"

    def test_src_nmo_max_trace(self, tmp_path):
        # Source NMO 2000 ties two target NMOs: the smaller one is its best.
        records = [make_record(500, 500, 10.0), make_record(500, 1000, 12.0),
                   make_record(1000, 500, 15.0), make_record(1000, 1000, 11.0),
                   make_record(2000, 1000, 13.0), make_record(2000, 500, 13.0)]
        artifacts = emit_report(records, str(tmp_path))
        lines = Path(artifacts["max_trace"]).read_text(encoding="utf-8").strip().split("\n")[1:]
        maxima = {int(l.split("\t")[4]): float(l.split("\t")[5]) for l in lines}
        assert maxima == {500: 12.0, 1000: 15.0, 2000: 13.0}
        best = {int(l.split("\t")[4]): l.split("\t")[6] for l in lines}
        assert best[2000] == config_label(2000, 500)

    def test_two_records_of_one_run_are_refused_before_any_file(self, tmp_path):
        records = [make_record(src, tgt, 30.0 + src / 100 + tgt / 1000)
                   for src in (500, 1000) for tgt in (500, 1000)]
        records.append(make_record(1000, 500, 42.0))
        with pytest.raises(OrchestratorError) as err:
            emit_report(records, str(tmp_path))
        assert str(err.value) == ("two records for one run: direction en-xx, size 50, rep 0, "
                                  "test set test, configuration 1K_500")
        assert list(tmp_path.iterdir()) == []

    def test_unscored_done_record_is_refused_before_any_file(self, tmp_path):
        records = [make_record(500, 500, 30.0), make_record(500, 1000, 31.0),
                   make_record(1000, 500, None)]
        with pytest.raises(OrchestratorError) as err:
            emit_report(records, str(tmp_path))
        assert str(err.value) == (
            "done record without a score: direction en-xx, size 50, rep 0, test set test, "
            "configuration 1K_500; score it with evaluate or report --run-dir")
        assert list(tmp_path.iterdir()) == []

    def test_record_order_does_not_change_any_report(self, tmp_path):
        # Summed in repetition order, as here, 500_1K's three scores average
        # to 28.554999999999996 (28.55); summed in reverse, to
        # 28.555000000000003 (28.56). A failed 250_250 run of each
        # repetition's test set comes first in report order, and its family
        # still follows dev's in key order.
        asymmetric = (2.504056, 27.555644, 55.6053)
        records = []
        for testset in ("test", "dev"):
            for rep, score in enumerate(asymmetric):
                if testset == "test":
                    records.append(make_record(250, 250, None, rep=rep, status="failed"))
                records += [make_record(500, 500, 20.0 + rep, rep=rep, testset=testset),
                            make_record(1000, 1000, 25.5 - rep, rep=rep, testset=testset),
                            make_record(500, 1000, score, rep=rep, testset=testset),
                            make_record(1000, 500, 30.25, rep=rep, testset=testset),
                            make_record(2000, 500, None, rep=rep, testset=testset,
                                        status="failed")]
        records[0].p_vs_baseline, records[0].baseline = 0.0123, "1K_1K"

        def reports(order, name):
            out = tmp_path / name
            emit_report(order, str(out))
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        forward = reports(records, "forward")
        assert reports(records[::-1], "reverse") == forward
        assert set(forward) == {"results.tsv", "src_nmo_max.tsv", "summary.tsv"} | {
            "tiers/en-xx_size50_rep%d_%s.%s" % (rep, testset, ext)
            for rep in range(3) for testset in ("test", "dev") for ext in ("tsv", "txt")}
        assert b"en-xx\t50\ttest\t500_1K\t28.55\t3\n" in forward["summary.tsv"]
        assert forward["src_nmo_max.tsv"].split(b"\n")[1].startswith(b"en-xx\t50\t0\tdev\t")
        # Records of two directions that tie on every other key: results.tsv
        # rows go by direction first, whatever the input order.
        mixed = [make_record(src, tgt, 20.0 + src / 100 + tgt / 1000, direction=direction)
                 for direction in ("en-hi", "hi-en") for src in (500, 1000) for tgt in (500, 1000)]
        forward = reports(mixed, "mixed")
        assert reports(mixed[::-1], "mixed-reverse") == forward
        rows = forward["results.tsv"].split(b"\n")[1:-1]
        assert [row.split(b"\t")[3] for row in rows] == [b"en-hi"] * 4 + [b"hi-en"] * 4

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


def tagging_backend(tmp_path, fail_config=None, dangle_config=None):
    """Backend command that appends its configuration label to calls.log
    and writes ``line<i>`` for the i-th ``{test_src}`` line; it exits 1
    without output for ``fail_config``, and ends its last line with the
    continuation marker ``@@`` for ``dangle_config``."""
    script = tmp_path / "tag.py"
    script.write_text(
        "import sys\n"
        "config, src_path, out_path, log_path = sys.argv[1:]\n"
        "with open(log_path, 'a') as fh: fh.write(config + '\\n')\n"
        "if config == %r: sys.exit(1)\n"
        "with open(src_path) as fh: n = len(fh.readlines())\n"
        "tags = ['line%%d' %% i for i in range(n)]\n"
        "if config == %r: tags[-1] += '@@'\n"
        "with open(out_path, 'w') as fh: fh.writelines(tag + '\\n' for tag in tags)\n"
        % (fail_config, dangle_config))
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

    def test_reference_count_off_is_refused_before_any_run(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        extra = tagged_sets(tmp_path, corpus, n_refs2=9)
        cfg = load_experiment(write_config(str(tmp_path), corpus, extra_test_sets=extra,
                                           backend={"command": tagging_backend(tmp_path)}))
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(cfg)
        assert str(exc.value) == ("test set 'test2' has 10 source lines and 9 references; it "
                                  "needs one reference per source line, and at least one")
        assert record_bytes(cfg) == {} and backend_calls(tmp_path) == []
        # Nothing was recorded as failed, so the sweep runs once the file is mended.
        write_lines_file(extra[0]["tgt"], ["line%d" % (12 + i) for i in range(10)])
        records = run_sweep(cfg)
        assert len(records) == 8 and all(r.status == "done" and r.chrf == 100.0
                                          for r in records)

    def test_empty_test_set_is_refused_before_any_run(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus, n_test2=0),
            backend={"command": tagging_backend(tmp_path)}))
        with pytest.raises(OrchestratorError) as exc:
            run_sweep(cfg)
        assert str(exc.value) == ("test set 'test2' has 0 source lines and 0 references; it "
                                  "needs one reference per source line, and at least one")
        assert record_bytes(cfg) == {} and backend_calls(tmp_path) == []

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

    def test_dangling_continuation_fails_only_its_run(self, tmp_path):
        # 10_20's last hypothesis line, the last of test set test2, ends in "@@".
        corpus = write_toy_corpus(str(tmp_path))
        cfg = load_experiment(write_config(
            str(tmp_path), corpus, extra_test_sets=tagged_sets(tmp_path, corpus),
            backend={"command": tagging_backend(tmp_path, dangle_config="10_20")}))
        records = run_sweep(cfg)
        failed = [r for r in records if r.status == "failed"]
        assert [(r.config_label, r.testset) for r in failed] == [("10_20", "test2")]
        assert failed[0].failure_reason == \
            "dangling continuation at sentence end: 'line21@@'"
        assert all(r.chrf == 100.0 and r.p_vs_baseline == 1.0
                   for r in records if r.status == "done")
        assert not os.path.exists(cell_path(cfg, "10_20", "test2", "hyp.detok.txt"))

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

    def test_quoted_placeholders_survive_spaces_quotes_and_substitutions(self, tmp_path,
                                                                         monkeypatch):
        # Each placeholder expands to one shell word, so nothing in the output
        # directory's name is split, unquoted or executed.
        monkeypatch.chdir(tmp_path)
        corpus = write_toy_corpus(str(tmp_path), parallel_identity=True)
        out = str(tmp_path / "out with space's $(touch INJECTED)")
        cfg = load_experiment(write_config(str(tmp_path), corpus, output_dir=out,
                                           backend={"command": IDENTITY_BACKEND}))
        records = run_sweep(cfg)
        assert len(records) == 4 and all(r.status == "done" and r.chrf == 100.0
                                          for r in records)
        assert not (tmp_path / "INJECTED").exists()

    def test_undecodable_hypothesis_fails_only_its_configuration(self, tmp_path):
        corpus = write_toy_corpus(str(tmp_path))
        # 10_20 appends the byte 0xff to its hypothesis.
        command = ("h={hyp_out}; cp %s \"$h\" && if [ {config} = 10_20 ]; then "
                   "printf '\\377' >> \"$h\"; fi" % shlex.quote(corpus["test_tgt"]))
        cfg = load_experiment(write_config(str(tmp_path), corpus,
                                           backend={"command": command}))
        records = {r.config_label: r for r in run_sweep(cfg)}
        assert records["10_20"].status == "failed"
        assert records["10_20"].failure_reason.startswith(
            "%s is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
            % cell_path(cfg, "10_20", "hyp.txt"))
        assert all(records[label].status == "done" and records[label].chrf == 100.0
                   for label in ("10_10", "20_10", "20_20"))
