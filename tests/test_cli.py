import io
import json
import os
import sys
from pathlib import Path

import pytest

from asymbpe.bpe import MergeTable, learn_bpe
from asymbpe.cli import main
from conftest import oracle_segment
from test_orchestrator import write_config, write_toy_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_apply_unbpe_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\nthe mats\n", encoding="utf-8")
    table = tmp_path / "table.bpe"
    code, _, err = run(capsys, "learn-bpe", "--input", str(corpus),
                       "--nmo", "8", "--output", str(table))
    assert code == 0 and "merge rules" in err
    assert table.read_text(encoding="utf-8").startswith("#asym-bpe v1\n")

    segmented = tmp_path / "seg.txt"
    code, _, _ = run(capsys, "apply-bpe", "--table", str(table),
                     "--input", str(corpus), "--output", str(segmented))
    assert code == 0

    restored = tmp_path / "restored.txt"
    code, _, _ = run(capsys, "unbpe", "--input", str(segmented),
                     "--output", str(restored))
    assert code == 0
    assert restored.read_text(encoding="utf-8") == corpus.read_text(encoding="utf-8")

    # Each reads its whole input before writing, so a file can be rewritten in place.
    original = corpus.read_text(encoding="utf-8")
    assert run(capsys, "apply-bpe", "--table", str(table), "--input", str(corpus),
               "--output", str(corpus))[0] == 0
    assert corpus.read_text(encoding="utf-8") == segmented.read_text(encoding="utf-8")
    assert run(capsys, "unbpe", "--input", str(corpus), "--output", str(corpus))[0] == 0
    assert corpus.read_text(encoding="utf-8") == original


def test_apply_bpe_and_unbpe_use_stdin_and_stdout(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\n", encoding="utf-8")
    table = tmp_path / "table.bpe"
    assert run(capsys, "learn-bpe", "--input", str(corpus), "--nmo", "8",
               "--output", str(table))[0] == 0

    monkeypatch.setattr(sys, "stdin", io.StringIO("the cats\n"))
    code, segmented, _ = run(capsys, "apply-bpe", "--table", str(table))
    assert code == 0 and segmented.count("\n") == 1 and "@@" in segmented
    monkeypatch.setattr(sys, "stdin", io.StringIO(segmented))
    assert run(capsys, "unbpe") == (0, "the cats\n", "")


def test_learn_bpe_nmo_takes_k_notation(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\nthe mats\n", encoding="utf-8")
    table = tmp_path / "table.bpe"
    code, _, err = run(capsys, "learn-bpe", "--input", str(corpus),
                       "--nmo", "0.5K", "--output", str(table))
    assert code == 0
    expected = learn_bpe(corpus.read_text(encoding="utf-8").splitlines(), 500)
    assert MergeTable.load(table) == expected

    with pytest.raises(SystemExit) as exc:
        main(["learn-bpe", "--input", str(corpus), "--nmo", "xK",
              "--output", str(tmp_path / "bad.bpe")])
    assert exc.value.code != 0
    assert "--nmo" in capsys.readouterr().err
    assert not (tmp_path / "bad.bpe").exists()


def test_apply_bpe_matches_oracle(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abab abba baab\naaa bbb ab\nba ab  ab\n\nxy\u0939\u093f ab\n",
                      encoding="utf-8")
    table = tmp_path / "table.bpe"
    assert run(capsys, "learn-bpe", "--input", str(corpus), "--nmo", "6",
               "--output", str(table))[0] == 0
    pairs = [r.pair for r in MergeTable.load(table).rules]
    assert len(pairs) == 6

    segmented = tmp_path / "seg.txt"
    assert run(capsys, "apply-bpe", "--table", str(table), "--input", str(corpus),
               "--output", str(segmented))[0] == 0
    expected = "".join(" ".join(oracle_segment(pairs, word) for word in line.split()) + "\n"
                       for line in corpus.read_text(encoding="utf-8").splitlines())
    assert segmented.read_text(encoding="utf-8") == expected


def test_sample_emits_files_and_manifest(tmp_path, capsys):
    src = tmp_path / "all.src"
    tgt = tmp_path / "all.tgt"
    src.write_text("".join("w %s\n" % (" ".join(["x"] * (i % 20)))
                           for i in range(200)), encoding="utf-8")
    tgt.write_text("".join("t%d\n" % i for i in range(200)), encoding="utf-8")
    prefix = str(tmp_path / "sample" / "s100")
    code, _, err = run(capsys, "sample", "--src", str(src), "--tgt", str(tgt),
                       "--size", "100", "--seed", "5", "--granularity", "1",
                       "--out-prefix", prefix)
    assert code == 0
    manifest = json.loads(Path(prefix + ".manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 5
    n = len(Path(prefix + ".src").read_text(encoding="utf-8").splitlines())
    assert n == len(Path(prefix + ".tgt").read_text(encoding="utf-8").splitlines())
    assert n == manifest["sampled_pairs"]


def test_chrf_and_significance(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("the cat sat\non the mat\n", encoding="utf-8")
    hyp.write_text("the cat sat\non the mat\n", encoding="utf-8")
    code, out, _ = run(capsys, "chrf", "--hyp", str(hyp), "--ref", str(ref))
    assert code == 0 and out.strip() == "100.00"

    code, out, _ = run(capsys, "significance", "--hyp-a", str(hyp),
                       "--hyp-b", str(hyp), "--ref", str(ref),
                       "--iterations", "200", "--seed", "1")
    assert code == 0
    assert "paired-approximate-randomization" in out
    assert "p-value: 1.000000" in out


def test_recommend(capsys):
    code, out, _ = run(capsys, "recommend", "--size", "100000")
    assert code == 0
    assert "low" in out and "4000-32000" in out and "500-2000" in out


def test_sweep_and_report(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus, nmo_set=[10, 20, 30])
    code, out, _ = run(capsys, "sweep", "--config", config)
    assert code == 0 and "completed 9 runs" in out

    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "report", "--run-dir", out_dir)
    assert code == 0 and "results.tsv" in out

    code, out, _ = run(capsys, "report", "--results",
                       os.path.join(out_dir, "results.tsv"),
                       "--direction", "en-xx", "--size", "50")
    assert code == 0
    assert "Baseline" in out and "High A" in out


def test_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "chrf", "--hyp", str(tmp_path / "missing"),
                       "--ref", str(tmp_path / "missing"))
    assert code == 1 and "error:" in err


def test_significance_on_empty_files_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "significance", "--hyp-a", str(empty),
                       "--hyp-b", str(empty), "--ref", str(empty))
    assert code == 1 and err.startswith("error:") and "empty" in err


def test_sweep_refuses_workers_below_one(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus)
    code, _, err = run(capsys, "sweep", "--config", config, "--workers", "-3")
    assert code == 1 and err.startswith("error:") and "--workers" in err
    assert not (tmp_path / "out").exists()


def test_sample_refuses_granularity_below_one(tmp_path, capsys):
    src = tmp_path / "all.src"
    tgt = tmp_path / "all.tgt"
    src.write_text("a b\nc d e\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    prefix = str(tmp_path / "s1")
    code, _, err = run(capsys, "sample", "--src", str(src), "--tgt", str(tgt),
                       "--size", "1", "--seed", "5", "--granularity", "0",
                       "--out-prefix", prefix)
    assert code == 1 and err.startswith("error:") and "granularity" in err
    assert not os.path.exists(prefix + ".src")


@pytest.mark.parametrize("bins", ["20,10", "abc", "0,5"])
def test_sample_refuses_bad_bins(tmp_path, capsys, bins):
    src = tmp_path / "all.src"
    tgt = tmp_path / "all.tgt"
    src.write_text("a b\nc d e\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    prefix = str(tmp_path / "s1")
    code, _, err = run(capsys, "sample", "--src", str(src), "--tgt", str(tgt),
                       "--size", "1", "--seed", "5", "--bins", bins,
                       "--out-prefix", prefix)
    assert code == 1 and err.startswith("error:") and "--bins" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["all.src", "all.tgt"]


@pytest.mark.parametrize("flags", [
    ["--results", "r.tsv"], ["--direction", "xx-yy"], ["--size", "999"], ["--testset", "dev"],
    ["--tsv", "x.tsv"], ["--size", "999", "--direction", "xx-yy", "--tsv", "x.tsv"]])
def test_report_run_dir_refuses_filter_flags(tmp_path, capsys, monkeypatch, flags):
    # --run-dir reports the whole directory; each of these used to be ignored.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--run-dir", str(tmp_path)] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_learn_bpe_refuses_fractional_merges(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["learn-bpe", "--input", str(corpus), "--nmo", "0.0025K",
              "--output", str(tmp_path / "t.bpe")])
    assert exc.value.code != 0
    assert "0.0025K" in capsys.readouterr().err
    assert not (tmp_path / "t.bpe").exists()


def test_sample_refuses_a_plan_that_draws_nothing(tmp_path, capsys):
    src = tmp_path / "all.src"
    tgt = tmp_path / "all.tgt"
    src.write_text("".join("w%d x\n" % i for i in range(30)), encoding="utf-8")
    tgt.write_text("".join("t%d\n" % i for i in range(30)), encoding="utf-8")
    prefix = str(tmp_path / "s5")
    code, _, err = run(capsys, "sample", "--src", str(src), "--tgt", str(tgt),
                       "--size", "5", "--seed", "1", "--out-prefix", prefix)
    assert code == 1 and err.startswith("error:")
    assert "target size 5" in err and "granularity 10" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["all.src", "all.tgt"]


def test_sweep_refuses_a_size_that_draws_nothing(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus, sizes=[5])
    code, _, err = run(capsys, "sweep", "--config", config)
    assert code == 1 and "target size 5" in err and "granularity 10" in err
    assert not (tmp_path / "out" / "size5" / "rep0" / "sample").exists()
