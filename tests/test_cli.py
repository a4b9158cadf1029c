import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from asymbpe import orchestrator, sampler
from asymbpe.bpe import MergeTable, learn_bpe
from asymbpe.chrf import corpus_chrf, paired_significance, stats_matrix
from asymbpe.cli import build_parser, main
from asymbpe.textfiles import read_lines
from conftest import oracle_draw, oracle_segment
from test_orchestrator import (IDENTITY_BACKEND, planted_backend, write_config,
                               write_toy_corpus)


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

    # Each writes a temporary file and renames it, so a file can be rewritten in place.
    original = corpus.read_text(encoding="utf-8")
    assert run(capsys, "apply-bpe", "--table", str(table), "--input", str(corpus),
               "--output", str(corpus))[0] == 0
    assert corpus.read_text(encoding="utf-8") == segmented.read_text(encoding="utf-8")
    assert run(capsys, "unbpe", "--input", str(corpus), "--output", str(corpus))[0] == 0
    assert corpus.read_text(encoding="utf-8") == original


def test_in_place_apply_bpe_and_unbpe_match_out_of_place(tmp_path, capsys):
    # More lines than one read buffer holds, blank lines included.
    lines = ["the cat sat on mat %d" % (i % 97) if i % 50 else "" for i in range(3000)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    inplace = tmp_path / "inplace.txt"
    shutil.copy(corpus, inplace)
    table, seg, out = (str(tmp_path / name) for name in ("t.bpe", "seg.txt", "out.txt"))
    assert run(capsys, "learn-bpe", "--input", str(corpus), "--nmo", "30",
               "--output", table)[0] == 0
    apply = ["apply-bpe", "--table", table]
    assert run(capsys, *apply, "--input", str(corpus), "--output", seg)[0] == 0
    assert run(capsys, *apply, "--input", str(inplace), "--output", str(inplace))[0] == 0
    assert inplace.read_bytes() == Path(seg).read_bytes()
    assert run(capsys, "unbpe", "--input", seg, "--output", out)[0] == 0
    assert run(capsys, "unbpe", "--input", str(inplace), "--output", str(inplace))[0] == 0
    assert inplace.read_bytes() == Path(out).read_bytes() == corpus.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "inplace.txt", "out.txt",
                                            "seg.txt", "t.bpe"]


def test_failed_unbpe_leaves_its_output_untouched(tmp_path, capsys):
    segmented = tmp_path / "seg.txt"
    segmented.write_text("".join("c@@ a@@ t %d\n" % i for i in range(2000))
                         + "dangling@@\n" + "c@@ at\n" * 10, encoding="utf-8")
    output = tmp_path / "out.txt"
    output.write_bytes(b"an earlier output\n")
    for target in (output, segmented):
        before = target.read_bytes()
        code, _, err = run(capsys, "unbpe", "--input", str(segmented), "--output", str(target))
        assert code == 1 and "dangling continuation" in err
        assert target.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "seg.txt"]


def test_apply_bpe_and_unbpe_use_stdin_and_stdout(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\n", encoding="utf-8")
    table = tmp_path / "table.bpe"
    assert run(capsys, "learn-bpe", "--input", str(corpus), "--nmo", "8",
               "--output", str(table))[0] == 0

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"the cats\n")))
    code, segmented, _ = run(capsys, "apply-bpe", "--table", str(table))
    assert code == 0 and segmented.count("\n") == 1 and "@@" in segmented
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(segmented.encode())))
    assert run(capsys, "unbpe") == (0, "the cats\n", "")


@pytest.mark.parametrize("command", [["unbpe"], ["apply-bpe", "--table", "{table}"]],
                         ids=["unbpe", "apply-bpe"])
def test_stdin_that_is_not_utf8_is_refused(tmp_path, capsys, monkeypatch, command):
    table = tmp_path / "t.bpe"
    learn_bpe(["the cat"], 2).save(table)
    stdin = io.TextIOWrapper(io.BytesIO(b"ab\xff\n"))
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, *[arg.format(table=table) for arg in command])
    assert (code, out) == (1, "")
    assert err.startswith("error: <stdin> is not UTF-8 text: 'utf-8' codec can't decode "
                          "byte 0xff")
    assert not stdin.closed and not stdin.buffer.closed


def test_learn_bpe_and_apply_bpe_create_the_output_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe cat ran\n", encoding="utf-8")
    table = tmp_path / "tables" / "t.bpe"
    assert run(capsys, "learn-bpe", "--input", str(corpus), "--nmo", "4",
               "--output", str(table))[0] == 0
    assert MergeTable.load(table) == learn_bpe(["the cat sat", "the cat ran"], 4)
    segmented = tmp_path / "seg" / "corpus.seg"
    assert run(capsys, "apply-bpe", "--table", str(table), "--input", str(corpus),
               "--output", str(segmented))[0] == 0
    assert len(segmented.read_text(encoding="utf-8").splitlines()) == 2
    assert sorted(p.name for p in (tmp_path / "tables").iterdir()) == ["t.bpe"]


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
    pairs = list(MergeTable.load(table).rules)
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


def test_failed_sample_manifest_write_leaves_the_earlier_manifest(tmp_path, capsys,
                                                                    monkeypatch):
    src = tmp_path / "all.src"
    src.write_text("".join("w%d x\n" % i for i in range(50)), encoding="utf-8")
    prefix = str(tmp_path / "s20")
    argv = ["sample", "--src", str(src), "--tgt", str(src), "--size", "20", "--seed", "1",
            "--granularity", "1", "--out-prefix", prefix]
    assert run(capsys, *argv)[0] == 0
    manifest = Path(prefix + ".manifest.json")
    before = manifest.read_bytes()
    assert before.startswith(b'{\n  "bin_plan"') and before.endswith(b"}\n")

    # The new manifest is written in full to its temporary file, whose
    # rename into place then fails.
    replace = os.replace

    def failed_manifest_replace(src, dst):
        if str(dst).endswith(".manifest.json"):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failed_manifest_replace)
    code, _, err = run(capsys, *argv)
    assert code == 1 and "disk full" in err
    assert manifest.read_bytes() == before
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


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


def test_chrf_on_empty_files_names_the_empty_test_set(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "chrf", "--hyp", str(empty), "--ref", str(empty))
    assert (code, out, err) == (1, "", "error: empty test set: no sentences to score\n")


@pytest.mark.parametrize("flag, value", [("--char-order", "0"), ("--word-order", "0"),
                                         ("--beta", "1")])
def test_chrf_takes_no_metric_switch(tmp_path, capsys, flag, value):
    ref = tmp_path / "ref.txt"
    ref.write_text("the cat sat\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["chrf", "--hyp", str(ref), "--ref", str(ref), flag, value])
    assert exc.value.code == 2 and "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_sweep_scores_and_p_values_are_the_cli_commands(tmp_path, capsys):
    # The backend keeps each source NMO's segmentation visible ("@@ " -> "@"),
    # so the runs' hypotheses and scores differ; each record's score and
    # p-value must be what `asymbpe chrf` and `asymbpe significance` print.
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus, nmo_set=[10, 20, 40], repetitions=2,
                          backend="sed 's/@@ /@/g' {test_src} > {hyp_out}")
    assert run(capsys, "sweep", "--config", config)[0] == 0
    cfg = json.loads(Path(config).read_text(encoding="utf-8"))
    records = orchestrator.collect_records(cfg["output_dir"])
    done = [r for r in records if r.status == "done"]
    assert len(done) == len(records) == 18

    def run_dir(r, label):
        return os.path.join(cfg["output_dir"], "size%d" % r.size, "rep%d" % r.rep, label,
                            r.testset)

    assert len({r.chrf for r in done}) > 3
    for r in done:
        hyp = os.path.join(run_dir(r, r.config_label), "hyp.detok.txt")
        code, out, _ = run(capsys, "chrf", "--hyp", hyp, "--ref", corpus["test_tgt"])
        assert code == 0 and abs(float(out) - r.chrf) <= 0.005, (r.config_label, out, r.chrf)
        baseline = os.path.join(run_dir(r, r.baseline), "hyp.detok.txt")
        code, out, _ = run(capsys, "significance", "--hyp-a", hyp, "--hyp-b", baseline,
                           "--ref", corpus["test_tgt"],
                           "--iterations", str(cfg["significance_iterations"]),
                           "--seed", str(cfg["seed"] + r.rep))
        assert code == 0 and "p-value: %.6f\n" % r.p_vs_baseline in out, (r.config_label, out)
    assert any(r.p_vs_baseline < 1 for r in done)


def test_readme_cli_commands_parse():
    # Every `asymbpe ...` command of README's CLI block, continuation lines
    # joined and cut at a shell |, < or >, parses: a flag the CLI has lost
    # fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        start = line.find("asymbpe ")
        if start >= 0 and not line.lstrip().startswith("#"):
            commands.append(shlex.split(re.split(r"[|<>]", line[start:])[0])[1:])
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.func.__name__ == "cmd_" + argv[0].replace("-", "_"), argv


def test_sweep_refuses_workers_below_one(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus)
    code, _, err = run(capsys, "sweep", "--config", config, "--workers", "-3")
    assert code == 1 and err.startswith("error:") and "--workers" in err
    assert not (tmp_path / "out").exists()


def test_sweep_workers_flag_runs_every_cell_from_one_pool(tmp_path, capsys):
    # rep0's 20_20 waits for a flag that only a run of rep1 sets, and gives up
    # after 5 s: it finishes only if a second worker takes a run of the next
    # cell while it waits. The config's one worker is overridden by --workers.
    corpus = write_toy_corpus(str(tmp_path))
    script = tmp_path / "wait.py"
    script.write_text(
        "import os, sys, time\n"
        "model_dir, src_path, out_path = sys.argv[1:]\n"
        "cell, config = os.path.split(os.path.dirname(model_dir))\n"
        "flag = os.path.join(os.path.dirname(cell), 'rep0', '20_20', 'model', 'flag')\n"
        "if os.path.basename(cell) == 'rep1':\n"
        "    os.makedirs(os.path.dirname(flag), exist_ok=True)\n"
        "    open(flag, 'w').close()\n"
        "elif config == '20_20':\n"
        "    deadline = time.time() + 5\n"
        "    while not os.path.exists(flag):\n"
        "        if time.time() > deadline: sys.exit(3)\n"
        "        time.sleep(0.01)\n"
        "with open(src_path) as src, open(out_path, 'w') as out:\n"
        "    out.writelines(line.replace('@@ ', '') for line in src)\n")
    config = write_config(str(tmp_path), corpus, repetitions=2, workers=1,
                          backend="python3 %s {model_dir} {test_src} {hyp_out}" % script)
    code, out, _ = run(capsys, "sweep", "--config", config, "--workers", "2")
    assert code == 0 and "completed 8 runs (0 failed)" in out
    records = orchestrator.collect_records(str(tmp_path / "out"))
    assert len(records) == 8 and all(r.status == "done" for r in records)


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
    # report takes --run-dir alone: it reports the whole directory.
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
    assert exc.value.code == 2
    assert "'0.0025K' is 2.5 merges" in capsys.readouterr().err  # parse_nmo's reason
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


def test_sample_refuses_sides_of_different_line_counts_naming_both(tmp_path, capsys):
    src = tmp_path / "all.src"
    tgt = tmp_path / "all.tgt"
    src.write_text("a b\nc d\n", encoding="utf-8")
    tgt.write_text("x\ny\nz\n", encoding="utf-8")
    code, _, err = run(capsys, "sample", "--src", str(src), "--tgt", str(tgt), "--size", "1",
                       "--seed", "1", "--granularity", "1", "--out-prefix",
                       str(tmp_path / "out" / "s1"))
    assert code == 1
    assert err == ("error: source file %s and target file %s line counts differ: 2 vs 3\n"
                   % (src, tgt))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["all.src", "all.tgt"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_sample_refuses_a_side_that_does_not_read_the_same_twice(tmp_path, capsys):
    # Sampling reads each side twice; a pipe is empty the second time.
    tgt = tmp_path / "all.tgt"
    tgt.write_text("".join("t%d\n" % i for i in range(30)), encoding="utf-8")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, "".join("w%d x\n" % i for i in range(30)).encode("utf-8"))
        os.close(write_end)
        src = "/dev/fd/%d" % read_end
        code, _, err = run(capsys, "sample", "--src", src, "--tgt", str(tgt), "--size", "10",
                           "--seed", "1", "--out-prefix", str(tmp_path / "s10"))
    finally:
        os.close(read_end)
    assert code == 1
    assert "%s has 0 lines on its second read, not 30" % src in err
    assert not (tmp_path / "s10.src").exists() and not (tmp_path / "s10.tgt").exists()


def test_sweep_refuses_a_training_corpus_of_different_line_counts_naming_both(tmp_path,
                                                                                capsys):
    corpus = write_toy_corpus(str(tmp_path))
    with open(corpus["train_tgt"], "a", encoding="utf-8") as fh:
        fh.write("one more\n")
    code, _, err = run(capsys, "sweep", "--config", write_config(str(tmp_path), corpus))
    assert code == 1
    assert ("source file %s and target file %s line counts differ: 120 vs 121"
            % (corpus["train_src"], corpus["train_tgt"])) in err
    assert not (tmp_path / "out" / "size50").exists()


@pytest.mark.parametrize("seed", range(3))
def test_sample_writes_the_bytes_of_a_sweep_cell_sample(tmp_path, capsys, seed):
    # Random corpora, bins, granularities and sizes: asymbpe sample with a
    # sweep's settings and seed + rep writes the cell's sample files and
    # manifest, and both sample files hold the lines of the two-pass oracle draw.
    rng = random.Random(seed)
    n = rng.randint(60, 300)
    src = [" ".join("w" * rng.randint(1, 3) for _ in range(rng.randint(1, 45)))
           for _ in range(n)]
    tgt = ["t%d %s" % (i, "v" * rng.randint(1, 4)) for i in range(n)]
    corpus = write_toy_corpus(str(tmp_path))
    for side, lines in (("src", src), ("tgt", tgt)):
        Path(corpus["train_" + side]).write_text("".join(line + "\n" for line in lines),
                                                  encoding="utf-8")
    bins = sorted(rng.sample(range(1, 50), rng.randint(1, 6)))
    granularity = rng.randint(1, 3)
    size = rng.randint(n // 2, n)
    config = write_config(str(tmp_path), corpus, sizes=[size], repetitions=2, nmo_set=[10],
                          bins=bins, granularity=granularity, backend=IDENTITY_BACKEND)
    assert run(capsys, "sweep", "--config", config)[0] == 0
    for rep in range(2):
        sample_dir = tmp_path / "out" / ("size%d" % size) / ("rep%d" % rep) / "sample"
        prefix = str(tmp_path / ("cli%d" % rep))
        assert run(capsys, "sample", "--src", corpus["train_src"], "--tgt", corpus["train_tgt"],
                   "--size", str(size), "--seed", str(7 + rep), "--bins",
                   ",".join(map(str, bins)), "--granularity", str(granularity),
                   "--out-prefix", prefix)[0] == 0
        assert (Path(prefix + ".manifest.json").read_bytes()
                == (sample_dir / "manifest.json").read_bytes())
        per_bin_quota = sampler.quotas(sampler.bin_histogram(src, tgt, bins).counts, size,
                                       granularity)
        for side, lines in zip(("src", "tgt"), oracle_draw(src, tgt, bins, per_bin_quota,
                                                           7 + rep)):
            expected = "".join(line + "\n" for line in lines).encode("utf-8")
            assert Path(prefix + "." + side).read_bytes() == expected
            assert (sample_dir / ("train." + side)).read_bytes() == expected


def test_sample_memory_does_not_grow_with_pool_lines(tmp_path, capsys):
    # 200 pairs from a pool of 2,000 and then 20,000 lines: the sampler
    # holds one index per pool line and the sample, not the pool's lines.
    rng = random.Random(11)
    words = ["".join(rng.choices("abcdefghij", k=rng.randint(2, 7))) for _ in range(300)]
    peaks = []
    for n in (2000, 20000):
        paths = [str(tmp_path / ("pool%d.%s" % (n, side))) for side in ("src", "tgt")]
        for path in paths:
            with open(path, "w", encoding="utf-8") as fh:
                for _ in range(n):
                    fh.write(" ".join(rng.choices(words, k=rng.randint(1, 45))) + "\n")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main(["sample", "--src", paths[0], "--tgt", paths[1], "--size", "200",
                         "--seed", "1", "--granularity", "1",
                         "--out-prefix", str(tmp_path / ("s%d" % n))])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
    assert peaks[1] - peaks[0] <= 64 * 18000, peaks


def test_significance_refuses_a_negative_seed(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("the cat sat\non the mat\n", encoding="utf-8")
    code, out, err = run(capsys, "significance", "--hyp-a", str(ref), "--hyp-b", str(ref),
                         "--ref", str(ref), "--iterations", "10", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "seed" in err and "-1" in err


def test_sweep_and_report_run_dir_write_the_same_files(tmp_path, capsys):
    # Two test sets whose config order ("test", "dev") is not their name order.
    corpus = write_toy_corpus(str(tmp_path))
    extra = [{"name": "dev", "src": corpus["test_src"], "tgt": corpus["test_tgt"]}]
    config = write_config(str(tmp_path), corpus, extra_test_sets=extra,
                          backend={"command": IDENTITY_BACKEND})
    out_dir = tmp_path / "out"

    def files():
        return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}

    assert run(capsys, "sweep", "--config", config)[0] == 0
    swept = files()
    assert Path("results.tsv") in swept and Path("tiers", "en-xx_size50_rep0_dev.tsv") in swept
    assert run(capsys, "report", "--run-dir", str(out_dir))[0] == 0
    assert files() == swept


def test_report_requires_run_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2 and "--run-dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_baselines_are_the_records_baselines(tmp_path, capsys):
    # 2 repetitions x 2 test sets; 10_10 is the best symmetric system on
    # "test" and 20_20 on "dev". Each set's lines lose a planted number of
    # leading words per configuration.
    corpus = write_toy_corpus(str(tmp_path))
    script = tmp_path / "planted.py"
    script.write_text(
        "import sys\n"
        "config, out_path, *ref_paths = sys.argv[1:]\n"
        "rates = {'10_10': (1, 2), '20_20': (2, 1)}.get(config, (3, 3))\n"
        "with open(out_path, 'w') as out:\n"
        "    for rate, path in zip(rates, ref_paths):\n"
        "        for line in open(path):\n"
        "            toks = line.split()\n"
        "            out.write(' '.join('junk' if i < rate else t\n"
        "                               for i, t in enumerate(toks)) + '\\n')\n")
    extra = [{"name": "dev", "src": corpus["valid_src"], "tgt": corpus["valid_tgt"]}]
    command = "python3 %s {config} {hyp_out} %s %s" % (script, corpus["test_tgt"],
                                                    corpus["valid_tgt"])
    config = write_config(str(tmp_path), corpus, repetitions=2, extra_test_sets=extra,
                          backend={"command": command})
    assert run(capsys, "sweep", "--config", config)[0] == 0
    out_dir = tmp_path / "out"
    for path in (out_dir / "tiers").iterdir():
        path.unlink()

    assert run(capsys, "report", "--run-dir", str(out_dir))[0] == 0
    baselines = {}
    for r in orchestrator.collect_records(str(out_dir)):
        assert r.status == "done"
        baselines.setdefault("%s_size%d_rep%d_%s" % (r.direction, r.size, r.rep, r.testset),
                             set()).add(r.baseline)
    assert sorted(p.name for p in (out_dir / "tiers").iterdir()) == sorted(
        stem + ext for stem in baselines for ext in (".tsv", ".txt"))
    assert len(baselines) == 4
    for stem, labels in baselines.items():
        tsv = (out_dir / "tiers" / (stem + ".tsv")).read_text(encoding="utf-8")
        row = [l.split("\t") for l in tsv.split("\n") if l.startswith("Baseline\t")][0]
        assert {"%s_%s" % (row[1], row[2])} == labels
        assert labels == {"10_10" if stem.endswith("_test") else "20_20"}


def test_report_refuses_two_records_of_one_run(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = write_config(str(tmp_path), corpus)
    assert run(capsys, "sweep", "--config", config)[0] == 0
    out_dir = tmp_path / "out"
    before = {p: p.read_bytes() for p in out_dir.glob("*.tsv")}
    shutil.copytree(out_dir / "size50", out_dir / "copy" / "size50")

    code, out, err = run(capsys, "report", "--run-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("error: two records for one run: direction en-xx, size 50, "
                          "rep 0, test set test, configuration ")
    assert {p: p.read_bytes() for p in out_dir.glob("*.tsv")} == before


def test_report_restores_blanked_scores_and_p_values(tmp_path, capsys):
    # A sweep killed after its last backend, before any run was evaluated.
    corpus = write_toy_corpus(str(tmp_path))
    extra = [{"name": "dev", "src": corpus["valid_src"], "tgt": corpus["valid_tgt"]}]
    rates = {"10_10": 2, "20_20": 1, "10_20": 3, "20_10": 0}
    command = planted_backend(tmp_path, corpus, rates, [corpus["test_tgt"], corpus["valid_tgt"]])
    config = write_config(str(tmp_path), corpus, extra_test_sets=extra,
                          backend={"command": command})
    out_dir = tmp_path / "out"

    def files():
        return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}

    assert run(capsys, "sweep", "--config", config)[0] == 0
    swept = files()
    records = sorted(out_dir.rglob("record.json"))
    assert len(records) == 8
    assert any(json.loads(p.read_text(encoding="utf-8"))["p_vs_baseline"] < 1 for p in records)
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        record.update(chrf=None, p_vs_baseline=None, baseline=None)
        path.write_text(json.dumps(record), encoding="utf-8")
    assert run(capsys, "report", "--run-dir", str(out_dir))[0] == 0
    assert files() == swept


def test_report_refuses_a_path_that_is_not_a_sweep_directory(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    assert run(capsys, "sweep", "--config", write_config(str(tmp_path), corpus))[0] == 0
    (tmp_path / "empty").mkdir()
    for path in (tmp_path / "missing", tmp_path / "out" / "results.tsv", tmp_path / "empty"):
        code, out, err = run(capsys, "report", "--run-dir", str(path))
        assert (code, out) == (1, "")
        assert err == "error: not a sweep output directory (no manifest.json): %s\n" % path


@pytest.mark.parametrize("command", [["chrf", "--hyp", "{bad}", "--ref", "{good}"],
                                     ["learn-bpe", "--input", "{bad}", "--nmo", "5",
                                      "--output", "{out}"],
                                     ["apply-bpe", "--table", "{table}", "--input", "{bad}"],
                                     ["apply-bpe", "--table", "{bad_table}", "--input",
                                      "{good}"]],
                         ids=["chrf", "learn-bpe", "apply-bpe", "apply-bpe-table"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    paths = {"bad": tmp_path / "bad.txt", "good": tmp_path / "good.txt",
             "out": tmp_path / "out.bpe", "table": tmp_path / "t.bpe",
             "bad_table": tmp_path / "bad.bpe"}
    paths["bad"].write_bytes(b"the cat\nsat \xff\n")
    paths["good"].write_text("the cat\nsat on\n", encoding="utf-8")
    learn_bpe(["the cat"], 2).save(str(paths["table"]))
    paths["bad_table"].write_bytes(b"#asym-bpe v1\nt h\xff\n")
    bad = paths["bad_table" if "{bad_table}" in command else "bad"]
    code, out, err = run(capsys, *[arg.format(**paths) for arg in command])
    assert (code, out) == (1, "")
    assert err.startswith("error: %s is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
                          % bad)
    assert not paths["out"].exists()


@pytest.mark.parametrize("text, problem", [
    ("[1]", "is not a sweep manifest: it needs a JSON object"),
    ('{"test_sets": []}', "is not a sweep manifest: it needs a JSON object"),
    ('{"significance_iterations": 10, "test_sets": [1]}', "is not a sweep manifest"),
    ("{", ": Expecting property name enclosed in double quotes"),
], ids=["list", "no-iterations", "test-set-not-an-object", "not-json"])
def test_report_refuses_a_malformed_manifest_naming_it(tmp_path, capsys, text, problem):
    (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "report", "--run-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s" % (tmp_path / "manifest.json")) and problem in err


def test_sweep_refuses_a_truncated_config_naming_it(tmp_path, capsys):
    corpus = write_toy_corpus(str(tmp_path))
    config = Path(write_config(str(tmp_path), corpus))
    text = config.read_text(encoding="utf-8")
    config.write_text(text[:text.index(":") + 1], encoding="utf-8")  # '{"schema":'
    code, out, err = run(capsys, "sweep", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: Expecting value" % config)
    assert not (tmp_path / "out").exists()


def test_a_lone_carriage_return_does_not_end_a_line(tmp_path, capsys):
    # Two-line files whose lines hold a '\r': each side stays two lines, so
    # every sampled pair is a pair of the corpus.
    src, tgt = tmp_path / "all.src", tmp_path / "all.tgt"
    src.write_bytes(b"a b\rc d\ne f\n")
    tgt.write_bytes(b"x y\nz\rw v\n")
    prefix = str(tmp_path / "s2")
    assert run(capsys, "sample", "--src", str(src), "--tgt", str(tgt), "--size", "2",
               "--seed", "1", "--granularity", "1", "--out-prefix", prefix)[0] == 0
    sampled = [Path(prefix + side).read_bytes().split(b"\n") for side in (".src", ".tgt")]
    assert sorted(zip(*sampled)) == [(b"", b""), (b"a b\rc d", b"x y"), (b"e f", b"z\rw v")]


def test_a_crlf_file_reads_as_its_lf_twin(tmp_path, capsys):
    lines = ["the cat sat", "", "the \rcat ran", "दे खो"]
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    assert read_lines(crlf) == read_lines(lf) == lines
    for path in (lf, crlf):
        assert run(capsys, "unbpe", "--input", str(path), "--output", str(path) + ".out")[0] == 0
    assert (tmp_path / "crlf.txt.out").read_bytes() == (tmp_path / "lf.txt.out").read_bytes()


def test_unbpe_reads_a_carriage_return_on_stdin_as_text(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a\rb\n")))
    code, out, _ = run(capsys, "unbpe")
    assert (code, out.count("\n")) == (0, 1)


def test_sample_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random(-3) would draw the sample of seed 3.
    src = tmp_path / "all.src"
    src.write_text("".join("w%d x\n" % i for i in range(30)), encoding="utf-8")
    code, out, err = run(capsys, "sample", "--src", str(src), "--tgt", str(src), "--size", "10",
                         "--seed", "-3", "--out-prefix", str(tmp_path / "s10"))
    assert (code, out) == (1, "")
    assert err.startswith("error: seed must be >= 0, got -3")
    assert [p.name for p in tmp_path.iterdir()] == ["all.src"]


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_fresh_interpreter(script, cwd):
    """Run ``script`` in a new Python process that imports the package from
    this checkout, and return its stdout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_scoring_commands_import_numpy(tmp_path):
    # numpy is imported by the chrf functions that compute with it, so the
    # segmentation, sampling and recommendation commands never load it.
    (tmp_path / "corpus.txt").write_text(
        "".join("the cat sat on mat %d\n" % (i % 7) for i in range(60)), encoding="utf-8")
    out = run_fresh_interpreter("""
        import sys
        import asymbpe, asymbpe.cli, asymbpe.orchestrator

        def run(*argv):
            assert asymbpe.cli.main(list(argv)) == 0, argv

        run("learn-bpe", "--input", "corpus.txt", "--nmo", "20", "--output", "t.bpe")
        run("apply-bpe", "--table", "t.bpe", "--input", "corpus.txt", "--output", "seg.txt")
        run("unbpe", "--input", "seg.txt", "--output", "out.txt")
        run("sample", "--src", "corpus.txt", "--tgt", "corpus.txt", "--size", "20",
            "--seed", "1", "--out-prefix", "s20")
        run("recommend", "--size", "100000")
        assert "numpy" not in sys.modules, "numpy loaded before any scoring"
        run("chrf", "--hyp", "out.txt", "--ref", "corpus.txt")
        assert "numpy" in sys.modules
        """, tmp_path)
    assert out.endswith("100.00\n")
    assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "corpus.txt").read_bytes()


def test_one_shot_commands_never_import_the_orchestrator(tmp_path):
    # Only sweep and report import orchestrator (and with it
    # concurrent.futures), and parse_nmo imports fractions and decimal only
    # for K-notation, so a one-shot command with a plain --nmo loads none.
    (tmp_path / "corpus.txt").write_text(
        "".join("the cat sat on mat %d\n" % (i % 7) for i in range(60)), encoding="utf-8")
    (tmp_path / "plain").mkdir()
    out = run_fresh_interpreter("""
        import contextlib, io, sys
        import asymbpe.cli

        def run(*argv):
            assert asymbpe.cli.main(list(argv)) == 0, argv

        run("learn-bpe", "--input", "corpus.txt", "--nmo", "20", "--output", "t.bpe")
        run("apply-bpe", "--table", "t.bpe", "--input", "corpus.txt", "--output", "seg.txt")
        run("unbpe", "--input", "seg.txt", "--output", "out.txt")
        run("sample", "--src", "corpus.txt", "--tgt", "corpus.txt", "--size", "20",
            "--seed", "1", "--out-prefix", "s20")
        run("recommend", "--size", "100000")
        run("chrf", "--hyp", "out.txt", "--ref", "corpus.txt")
        run("significance", "--hyp-a", "out.txt", "--hyp-b", "seg.txt", "--ref", "corpus.txt",
            "--iterations", "50")
        loaded = [m for m in ("asymbpe.orchestrator", "concurrent.futures", "fractions",
                              "decimal") if m in sys.modules]
        assert not loaded, loaded

        run("learn-bpe", "--input", "corpus.txt", "--nmo", "0.02K", "--output", "k.bpe")
        assert open("k.bpe", "rb").read() == open("t.bpe", "rb").read()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                asymbpe.cli.main(["learn-bpe", "--input", "corpus.txt", "--nmo", "0.0025K",
                                  "--output", "f.bpe"])
            except SystemExit as exc:
                assert exc.code == 2
            else:
                raise AssertionError("0.0025K accepted")
            assert asymbpe.cli.main(["report", "--run-dir", "plain"]) == 1
        print(err.getvalue())
        """, tmp_path)
    assert "'0.0025K' is 2.5 merges" in out
    assert "error: not a sweep output directory (no manifest.json): plain\n" in out
    assert not (tmp_path / "f.bpe").exists()


def test_package_exports_score_in_a_fresh_interpreter(tmp_path):
    hyps = ["the cat sat", "a dog ran", "birds fly south"]
    refs = ["the cat sat down", "a dog ran", "the birds fly north"]
    out = run_fresh_interpreter("""
        from asymbpe import corpus_chrf, paired_significance
        from asymbpe.chrf import stats_matrix
        hyps = %r
        refs = %r
        print(repr(corpus_chrf(stats_matrix(hyps, refs))))
        print(repr(paired_significance(hyps, refs, refs, iterations=200, seed=3).p_value))
        """ % (hyps, refs), tmp_path)
    expected = (corpus_chrf(stats_matrix(hyps, refs)),
                paired_significance(hyps, refs, refs, iterations=200, seed=3).p_value)
    assert out.split() == [repr(v) for v in expected]
