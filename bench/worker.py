"""One repetition of a benchmark workload, in a fresh process.

Usage: worker.py SPEC_JSON RESULT_JSON TRACE(0|1) RUN_ID [SPANS_JSONL]

run.py starts one of these per repetition, so every repetition pays the
program's set-up and its peak RSS is its own. With ``setup_only`` in the
spec, the worker measures the set-up and stops. The spec names the program's
source directory, the workload kind and its inputs; the result holds the
timings, the output checks and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import checks
import tracer as tracing


def install_tracer(tr, bpe, chrf, sampler, orchestrator):
    """Wrap the public functions of each layer. Private ``_names`` are never
    wrapped, so a later refactor that removes them cannot break tracing."""
    tr.wrap(bpe, "learn_bpe", "bpe.learn",
            lambda a, k, table: tr.add("bpe.learn.merges", len(table.rules)))
    tr.wrap(bpe, "segment_line", "bpe.segment", lambda a, k, text: (
        tr.see("bpe.segment", hash((id(a[0]), a[1]))),
        tr.add("bpe.segment.tokens", len(text.split()))))
    tr.wrap(bpe, "unsegment", "bpe.unsegment")
    tr.wrap(bpe.MergeTable, "load", "bpe.table_load")
    tr.wrap(chrf, "sentence_stats", "chrf.sentence_stats",
            lambda a, k, _: tr.see("chrf.sentence_stats", hash((a[0], a[1]))))
    tr.wrap(chrf, "corpus_chrf", "chrf.corpus")
    tr.wrap(chrf, "corpus_chrf_from_lines", "chrf.corpus")
    tr.wrap(chrf, "paired_significance", "chrf.significance",
            lambda a, k, result: tr.add("chrf.significance.iterations", result.iterations))
    tr.wrap(sampler, "bin_histogram", "sampler.histogram")
    tr.wrap(sampler, "draw_sample", "sampler.draw")
    # The orchestrator calls tier_report through its own imported name.
    tr.wrap(orchestrator, "tier_report", "sweep.tier_report")
    tr.wrap(orchestrator, "run_sweep", "orchestrator.run_sweep")
    tr.wrap(orchestrator, "emit_report", "orchestrator.report")
    tr.wrap(subprocess, "run", "orchestrator.backend")


def layer_metrics(tr, needed_merges, phases) -> dict:
    """Per-layer metrics from the spans and counters of one repetition."""
    spans = tr.spans
    own = tracing.self_times(spans)
    calls, total, self_s = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
    c = tr.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct_ratio(counter):
        return ratio(len(tr.distinct[counter]), c[counter])

    merges = c["bpe.learn.merges"]
    out = {
        "bpe.learn.calls": calls.get("bpe.learn", 0),
        "bpe.learn.merges": merges,
        "bpe.learn.needed_ratio": ratio(needed_merges, merges),
        "bpe.learn.s": total.get("bpe.learn", 0.0),
        "bpe.segment.lines": calls.get("bpe.segment", 0),
        "bpe.segment.tokens": c["bpe.segment.tokens"],
        "bpe.segment.distinct_ratio": distinct_ratio("bpe.segment"),
        "bpe.segment.s": total.get("bpe.segment", 0.0),
        "bpe.segment.tokens_per_s": ratio(c["bpe.segment.tokens"], total.get("bpe.segment", 0.0)),
        "bpe.unsegment.lines": calls.get("bpe.unsegment", 0),
        "bpe.unsegment.s": total.get("bpe.unsegment", 0.0),
        "bpe.table_load.calls": calls.get("bpe.table_load", 0),
        "bpe.table_load.s": total.get("bpe.table_load", 0.0),
        "chrf.sentence_stats.calls": calls.get("chrf.sentence_stats", 0),
        "chrf.sentence_stats.distinct_ratio": distinct_ratio("chrf.sentence_stats"),
        "chrf.sentence_stats.s": total.get("chrf.sentence_stats", 0.0),
        "chrf.corpus.s": self_s.get("chrf.corpus", 0.0),
        "chrf.significance.calls": calls.get("chrf.significance", 0),
        "chrf.significance.iterations": c["chrf.significance.iterations"],
        "chrf.significance.s": self_s.get("chrf.significance", 0.0),
        "sampler.histogram.s": total.get("sampler.histogram", 0.0),
        "sampler.draw.calls": calls.get("sampler.draw", 0),
        "sampler.draw.s": total.get("sampler.draw", 0.0),
        "sweep.tier_report.calls": calls.get("sweep.tier_report", 0),
        "sweep.tier_report.s": total.get("sweep.tier_report", 0.0),
        "orchestrator.report.s": total.get("orchestrator.report", 0.0),
        "orchestrator.backend.calls": calls.get("orchestrator.backend", 0),
        "orchestrator.backend.s": total.get("orchestrator.backend", 0.0),
        "orchestrator.self_s": sum(tracing.uncovered_time(s, spans) for s in spans
                                   if s.name == "orchestrator.run_sweep"),
    }
    out.update(phases)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sweep(spec):
    """The program's set-up before a sweep's first unit of work."""
    t0 = time.perf_counter()
    import asymbpe  # noqa: F401
    from asymbpe import orchestrator
    cfg = orchestrator.load_experiment(spec["config"])
    return time.perf_counter() - t0, orchestrator, cfg


def setup_toolchain(spec):
    """The program's set-up before the first CLI command."""
    t0 = time.perf_counter()
    import asymbpe  # noqa: F401
    from asymbpe import cli
    cli.build_parser()
    return time.perf_counter() - t0, cli


def run_sweep_workload(spec, tr):
    """``asymbpe sweep`` on a fresh output directory, then the same command
    again over the completed directory (the resume path)."""
    setup_s, orchestrator, cfg = setup_sweep(spec)
    if tr is not None:
        from asymbpe import bpe, chrf, sampler
        install_tracer(tr, bpe, chrf, sampler, orchestrator)

    t0 = time.perf_counter()
    records = orchestrator.run_sweep(cfg)
    orchestrator.emit_report(records, cfg.output_dir)
    wall_s = time.perf_counter() - t0

    problems = []
    digest = checks.sweep_digest(cfg.output_dir)
    with open(os.path.join(cfg.output_dir, "results.tsv"), "rb") as fh:
        results_tsv = fh.read()
    scores = checks.record_scores(checks.load_records(cfg.output_dir))

    t0 = time.perf_counter()
    resumed = orchestrator.run_sweep(cfg)
    orchestrator.emit_report(resumed, cfg.output_dir)
    resume_s = time.perf_counter() - t0

    with open(os.path.join(cfg.output_dir, "results.tsv"), "rb") as fh:
        if fh.read() != results_tsv:
            problems.append("resume changed results.tsv")
    on_disk = checks.load_records(cfg.output_dir)
    if checks.record_scores(on_disk) != scores:
        problems.append("resume changed persisted record scores")
    if len(records) != cfg.planned_runs() or len(on_disk) != cfg.planned_runs():
        problems.append("expected %d runs, got %d records (%d on disk)"
                        % (cfg.planned_runs(), len(records), len(on_disk)))
    problems += checks.prefix_violations(cfg.output_dir)
    problems += checks.cell_violations(on_disk)

    failed = sum(1 for r in records if r.status == "failed")
    cells = len(cfg.sizes) * cfg.repetitions
    return {
        "setup_s": setup_s, "wall_s": wall_s, "resume_s": resume_s,
        "attempted": len(records), "failed": failed,
        "disk_bytes": checks.disk_bytes(cfg.output_dir),
        "digest": digest, "problems": problems,
        "needed_merges": 2 * max(cfg.nmo_set) * cells,
        "phases": {"orchestrator.resume_s": resume_s,
                   "orchestrator.runs.done": len(records) - failed,
                   "orchestrator.runs.failed": failed},
    }


def run_toolchain_workload(spec, tr):
    """The one-shot CLI chain, every step through ``cli.main(argv)``."""
    setup_s, cli = setup_toolchain(spec)
    if tr is not None:
        from asymbpe import bpe, chrf, orchestrator, sampler
        install_tracer(tr, bpe, chrf, sampler, orchestrator)

    d, out = spec["data"], spec["out_dir"]
    os.makedirs(out, exist_ok=True)
    sample = os.path.join(out, "sample")
    table = os.path.join(out, "hi.bpe")
    seg = os.path.join(out, "eval.bpe.hi")
    unseg = os.path.join(out, "eval.unbpe.hi")
    steps = [
        ["sample", "--src", d["pool.en"], "--tgt", d["pool.hi"], "--size", str(spec["size"]),
         "--seed", str(spec["seed"]), "--out-prefix", sample],
        ["learn-bpe", "--input", sample + ".tgt", "--nmo", str(spec["nmo"]), "--output", table],
        ["apply-bpe", "--table", table, "--input", d["eval.hi"], "--output", seg],
        ["unbpe", "--input", seg, "--output", unseg],
        ["chrf", "--hyp", d["system_a"], "--ref", d["eval.hi"]],
        ["significance", "--hyp-a", d["system_a"], "--hyp-b", d["system_b"],
         "--ref", d["eval.hi"], "--iterations", str(spec["iterations"]), "--seed", "1"],
    ]
    failed, stdout, step_s = 0, {}, {}
    t0 = time.perf_counter()
    for argv in steps:
        buf = io.StringIO()
        s0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tr is not None:
                with tr.span("cli." + argv[0]):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        step_s["cli.%s.s" % argv[0]] = time.perf_counter() - s0
        failed += code != 0
        stdout[argv[0]] = buf.getvalue()
    wall_s = time.perf_counter() - t0

    problems = []
    with open(d["eval.hi"], encoding="utf-8") as a, open(unseg, encoding="utf-8") as b:
        if a.read() != b.read():
            problems.append("apply-bpe -> unbpe does not reproduce the input")
    try:
        score = float(stdout["chrf"])
        if not 0.0 < score < 100.0:
            problems.append("chrf score %r out of range" % score)
    except ValueError:
        problems.append("chrf printed %r" % stdout["chrf"])
    if "p-value:" not in stdout["significance"]:
        problems.append("significance printed no p-value")
    with open(os.path.join(out, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout["chrf"] + stdout["significance"])
    digest = checks.files_digest(out, [sample + ".src", sample + ".tgt", table, seg,
                                       os.path.join(out, "stdout.txt")])
    return {
        "setup_s": setup_s, "wall_s": wall_s, "resume_s": None,
        "attempted": len(steps), "failed": failed,
        "disk_bytes": checks.disk_bytes(out),
        "digest": digest, "problems": problems,
        "needed_merges": spec["nmo"],
        "phases": step_s,
    }


def main(argv):
    spec_path, result_path, trace, run_id = argv[:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src_dir"])
    sweep = spec["kind"] == "sweep"
    if spec.get("setup_only"):
        result = {"setup_s": (setup_sweep if sweep else setup_toolchain)(spec)[0]}
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    tr = tracing.Tracer(run_id) if trace == "1" else None
    result = (run_sweep_workload if sweep else run_toolchain_workload)(spec, tr)
    result["peak_rss_mb"] = peak_rss_mb()
    if tr is not None:
        tr.unwrap_all()
        result["layers"] = layer_metrics(tr, result["needed_merges"], result["phases"])
        if len(argv) > 4:
            tr.write(argv[4])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
