"""Command-line interface: one entry point, one subcommand per task."""

import argparse
import json
import sys
from contextlib import nullcontext

from . import __version__, bpe, chrf, orchestrator, sampler
from .orchestrator import read_lines, write_lines
from .sweep import (BpeConfig, SystemResult, parse_nmo, recommend, render_tier_text,
                    render_tier_tsv, tier_report)


def _map_lines(input_path, output_path, fn):
    """Write each line of fn(lines), for the lines of a file or stdin, to a
    file or stdout. The input is read in full before the output is opened,
    so the two may name the same file."""
    with open(input_path, encoding="utf-8") if input_path else nullcontext(sys.stdin) as src:
        lines = fn([line.rstrip("\n") for line in src])
    with (open(output_path, "w", encoding="utf-8") if output_path
          else nullcontext(sys.stdout)) as dst:
        for line in lines:
            dst.write(line + "\n")


def cmd_learn_bpe(args):
    table = bpe.learn_bpe(read_lines(args.input), args.nmo)
    table.save(args.output)
    print("learned %d merge rules -> %s" % (table.nmo, args.output), file=sys.stderr)


def cmd_apply_bpe(args):
    table = bpe.MergeTable.load(args.table)
    _map_lines(args.input, args.output,
               lambda lines: bpe.segment_lines(table, lines, [table.nmo])[table.nmo])


def cmd_unbpe(args):
    _map_lines(args.input, args.output, lambda lines: [bpe.unsegment(line) for line in lines])


def cmd_sample(args):
    src_lines = read_lines(args.src)
    tgt_lines = read_lines(args.tgt)
    try:
        bins = sampler.make_bins([int(b) if b.isdecimal() else b for b in args.bins.split(",")])
    except sampler.SamplerError as exc:
        raise sampler.SamplerError("--bins: %s" % exc) from None
    histogram = sampler.bin_histogram(src_lines, tgt_lines, bins)
    plan = sampler.make_sample_plan(histogram, args.size, args.seed, args.granularity)
    sample_src, sample_tgt, indices = sampler.draw_sample(src_lines, tgt_lines, plan)

    prefix = args.out_prefix
    write_lines(prefix + ".src", sample_src)
    write_lines(prefix + ".tgt", sample_tgt)
    with open(prefix + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"bin_plan": histogram.to_dict(), "sample_plan": plan.to_dict(),
                   "seed": args.seed, "sampled_pairs": len(indices)}, fh, indent=2)
    print("sampled %d pairs -> %s.{src,tgt}" % (len(indices), prefix), file=sys.stderr)


def cmd_chrf(args):
    score = chrf.corpus_chrf_from_lines(read_lines(args.hyp), read_lines(args.ref),
                                        beta=args.beta,
                                        char_order=args.char_order,
                                        word_order=args.word_order)
    print("%.2f" % score.value)


def cmd_significance(args):
    result = chrf.paired_significance(read_lines(args.hyp_a), read_lines(args.hyp_b),
                                      read_lines(args.ref), iterations=args.iterations,
                                      seed=args.seed)
    print("method: %s" % chrf.SIGNIFICANCE_METHOD)
    print("p-value: %.6f" % result.p_value)
    print("better system: %s" % result.better_system)


def cmd_recommend(args):
    rec = recommend(args.size)
    print("resource band: %s" % rec.resource_band)
    print("source NMO range: %d-%d" % rec.src_range)
    print("target NMO range: %d-%d" % rec.tgt_range)
    print("rationale: %s" % rec.rationale)


def _read_results_tsv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            if line.strip():
                rows.append(dict(zip(header, line.rstrip("\n").split("\t"))))
    return rows


def cmd_report(args):
    if args.run_dir:
        records = orchestrator.collect_records(args.run_dir)
        artifacts = orchestrator.emit_report(records, args.run_dir)
        print("results: %s" % artifacts["results"])
        for path in artifacts["tiers"]:
            print("tier report: %s" % path)
        print("source-NMO max trace: %s" % artifacts["max_trace"])
        print("summary: %s" % artifacts["summary"])
        return

    rows = _read_results_tsv(args.results)
    if args.direction:
        rows = [r for r in rows if r["direction"] == args.direction]
    if args.size is not None:
        rows = [r for r in rows if int(r["size"]) == args.size]
    if args.testset:
        rows = [r for r in rows if r.get("testset", "") == args.testset]
    rows = [r for r in rows if r.get("status", "done") == "done" and r.get("chrf")]
    results = [SystemResult(BpeConfig(int(r["src_nmo"]), int(r["tgt_nmo"])),
                            float(r["chrf"]),
                            p_vs_baseline=float(r["p_vs_baseline"])
                            if r.get("p_vs_baseline") else None)
               for r in rows]
    report = tier_report(results)
    sys.stdout.write(render_tier_text(report))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(render_tier_tsv(report))


def cmd_sweep(args):
    cfg = orchestrator.load_experiment(args.config)
    if args.workers is not None:
        if args.workers < 1:
            raise orchestrator.OrchestratorError("--workers must be >= 1, got %d"
                                                 % args.workers)
        cfg.workers = args.workers
    records = orchestrator.run_sweep(cfg)
    done = sum(1 for r in records if r.status == "done")
    failed = sum(1 for r in records if r.status == "failed")
    artifacts = orchestrator.emit_report(records, cfg.output_dir)
    print("completed %d runs (%d failed); results at %s"
          % (done, failed, artifacts["results"]))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="asymbpe",
        description="Asymmetric BPE segmentation toolkit: merge-table learning, "
                    "stratified corpus sampling, CHRF++ scoring, and "
                    "configuration-sweep orchestration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-bpe", help="learn a merge table from a tokenized corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--nmo", type=parse_nmo, required=True,
                   help="number of merge operations, plain or K-notation (0.5K)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_learn_bpe)

    p = sub.add_parser("apply-bpe", help="segment text with a merge table")
    p.add_argument("--table", required=True)
    p.add_argument("--input", default=None, help="default: stdin")
    p.add_argument("--output", default=None, help="default: stdout")
    p.set_defaults(func=cmd_apply_bpe)

    p = sub.add_parser("unbpe", help="reverse '@@ ' segmentation")
    p.add_argument("--input", default=None, help="default: stdin")
    p.add_argument("--output", default=None, help="default: stdout")
    p.set_defaults(func=cmd_unbpe)

    p = sub.add_parser("sample", help="stratified sample of a parallel corpus")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bins", default="10,15,20,25,30,35,40",
                   help="comma-separated upper bin boundaries")
    p.add_argument("--granularity", type=int, default=10)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("chrf", help="corpus-level CHRF++ score")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--char-order", type=int, default=chrf.CHAR_ORDER)
    p.add_argument("--word-order", type=int, default=chrf.WORD_ORDER)
    p.add_argument("--beta", type=float, default=chrf.DEFAULT_BETA)
    p.set_defaults(func=cmd_chrf)

    p = sub.add_parser("significance", help="paired significance test of two systems")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("report", help="tier report from results TSV or a sweep directory")
    p.add_argument("--results", help="results.tsv path")
    p.add_argument("--run-dir", help="sweep output directory")
    p.add_argument("--direction")
    p.add_argument("--size", type=int)
    p.add_argument("--testset")
    p.add_argument("--tsv", help="also write the tier report as TSV here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("recommend", help="configuration ranges for a dataset size")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("sweep", help="run a full experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        if not (args.results or args.run_dir):
            parser.error("report requires --results or --run-dir")
        given = [flag for flag in ("results", "direction", "size", "testset", "tsv")
                 if getattr(args, flag) is not None]
        if args.run_dir and given:
            parser.error("--run-dir reports the whole directory and takes none of "
                         + ", ".join("--" + flag for flag in given))
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
