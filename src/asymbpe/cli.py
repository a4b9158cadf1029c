"""Command-line interface: one entry point, one subcommand per task.
``sweep`` and ``report`` score a sweep directory through one function,
``orchestrator.evaluate``, and report it through ``emit_report``. They are
the only commands that import ``orchestrator``, and they import it when
they run, so the one-shot commands (``learn-bpe``, ``apply-bpe``, ``unbpe``,
``sample``, ``chrf``, ``significance``, ``recommend``) never load it. Every
file, stdin included, is read and written through ``textfiles``."""

import argparse
import sys

from . import __version__, bpe, chrf, sampler
from .sweep import SweepError, parse_nmo, recommend
from .textfiles import iter_lines, iter_stdin_lines, read_lines, write_lines


def _map_lines(input_path, output_path, fn):
    """Write each line of fn(lines), for the lines of a file (``iter_lines``)
    or stdin (``iter_stdin_lines``), to a file or stdout, one line at a
    time. A file is written to a temporary file beside it and renamed into
    place when complete (``write_lines``), so the output may name the input
    file, and a failure leaves it as it was."""
    lines = fn(iter_lines(input_path) if input_path else iter_stdin_lines())
    if output_path:
        write_lines(output_path, lines)
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _nmo_arg(text):
    """``parse_nmo`` for argparse, which prints the message of an
    ArgumentTypeError but not of a ValueError."""
    try:
        return parse_nmo(text)
    except SweepError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_learn_bpe(args):
    table = bpe.learn_bpe(iter_lines(args.input), args.nmo)
    table.save(args.output)
    print("learned %d merge rules -> %s" % (table.nmo, args.output), file=sys.stderr)


def cmd_apply_bpe(args):
    table = bpe.MergeTable.load(args.table)
    _map_lines(args.input, args.output,
               lambda lines: (text for text, in bpe.segment_lines(table, lines, [table.nmo])))


def cmd_unbpe(args):
    _map_lines(args.input, args.output, lambda lines: (bpe.unsegment(line) for line in lines))


def cmd_sample(args):
    histogram = sampler.bin_files(args.src, args.tgt)
    prefix = args.out_prefix
    n = sampler.write_sample(histogram, args.size, args.seed, (args.src, args.tgt),
                             (prefix + ".src", prefix + ".tgt"), prefix + ".manifest.json")
    print("sampled %d pairs -> %s.{src,tgt}" % (n, prefix), file=sys.stderr)


def cmd_chrf(args):
    score = chrf.corpus_chrf_from_lines(iter_lines(args.hyp), iter_lines(args.ref))
    print("%.2f" % score)


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


def cmd_report(args):
    """Complete a sweep directory's scores and p-values, then rebuild every
    report: the same files, byte for byte, that ``asymbpe sweep`` wrote."""
    from . import orchestrator
    records = orchestrator.evaluate(args.run_dir, orchestrator.collect_records(args.run_dir))
    artifacts = orchestrator.emit_report(records, args.run_dir)
    print("results: %s" % artifacts["results"])
    for path in artifacts["tiers"]:
        print("tier report: %s" % path)
    print("source-NMO max trace: %s" % artifacts["max_trace"])
    print("summary: %s" % artifacts["summary"])


def cmd_sweep(args):
    from . import orchestrator
    cfg = orchestrator.load_experiment(args.config)
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
    p.add_argument("--nmo", type=_nmo_arg, required=True,
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

    p = sub.add_parser("sample", help="stratified sample of a parallel corpus (source-length "
                                      "bins 0-10, 11-15, ..., >=41; quotas floored to tens)")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("chrf", help="corpus-level CHRF++ (char orders 1-6, word 1-2, beta 2)")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_chrf)

    p = sub.add_parser("significance", help="paired significance test of two systems")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("report", help="rebuild the reports of a sweep output directory")
    p.add_argument("--run-dir", required=True, help="sweep output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("recommend", help="configuration ranges for a dataset size")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("sweep", help="run a full experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
