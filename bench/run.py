"""The asymbpe benchmark: one command per workload, metrics as JSON.

Usage (from the repository root):
    python3 bench/run.py --workload sweep-train --seed 1 --seconds 30 --trace 0

Generates a seeded synthetic en→hi corpus, then runs the workload in fresh
child processes (bench/worker.py), one repetition each, until ``--seconds``
are used. Every repetition's outputs are checked. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and
its per-layer metrics with ``--trace 1``. Each metric is the median over
repetitions. The exit code is 1 if any output check fails, and 2 if the
program cannot be found or run.

See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time

import corpus

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
REP_TIMEOUT_S = 150
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Set-up takes about 0.1 s and varies with the machine's load, so each run
# measures it in this many extra processes as well as in every repetition.
SETUP_PROBES = 9

# Sizes are chosen so that one repetition takes a few seconds on a 2-core
# machine and the run can take the median of several; README.md gives the
# reason for each workload. toolchain is the smallest (about 2.5 s, so a
# 42 s run holds a dozen repetitions): its one large learn-bpe is the most
# exposed to the machine's drift.
WORKLOADS = {
    "sweep-train": {
        "kind": "sweep",
        "stems": 6000,
        "splits": {"pool": 900, "valid": 8, "test": 8},
        "size": 700,
        "nmo_set": ["0.5K", "1K", "2K", "4K"],
        "iterations": 200,
        "workers": 1,
    },
    "sweep-eval": {
        "kind": "sweep",
        "stems": 3000,
        "splits": {"pool": 400, "valid": 10, "test": 40, "test2": 40},
        "size": 300,
        "nmo_set": ["0.5K", "1K", "2K"],
        "iterations": 10000,
        "workers": 2,
    },
    "toolchain": {
        "kind": "toolchain",
        "stems": 8000,
        "splits": {"pool": 3000, "eval": 150},
        "systems": {"system_a": ("eval", 0.15), "system_b": ("eval", 0.2)},
        "size": 2500,
        "nmo": 8000,
        "iterations": 10000,
    },
}


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # One BLAS thread: the workloads use at most the orchestrator's own
    # worker threads, and BLAS threads would contend with them for 2 cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed string-hash seed removes one source of run-to-run variance:
    # set and dict layouts, and so the program's speed, depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program(src_dir):
    """Import the program from the checkout (this also compiles its bytecode
    before any timing). Returns an error message, or None."""
    if not os.path.isfile(os.path.join(src_dir, "asymbpe", "__init__.py")):
        return "no asymbpe package under %s" % src_dir
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import asymbpe, asymbpe.cli, "
            "asymbpe.orchestrator; print(asymbpe.__file__)")
    proc = subprocess.run([sys.executable, "-c", code, src_dir], capture_output=True,
                          text=True, env=child_env(), timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        return "cannot import asymbpe: %s" % proc.stderr.strip()[-500:]
    if not os.path.abspath(proc.stdout.strip()).startswith(src_dir + os.sep):
        return "asymbpe was imported from %s, not from %s" % (proc.stdout.strip(), src_dir)
    return None


def prepare(name, params, seed, work):
    """Generate the corpus; returns the spec for one repetition without its
    output directory."""
    paths = corpus.generate(os.path.join(work, "data"), seed, params["stems"],
                            params["splits"], params.get("systems", {}))
    spec = {"kind": params["kind"], "src_dir": os.path.abspath("src"), "seed": seed}
    if params["kind"] == "toolchain":
        spec.update(data={k: os.path.abspath(v) for k, v in paths.items()},
                    size=params["size"], nmo=params["nmo"], iterations=params["iterations"])
        return spec
    backend = " ".join([shlex.quote(sys.executable),
                        shlex.quote(os.path.join(BENCH_DIR, "mt_backend.py")),
                        "{train_src} {train_tgt} {test_src} {hyp_out}"])
    experiment = {
        "schema": 1,
        "train_src": os.path.abspath(paths["pool.en"]),
        "train_tgt": os.path.abspath(paths["pool.hi"]),
        "valid_src": os.path.abspath(paths["valid.en"]),
        "valid_tgt": os.path.abspath(paths["valid.hi"]),
        "test_src": os.path.abspath(paths["test.en"]),
        "test_tgt": os.path.abspath(paths["test.hi"]),
        "direction": "en-hi",
        "sizes": [params["size"]],
        "nmo_set": params["nmo_set"],
        "backend": {"command": backend},
        "seed": seed,
        "workers": params["workers"],
        "significance_iterations": params["iterations"],
    }
    if "test2.en" in paths:
        experiment["extra_test_sets"] = [{"name": "test2",
                                          "src": os.path.abspath(paths["test2.en"]),
                                          "tgt": os.path.abspath(paths["test2.hi"])}]
    spec["experiment"] = experiment
    return spec


def run_rep(spec, rep_dir, traced, run_id, spans_path=None):
    """One repetition in a fresh process; returns the worker's result."""
    os.makedirs(rep_dir, exist_ok=True)
    spec = dict(spec, out_dir=os.path.abspath(os.path.join(rep_dir, "out")))
    if "experiment" in spec:
        config = os.path.join(rep_dir, "experiment.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(dict(spec.pop("experiment"), output_dir=spec["out_dir"]), fh, indent=1)
        spec["config"] = os.path.abspath(config)
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    result_path = os.path.join(rep_dir, "result.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path,
            "1" if traced else "0", run_id]
    if traced and spans_path:
        argv.append(spans_path)
    proc = subprocess.run(argv, env=child_env(), timeout=REP_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("worker failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def plan_next(results, traced_mode, elapsed, seconds):
    """Whether to run another repetition, and whether it is traced.

    Untraced runs take at least MIN_REPS repetitions. Traced runs alternate
    traced and untraced repetitions (the untraced ones give the tracing
    overhead) and take at least MIN_TRACED_REPS of each. After the minimum,
    a repetition starts only if one more is expected to end within
    ``seconds``."""
    traced_next = traced_mode and len(results) % 2 == 0
    if traced_mode:
        done = min(sum(r["traced"] for r in results), sum(not r["traced"] for r in results))
        minimum_met = done >= MIN_TRACED_REPS
    else:
        minimum_met = len(results) >= MIN_REPS
    if not minimum_met:
        return True, traced_next
    typical = statistics.median(r["elapsed"] for r in results if r["traced"] == traced_next)
    return elapsed + typical <= seconds, traced_next


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src_dir = os.path.abspath("src")
    problem = check_program(src_dir)
    if problem:
        print("benchmark: %s" % problem, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    params = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    spec = prepare(args.workload, params, args.seed, work)

    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(args.workload, {}).get(str(args.seed))

    results, setups = [], []
    traced_mode = bool(args.trace)
    start = time.perf_counter()
    for probe in range(SETUP_PROBES):
        probe_dir = os.path.join(work, "setup")
        try:
            setups.append(run_rep(dict(spec, setup_only=True), probe_dir, False,
                                  "%s-seed%d-setup%d" % (args.workload, args.seed, probe))["setup_s"])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("benchmark: set-up probe: %s" % exc, file=sys.stderr)
            return 2
    while True:
        more, traced = plan_next(results, traced_mode, time.perf_counter() - start, args.seconds)
        if not more:
            break
        rep = len(results)
        run_id = "%s-seed%d-rep%d" % (args.workload, args.seed, rep)
        rep_dir = os.path.join(work, "rep%d" % rep)
        t0 = time.perf_counter()
        try:
            result = run_rep(spec, rep_dir, traced, run_id,
                             os.path.join(work, "spans-rep%d.jsonl" % rep))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("benchmark: %s: %s" % (run_id, exc), file=sys.stderr)
            return 2
        result.update(traced=traced, elapsed=time.perf_counter() - t0)
        results.append(result)
        if rep > 0:
            # Keep only the newest repetition's files on disk.
            shutil.rmtree(os.path.join(work, "rep%d" % (rep - 1)), ignore_errors=True)

    problems = sorted({p for r in results for p in r["problems"]})
    digests = sorted({r["digest"] for r in results})
    if len(digests) != 1:
        problems.append("repetitions disagree: %d distinct output digests" % len(digests))
    elif golden is not None and digests[0] != golden:
        problems.append("output digest %s differs from the golden %s" % (digests[0], golden))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    plain = [r for r in results if not r["traced"]]
    traced_reps = [r for r in results if r["traced"]]
    summary = {
        "wall_s": (median([r["wall_s"] for r in plain]), "s"),
        "setup_s": (median(setups + [r["setup_s"] for r in results]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
        "disk_mb": (median([r["disk_bytes"] for r in plain]) / 1e6, "MB"),
    }
    if params["kind"] == "sweep":
        summary["resume_s"] = (median([r["resume_s"] for r in plain]), "s")
    summary["failed_ratio"] = (failed / attempted, "ratio")

    print("workload %s, seed %d: %d repetitions (%d traced), %d operations, %d failed"
          % (args.workload, args.seed, len(results), len(traced_reps), attempted, failed))
    for name, (value, unit) in summary.items():
        print("  %-38s %14.6f %s" % (name, value, unit))
    print("  output digest: %s" % " ".join(digests))
    print("  wall_s of each repetition: %s" % " ".join(
        "%.3f%s" % (r["wall_s"], "(traced)" if r["traced"] else "") for r in results))
    if traced_mode:
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        layers = {name: median([r["layers"].get(name, 0) for r in traced_reps])
                  for name, _ in wanted}
        layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced_reps])
                                      - summary["wall_s"][0])
        for name, unit in wanted:
            print("  %-38s %14.6f %s" % (name, layers[name], unit))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in wanted}
    else:
        metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
