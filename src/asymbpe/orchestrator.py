"""End-to-end sweep driver.

For each (dataset size, repetition) cell: draw a stratified sample of the
training corpus, learn one merge table per side at the largest NMO (each
smaller table is its prefix), and segment each split into ``<cell>/seg/`` at
every NMO of its side, encoding each word once (``bpe.segment_lines``). The
source lines of every test set, in config order, form one combined test
source per source NMO. Then every configuration invokes the translation
backend once on those shared files, which it must treat as read-only: one
model per configuration, as in the paper, whatever the number of test sets.
Its hypothesis file is split back into the test sets by their source line
counts, and each test set's slice is de-segmented and its per-sentence
CHRF++ statistics computed once: the run's score comes from that matrix,
and so does its significance test against the best symmetric configuration
of the same cell and test set. All of a cell's systems are tested in one
pass that shares each swap mask, since the cell's runs share one seed.

A run is one (configuration, test set) pair and leaves a JSON record on
disk. A backend failure fails every pending run of its configuration; a
scoring failure fails only its own test set's run. Every sweep resumes
whatever its output directory holds: samples, tables, segmented files and
completed records on disk are kept and never recomputed, so an interrupted
sweep can resume without changing earlier scores, and a fresh sweep needs a
fresh output directory. A configuration with any pending test set runs the
backend again over all test sets and writes only the pending records. A resumed
record is re-scored from its ``hyp.detok.txt`` only when a test needs it: it
has no p-value yet, or the cell's best symmetric configuration has changed
since it was tested.

The backend is an external command template; its stdout and stderr go to
``<cell>/<config>/backend.log``. Two built-in mocks exist for pipeline
testing: ``mock:echo-reference`` writes the references of every test set
and ``mock:identity`` the de-segmented source.
"""

import itertools
import json
import math
import os
import string
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import bpe, chrf, sampler
from .sweep import (BpeConfig, SystemResult, enumerate_grid, format_nmo, parse_nmo,
                    render_tier_text, render_tier_tsv, tier_report, SweepError)

SCHEMA_VERSION = 1

RESULTS_COLUMNS = ("config", "src_nmo", "tgt_nmo", "direction", "size", "rep",
                   "testset", "chrf", "p_vs_baseline", "status")

BACKEND_PLACEHOLDERS = {"train_src", "train_tgt", "valid_src", "valid_tgt",
                        "test_src", "model_dir", "hyp_out", "config"}

MOCK_ECHO_REFERENCE = "mock:echo-reference"
MOCK_IDENTITY = "mock:identity"

_CONFIG_FIELDS = {
    "schema", "train_src", "train_tgt", "valid_src", "valid_tgt",
    "test_src", "test_tgt", "direction", "sizes", "nmo_set", "backend",
    "output_dir", "seed", "repetitions", "workers",
    "significance_iterations", "extra_test_sets", "bins", "granularity",
}

_REQUIRED_FIELDS = ("train_src", "train_tgt", "valid_src", "valid_tgt",
                    "test_src", "test_tgt", "direction", "sizes", "nmo_set",
                    "backend", "output_dir")


class OrchestratorError(ValueError):
    pass


@dataclass
class TestSet:
    name: str
    src: str
    tgt: str


@dataclass
class ExperimentConfig:
    train_src: str
    train_tgt: str
    valid_src: str
    valid_tgt: str
    test_sets: list
    direction: str
    sizes: list
    nmo_set: list
    backend_command: str
    output_dir: str
    seed: int = 0
    repetitions: int = 1
    workers: int = 1
    significance_iterations: int = 10000
    backend_timeout: float | None = None
    bin_boundaries: tuple = sampler.DEFAULT_BOUNDARIES
    granularity: int = 10

    @property
    def src_lang(self) -> str:
        return self.direction.split("-")[0]

    @property
    def tgt_lang(self) -> str:
        return self.direction.split("-")[1]

    def planned_runs(self) -> int:
        return (len(self.sizes) * len(self.nmo_set) ** 2 * self.repetitions
                * len(self.test_sets))


@dataclass
class RunRecord:
    config_label: str
    src_nmo: int
    tgt_nmo: int
    direction: str
    size: int
    rep: int
    testset: str
    seed: int
    status: str = "pending"            # pending | done | failed
    chrf: float | None = None
    p_vs_baseline: float | None = None
    baseline: str | None = None        # config label p_vs_baseline was measured against
    failure_reason: str | None = None
    started: float | None = None
    finished: float | None = None
    artifacts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_backend_template(command: str):
    if command in (MOCK_ECHO_REFERENCE, MOCK_IDENTITY):
        return
    fields = [f for _, f, _, _ in string.Formatter().parse(command) if f]
    unknown = set(fields) - BACKEND_PLACEHOLDERS
    if unknown:
        raise OrchestratorError("unknown backend placeholders: %s" % ", ".join(sorted(unknown)))
    if len(fields) != len(set(fields)):
        raise OrchestratorError("backend placeholders may be used at most once")
    if "hyp_out" not in fields:
        raise OrchestratorError("backend command must use the {hyp_out} placeholder")


def load_experiment(path) -> ExperimentConfig:
    """Load and validate the JSON experiment config (schema 1)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise OrchestratorError("the config must be a JSON object, got %s"
                                % type(raw).__name__)
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise OrchestratorError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    missing = [f for f in _REQUIRED_FIELDS if f not in raw]
    if missing:
        raise OrchestratorError("missing config fields: %s" % ", ".join(missing))
    if raw.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise OrchestratorError("unsupported schema version %r" % raw.get("schema"))

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p, name):
        if not isinstance(p, str):
            raise OrchestratorError("%s must be a path string, got %r" % (name, p))
        return p if os.path.isabs(p) else os.path.join(base, p)

    test_sets = [TestSet("test", resolve(raw["test_src"], "test_src"),
                         resolve(raw["test_tgt"], "test_tgt"))]
    extras = raw.get("extra_test_sets", [])
    if not (isinstance(extras, list) and all(isinstance(e, dict) for e in extras)):
        raise OrchestratorError("extra_test_sets must be a list of objects, got %r"
                                % (extras,))
    for extra in extras:
        for key in ("name", "src", "tgt"):
            if key not in extra:
                raise OrchestratorError("extra test set missing field %r" % key)
        name = extra["name"]
        # The name is a directory under each configuration, so it must be
        # one distinct path component. The combined test source in
        # <cell>/seg/ joins the names with '+', so that name identifies the
        # list of test sets only if no name holds a '+'.
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or os.sep in name):
            raise OrchestratorError("test set name %r is not a plain file name" % (name,))
        if "+" in name:
            raise OrchestratorError("test set name %r contains '+', which joins test set "
                                    "names in the combined test source's file name" % name)
        if any(ts.name == name for ts in test_sets):
            raise OrchestratorError("test set name %r is used twice" % name)
        test_sets.append(TestSet(name, resolve(extra["src"], "test set %r src" % name),
                                 resolve(extra["tgt"], "test set %r tgt" % name)))

    backend = raw["backend"]
    if isinstance(backend, str):
        backend = {"command": backend}
    if not isinstance(backend, dict) or "command" not in backend:
        raise OrchestratorError("backend must be a command string or an object with a "
                                "'command' template, got %r" % (backend,))
    if not isinstance(backend["command"], str):
        raise OrchestratorError("backend.command must be a string, got %r"
                                % (backend["command"],))
    _check_backend_template(backend["command"])

    direction = raw["direction"]
    langs = direction.split("-") if isinstance(direction, str) else []
    if len(langs) != 2 or not all(langs):
        raise OrchestratorError("direction must be two language codes like 'en-hi', got %r"
                                % (direction,))
    if langs[0] == langs[1]:
        raise OrchestratorError(
            "direction %r has one language on both sides; merge tables are named "
            "by language, so its two sides would share one table file" % direction)

    sizes = raw["sizes"]
    if not isinstance(sizes, list) or not all(_is_int(s) and s > 0 for s in sizes):
        raise OrchestratorError("sizes must be a list of positive ints, got %r" % (sizes,))

    nmo_set = raw["nmo_set"]
    if not (isinstance(nmo_set, list) and nmo_set
            and all(isinstance(v, str) or (_is_int(v) and v >= 0) for v in nmo_set)):
        raise OrchestratorError("nmo_set must be a non-empty list of non-negative ints or "
                                "K-strings like '0.5K', got %r" % (nmo_set,))
    try:
        nmo_set = [parse_nmo(v) for v in nmo_set]
    except SweepError as exc:
        raise OrchestratorError("nmo_set %r: %s" % (raw["nmo_set"], exc)) from None
    if len(set(nmo_set)) != len(nmo_set):
        raise OrchestratorError("nmo_set repeats a value: %r" % (raw["nmo_set"],))

    bins = raw.get("bins", list(sampler.DEFAULT_BOUNDARIES))
    try:
        sampler.make_bins(bins)
    except sampler.SamplerError as exc:
        raise OrchestratorError(str(exc)) from None

    def integer(name, default, least):
        value = raw.get(name, default)
        if not _is_int(value):
            raise OrchestratorError("%s must be an int, got %r" % (name, value))
        if value < least:
            raise OrchestratorError("%s must be >= %d, got %d" % (name, least, value))
        return value

    timeout = backend.get("timeout")
    # NaN and infinity fail the range test; bools are not numbers here.
    if timeout is not None and (isinstance(timeout, bool)
                                or not isinstance(timeout, (int, float))
                                or not 0 < timeout < math.inf):
        raise OrchestratorError("backend.timeout must be a positive number of seconds, got %r"
                                % (timeout,))

    cfg = ExperimentConfig(
        train_src=resolve(raw["train_src"], "train_src"),
        train_tgt=resolve(raw["train_tgt"], "train_tgt"),
        valid_src=resolve(raw["valid_src"], "valid_src"),
        valid_tgt=resolve(raw["valid_tgt"], "valid_tgt"),
        test_sets=test_sets,
        direction=raw["direction"],
        sizes=list(sizes),
        nmo_set=nmo_set,
        backend_command=backend["command"],
        output_dir=resolve(raw["output_dir"], "output_dir"),
        # Cell seeds also seed the significance test's generator, which
        # takes no negative seed.
        seed=integer("seed", 0, 0),
        repetitions=integer("repetitions", 1, 1),
        workers=integer("workers", 1, 1),
        significance_iterations=integer("significance_iterations", 10000, 1),
        backend_timeout=timeout,
        bin_boundaries=tuple(bins),
        granularity=integer("granularity", 10, 1),
    )
    for name in ("train_src", "train_tgt", "valid_src", "valid_tgt"):
        if not os.path.exists(getattr(cfg, name)):
            raise OrchestratorError("%s path does not exist: %s" % (name, getattr(cfg, name)))
    for ts in cfg.test_sets:
        for p in (ts.src, ts.tgt):
            if not os.path.exists(p):
                raise OrchestratorError("test set %r path does not exist: %s" % (ts.name, p))
    return cfg


def read_lines(path) -> list:
    """The lines of a UTF-8 text file, without their newlines."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def write_lines(path, lines):
    """Write one line per item atomically (temporary file, then rename),
    creating the parent directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)


def _write_json(path, obj):
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _table_path(cell_dir, lang, nmo):
    return os.path.join(cell_dir, "tables", "%s.%s.bpe" % (lang, format_nmo(nmo)))


def _cell_tables(cfg, cell_dir, lang, sample_path):
    """One side's merge table at max(nmo_set): loaded when its file exists,
    else learned. Greedy BPE tables are prefixes of each other, so each
    smaller table file missing on disk is written as its truncation."""
    top = _table_path(cell_dir, lang, max(cfg.nmo_set))
    if os.path.exists(top):
        full = bpe.MergeTable.load(top)
    else:
        full = bpe.learn_bpe(read_lines(sample_path), max(cfg.nmo_set))
    os.makedirs(os.path.dirname(top), exist_ok=True)
    for nmo in cfg.nmo_set:
        path = _table_path(cell_dir, lang, nmo)
        if not os.path.exists(path):
            bpe.MergeTable(full.rules[:nmo]).save(path)
    return full


def _backend_inputs(cfg, cell_dir, sample_dir, config) -> dict:
    """Placeholder -> (raw text paths, side, NMO, segmented path) for the five
    segmented inputs of one configuration. Every configuration that needs
    the same split, side and NMO gets the same file under ``<cell>/seg/``.
    ``{test_src}`` holds the source lines of every test set in config order,
    in a file named after the list of test sets."""
    src, tgt = ("src", config.src_nmo), ("tgt", config.tgt_nmo)
    test = "test-" + "+".join(ts.name for ts in cfg.test_sets)
    rows = (("train_src", "train", (os.path.join(sample_dir, "train.src"),), src),
            ("train_tgt", "train", (os.path.join(sample_dir, "train.tgt"),), tgt),
            ("valid_src", "valid", (cfg.valid_src,), src),
            ("valid_tgt", "valid", (cfg.valid_tgt,), tgt),
            ("test_src", test, tuple(ts.src for ts in cfg.test_sets), src))
    return {name: (raw, side, nmo, os.path.join(
                cell_dir, "seg", "%s.%s.%s" % (split, format_nmo(nmo), side)))
            for name, split, raw, (side, nmo) in rows}


def _log_tail(path, chars=500) -> str:
    """The last ``chars`` characters of a log file, read from its end."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4 * chars - 3))  # UTF-8: <= 4 bytes a char
        return fh.read().decode("utf-8", "replace").strip()[-chars:]


def _invoke_backend(cfg: ExperimentConfig, paths: dict, log_path):
    """Run the backend once, writing its stdout and stderr to ``log_path``.
    The mocks write no log."""
    command = cfg.backend_command
    if command == MOCK_ECHO_REFERENCE:
        write_lines(paths["hyp_out"],
                    [line for ts in cfg.test_sets for line in read_lines(ts.tgt)])
        return
    if command == MOCK_IDENTITY:
        write_lines(paths["hyp_out"],
                    [bpe.unsegment(line) for line in read_lines(paths["test_src"])])
        return
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(command.format(**paths), shell=True,
                                  timeout=cfg.backend_timeout, stdout=log,
                                  stderr=subprocess.STDOUT)
        except subprocess.TimeoutExpired:
            raise OrchestratorError("backend timed out after %s s (log %s): %s" % (
                cfg.backend_timeout, log_path, _log_tail(log_path))) from None
    if proc.returncode != 0:
        raise OrchestratorError("backend exited %d (log %s): %s" % (
            proc.returncode, log_path, _log_tail(log_path)))
    if not os.path.exists(paths["hyp_out"]):
        raise OrchestratorError("backend produced no hypothesis file at %s" % paths["hyp_out"])


def _record_path(run_dir):
    return os.path.join(run_dir, "record.json")


def _save_record(run_dir, record: RunRecord):
    _write_json(_record_path(run_dir), record.to_dict())


def _load_record(run_dir):
    path = _record_path(run_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return RunRecord.from_dict(json.load(fh))


def run_sweep(cfg: ExperimentConfig) -> list:
    """Execute the full sweep, resuming from whatever ``cfg.output_dir``
    holds; returns one RunRecord per planned run."""
    out = cfg.output_dir
    _write_json(os.path.join(out, "manifest.json"), {
        "schema": SCHEMA_VERSION,
        "direction": cfg.direction,
        "sizes": cfg.sizes,
        "nmo_set": cfg.nmo_set,
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "planned_runs": cfg.planned_runs(),
        "significance_iterations": cfg.significance_iterations,
        "assumptions": [
            "validation data is segmented with the same per-configuration "
            "merge tables as training data",
            "each side learns one table at max(nmo_set); smaller tables are its prefixes; "
            "each side encodes every word once at max(nmo_set) and snapshots each smaller NMO",
            "the backend runs once per configuration over all test sets in config order, "
            "writes one {hyp_out} line per {test_src} line, and must not modify the shared "
            "<cell>/seg/ inputs"],
    })

    train_src = read_lines(cfg.train_src)
    train_tgt = read_lines(cfg.train_tgt)
    bins = sampler.make_bins(cfg.bin_boundaries)
    histogram = sampler.bin_histogram(train_src, train_tgt, bins)

    records = []
    for size in cfg.sizes:
        for rep in range(cfg.repetitions):
            cell_seed = cfg.seed + rep
            cell_dir = os.path.join(out, "size%d" % size, "rep%d" % rep)
            records.extend(_run_cell(cfg, size, rep, cell_seed, cell_dir,
                                     train_src, train_tgt, histogram))
    return records


def _run_cell(cfg, size, rep, cell_seed, cell_dir, train_src, train_tgt, histogram):
    sample_dir = os.path.join(cell_dir, "sample")
    s_src, s_tgt = os.path.join(sample_dir, "train.src"), os.path.join(sample_dir, "train.tgt")
    if not (os.path.exists(s_src) and os.path.exists(s_tgt)):
        plan = sampler.make_sample_plan(histogram, size, cell_seed, cfg.granularity)
        src_sample, tgt_sample, _ = sampler.draw_sample(train_src, train_tgt, plan)
        write_lines(s_src, src_sample)
        write_lines(s_tgt, tgt_sample)
        _write_json(os.path.join(sample_dir, "manifest.json"),
                    {"bin_plan": histogram.to_dict(), "sample_plan": plan.to_dict()})

    # Record c * n_sets + t is configuration c on test set t.
    configs = enumerate_grid(cfg.nmo_set)
    n_sets = len(cfg.test_sets)
    records = [_load_record(os.path.join(cell_dir, config.label, testset.name))
               for config in configs for testset in cfg.test_sets]
    pending = {}  # configuration index -> indices of its test sets still to run
    for i, rec in enumerate(records):
        if rec is None or rec.status not in ("done", "failed"):
            pending.setdefault(i // n_sets, []).append(i % n_sets)
    inputs = {c: _backend_inputs(cfg, cell_dir, sample_dir, configs[c]) for c in pending}

    # Tables and segmented splits are complete before any run starts: no locks.
    tables = {"src": _cell_tables(cfg, cell_dir, cfg.src_lang, s_src),
              "tgt": _cell_tables(cfg, cell_dir, cfg.tgt_lang, s_tgt)}
    missing = {}  # (raw files, side) -> [(NMO, segmented path)] not on disk yet
    for raw, side, nmo, path in sorted({v for paths in inputs.values() for v in paths.values()}):
        if not os.path.exists(path):
            missing.setdefault((raw, side), []).append((nmo, path))
    for (raw, side), targets in missing.items():
        lines = [line for path in raw for line in read_lines(path)]
        segmented = bpe.segment_lines(tables[side], lines, {n for n, _ in targets})
        for nmo, path in targets:
            write_lines(path, segmented[nmo])
    test_lines = [len(read_lines(ts.src)) for ts in cfg.test_sets]

    def run_one(c):
        seg = {name: path for name, (_, _, _, path) in inputs[c].items()}
        return _run_config(cfg, size, rep, cell_seed, cell_dir, configs[c], pending[c],
                           seg, test_lines)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            finished = list(pool.map(run_one, pending))
    else:
        finished = [run_one(c) for c in pending]
    stats = [None] * len(records)
    for c, results in zip(pending, finished):
        for t, (record, matrix) in zip(pending[c], results):
            records[c * n_sets + t], stats[c * n_sets + t] = record, matrix

    _add_significance(cfg, cell_dir, records, stats)
    return records


def _run_config(cfg, size, rep, cell_seed, cell_dir, config: BpeConfig, pending: list,
                seg_paths: dict, test_lines: list):
    """Run the backend once for one configuration, on the test sources of
    every test set, and score each pending test set (an index into
    ``cfg.test_sets``) on its slice of the hypothesis; ``test_lines`` holds
    each test set's source line count. Returns one (saved record, CHRF++
    statistics matrix or None) per pending test set; the matrix is None
    unless the record is done."""
    config_dir = os.path.join(cell_dir, config.label)
    started = time.time()
    paths = dict(seg_paths, model_dir=os.path.join(config_dir, "model"),
                 hyp_out=os.path.join(config_dir, "hyp.txt"), config=config.label)
    backend_error = None
    try:
        os.makedirs(paths["model_dir"], exist_ok=True)
        _invoke_backend(cfg, paths, os.path.join(config_dir, "backend.log"))
        hyps = read_lines(paths["hyp_out"])
        if len(hyps) != sum(test_lines):
            raise OrchestratorError("hypothesis line count %d does not match the %d lines "
                                    "of the test sources" % (len(hyps), sum(test_lines)))
    except (OrchestratorError, OSError) as exc:
        backend_error = str(exc)  # fails every pending test set of the configuration

    starts = list(itertools.accumulate([0] + test_lines))
    results = []
    for t in pending:
        testset = cfg.test_sets[t]
        run_dir = os.path.join(config_dir, testset.name)
        record = RunRecord(config_label=config.label, src_nmo=config.src_nmo,
                           tgt_nmo=config.tgt_nmo, direction=cfg.direction,
                           size=size, rep=rep, testset=testset.name,
                           seed=cell_seed, started=started)
        matrix, reason = None, backend_error
        if reason is None:
            try:
                matrix = _score_testset(cfg, cell_dir, config, testset,
                                        hyps[starts[t]:starts[t + 1]], paths["hyp_out"],
                                        run_dir, record)
            except (OrchestratorError, bpe.BpeError, chrf.ChrfError, OSError) as exc:
                reason = str(exc)
        if matrix is None:
            record.status, record.failure_reason = "failed", reason
        record.finished = time.time()
        _save_record(run_dir, record)
        results.append((record, matrix))
    return results


def _score_testset(cfg, cell_dir, config, testset, hyps, hyp_path, run_dir, record):
    """De-segment one test set's hypothesis lines into ``hyp.detok.txt``,
    score them into ``record`` and return their statistics matrix."""
    refs = read_lines(testset.tgt)
    if len(hyps) != len(refs):
        raise OrchestratorError("test set %r has %d source lines but %d references"
                                % (testset.name, len(hyps), len(refs)))
    detok = [bpe.unsegment(line) for line in hyps]
    detok_path = os.path.join(run_dir, "hyp.detok.txt")
    write_lines(detok_path, detok)
    matrix = chrf.stats_matrix(detok, refs)
    record.chrf = round(chrf.corpus_chrf(matrix).value, 6)
    record.status = "done"
    record.artifacts = {
        "src_table": _table_path(cell_dir, cfg.src_lang, config.src_nmo),
        "tgt_table": _table_path(cell_dir, cfg.tgt_lang, config.tgt_nmo),
        "hypothesis": hyp_path, "hypothesis_detok": detok_path,
    }
    return matrix


def _add_significance(cfg, cell_dir, records, stats):
    """Paired significance of completed runs against the cell's best symmetric
    run, per test set. A run is tested when it has no p-value or was tested
    against another baseline. ``stats[i]`` is run i's statistics matrix when
    this sweep scored it, else None; such a run is re-scored from its
    ``hyp.detok.txt`` only if a test needs it."""
    by_testset = {}
    for i, rec in enumerate(records):
        if rec.status == "done":
            by_testset.setdefault(rec.testset, []).append(i)
    for testset_name, cell in by_testset.items():
        symmetric = [i for i in cell if records[i].src_nmo == records[i].tgt_nmo]
        if not symmetric:
            continue
        base = max(symmetric, key=lambda i: (records[i].chrf, -records[i].src_nmo))
        label = records[base].config_label
        by_seed = {}
        for i in cell:
            if records[i].p_vs_baseline is None or records[i].baseline != label:
                by_seed.setdefault(records[i].seed, []).append(i)
        if not by_seed:
            continue
        testset = next(t for t in cfg.test_sets if t.name == testset_name)
        refs = read_lines(testset.tgt)
        for i in [base] + [i for group in by_seed.values() for i in group]:
            if stats[i] is None:
                stats[i] = chrf.stats_matrix(read_lines(os.path.join(
                    cell_dir, records[i].config_label, testset_name, "hyp.detok.txt")), refs)
        for seed, group in by_seed.items():
            results = chrf.paired_significance_stats(
                [stats[i] for i in group], stats[base],
                iterations=cfg.significance_iterations, seed=seed)
            for i, result in zip(group, results):
                rec = records[i]
                rec.p_vs_baseline = round(result.p_value, 6)
                rec.baseline = label
                _save_record(os.path.join(cell_dir, rec.config_label, testset_name), rec)


def collect_records(run_dir) -> list:
    """Load every persisted RunRecord under a sweep output directory."""
    records = []
    for root, _dirs, files in os.walk(run_dir):
        if "record.json" in files:
            records.append(_load_record(root))
    records.sort(key=lambda r: (r.size, r.rep, r.testset, r.src_nmo, r.tgt_nmo))
    return records


def emit_report(records, out_dir) -> dict:
    """Write results.tsv, per-cell tier reports, the per-source-NMO maximum
    trace, and a repetition-averaged summary. Returns the artifact paths."""
    records = list(records)
    completed = [r for r in records if r.status == "done"]
    if not completed:
        raise OrchestratorError("no completed records to report")
    os.makedirs(out_dir, exist_ok=True)

    results_path = os.path.join(out_dir, "results.tsv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(RESULTS_COLUMNS) + "\n")
        for r in records:
            fh.write("\t".join([
                r.config_label, str(r.src_nmo), str(r.tgt_nmo), r.direction,
                str(r.size), str(r.rep), r.testset,
                "%.2f" % r.chrf if r.chrf is not None else "",
                "%.4f" % r.p_vs_baseline if r.p_vs_baseline is not None else "",
                r.status]) + "\n")

    artifacts = {"results": results_path, "tiers": [], "max_trace": None, "summary": None}

    cells = {}
    for r in completed:
        cells.setdefault((r.direction, r.size, r.rep, r.testset), []).append(r)
    tier_dir = os.path.join(out_dir, "tiers")
    for (direction, size, rep, testset), cell in sorted(cells.items()):
        results = [SystemResult(BpeConfig(r.src_nmo, r.tgt_nmo), r.chrf, r.p_vs_baseline)
                   for r in cell]
        try:
            report = tier_report(results)
        except SweepError:
            continue  # not enough coverage for tiers in this cell
        os.makedirs(tier_dir, exist_ok=True)
        stem = "%s_size%d_rep%d_%s" % (direction, size, rep, testset)
        tsv_path = os.path.join(tier_dir, stem + ".tsv")
        with open(tsv_path, "w", encoding="utf-8") as fh:
            fh.write(render_tier_tsv(report))
        with open(os.path.join(tier_dir, stem + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(render_tier_text(report))
        artifacts["tiers"].append(tsv_path)

    # Stepped-maximum trace: best score per source NMO within each cell.
    max_path = os.path.join(out_dir, "src_nmo_max.tsv")
    with open(max_path, "w", encoding="utf-8") as fh:
        fh.write("direction\tsize\trep\ttestset\tsrc_nmo\tmax_chrf\tbest_config\n")
        for (direction, size, rep, testset), cell in sorted(cells.items()):
            per_src = {}
            for r in cell:
                cur = per_src.get(r.src_nmo)
                if cur is None or r.chrf > cur.chrf:
                    per_src[r.src_nmo] = r
            for src_nmo in sorted(per_src):
                best = per_src[src_nmo]
                fh.write("%s\t%d\t%d\t%s\t%d\t%.2f\t%s\n" % (
                    direction, size, rep, testset, src_nmo, best.chrf,
                    best.config_label))
    artifacts["max_trace"] = max_path

    # Mean corpus score per configuration across repetitions.
    summary_path = os.path.join(out_dir, "summary.tsv")
    groups = {}
    for r in completed:
        groups.setdefault((r.direction, r.size, r.testset, r.config_label), []).append(r.chrf)
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("direction\tsize\ttestset\tconfig\tmean_chrf\trepetitions\n")
        for (direction, size, testset, label), scores in sorted(groups.items()):
            fh.write("%s\t%d\t%s\t%s\t%.2f\t%d\n" % (
                direction, size, testset, label, sum(scores) / len(scores), len(scores)))
    artifacts["summary"] = summary_path
    return artifacts
