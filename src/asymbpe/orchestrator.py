"""End-to-end sweep driver over one record set, its output directory. A run
is one (dataset size, repetition, configuration, test set), where a
configuration is a (source NMO, target NMO) pair named by
``sweep.config_label``, and a (size, repetition) pair is a cell; a planned
run without a finished record there is pending.

Prepare: each cell with a pending run draws its stratified sample of the
training corpus, learns one merge table per side at the largest NMO (each
smaller table is its prefix) from the sample file as it reads it, and
segments each split into ``<cell>/seg/`` at every NMO of its side, encoding
each word once (``bpe.segment_lines``). Each raw file streams line by line
into one temporary file per missing NMO, and each is renamed into place
when complete (``textfiles.write_columns``), so preparation holds word
types and learner state but no file's lines. The source lines of every
test set, in config order, form one combined test source per source NMO.
The corpus is read only for a missing sample, through the sampler's one
path for files (``sampler.bin_files``, once for every cell, then
``sampler.write_sample`` per cell), which holds one index per corpus line
and the sample but no corpus line. Each missing sample's size is checked
against the binned corpus before the manifest or any cell is written, so a
size the corpus cannot sample costs no other cell's preparation.

Run: one worker pool takes every (cell, configuration) with a pending run
and invokes the translation backend once on the cell's shared files, which
it must treat as read-only: one model per configuration, as in the paper,
whatever the number of test sets. Its hypothesis file is split back into
the test sets by their source line counts, and each slice is de-segmented
into the run's ``hyp.detok.txt``.

Evaluate: one ``evaluate`` call over every record in the directory reads
each ``hyp.detok.txt`` that a score or test needs once, against the
references ``manifest.json`` names, and tests each family (a cell and test
set) against its best symmetric configuration in one pass that shares each
swap mask. ``report --run-dir`` makes the same call, so a resume with a
smaller grid keeps and reports every finished run. ``evaluate`` and
``emit_report`` take the families from ``_families``, which refuses two
records of one run and a family of two seeds; a sweep reads the records on
disk once and puts them through ``_families`` before it writes or runs
anything. Reports order records by direction, size, repetition, source NMO,
target NMO and test set (``_report_order``). A family's tier report is the
rows ``sweep.tier_report`` returns for its done records, passed as
``(src_nmo, tgt_nmo, chrf, p_vs_baseline)`` tuples; ``emit_report`` refuses
a done record without a score before it writes any file.

A backend failure fails every pending run of its configuration; a slice
that does not match its references fails only its own run. Every sweep
resumes whatever its output directory holds: samples, tables, segmented
files and completed records on disk are kept and never recomputed, so an
interrupted sweep can resume without changing earlier scores, and a fresh
sweep needs a fresh output directory. A finished cell builds nothing. A
configuration with any pending test set runs the backend again over all
test sets and writes only the pending records. A sweep holds its output
directory's ``sweep.lock`` from start to end (``_sweep_lock``): a second
sweep on the directory is refused, naming the holder's pid, a killed
sweep's lock blocks no resume, and a finished directory holds no lock file.

The backend is an external command template, the only way a configuration
runs. Each placeholder expands to one shell-quoted word; the command's stdout
and stderr go to ``<cell>/<config>/backend.log``, and any ``{hyp_out}`` an
earlier attempt left is deleted before it runs. A test set whose source and
reference line counts differ, or that has no lines, is refused before any
cell is prepared. Every file of lines is read, and every file but the
backend's log is written, through ``textfiles``, which refuses a file that
is not UTF-8, naming it. This module reads JSON itself (``_read_json``).
"""

import contextlib
import fcntl
import json
import math
import os
import shlex
import string
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields

from . import bpe, chrf, sampler
from .sweep import (config_label, enumerate_grid, format_nmo, parse_nmo, rank_key,
                    render_tier_text, render_tier_tsv, tier_report, SweepError)
from .textfiles import (TextFileError, iter_lines, read_lines, write_columns, write_json,
                        write_lines)

SCHEMA_VERSION = 1

RESULTS_COLUMNS = ("config", "src_nmo", "tgt_nmo", "direction", "size", "rep",
                   "testset", "chrf", "p_vs_baseline", "status")

BACKEND_PLACEHOLDERS = {"train_src", "train_tgt", "valid_src", "valid_tgt",
                        "test_src", "model_dir", "hyp_out", "config"}

_CONFIG_FIELDS = {
    "schema", "train_src", "train_tgt", "valid_src", "valid_tgt",
    "test_src", "test_tgt", "direction", "sizes", "nmo_set", "backend",
    "output_dir", "seed", "repetitions", "workers",
    "significance_iterations", "extra_test_sets",
}

_REQUIRED_FIELDS = ("train_src", "train_tgt", "valid_src", "valid_tgt",
                    "test_src", "test_tgt", "direction", "sizes", "nmo_set",
                    "backend", "output_dir")

# A configuration directory's own entries, beside one directory per test set.
_MODEL_DIR, _HYP_OUT, _BACKEND_LOG = "model", "hyp.txt", "backend.log"
_CONFIG_DIR_ENTRIES = {_MODEL_DIR: "the backend's {model_dir}",
                       _HYP_OUT: "the backend's {hyp_out}", _BACKEND_LOG: "the backend's log"}
# An output directory's entry while a sweep holds it (_sweep_lock).
_LOCK_FILE = "sweep.lock"


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
    seed: int
    repetitions: int
    workers: int
    significance_iterations: int
    backend_timeout: float | None

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
    started: float | None = None       # Unix time in whole seconds; older records
    finished: float | None = None      # hold the float time.time() returned

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        if not isinstance(d, dict):
            raise OrchestratorError("a run record must be a JSON object, got %s"
                                    % type(d).__name__)
        # Records written before ``artifacts`` (absolute paths) was dropped.
        d = {k: v for k, v in d.items() if k != "artifacts"}
        problems = ["unknown key %r" % k for k in sorted(set(d) - {f.name for f in fields(cls)})]
        problems += ["missing key %r" % f.name for f in fields(cls) if f.name not in d
                     and f.default is MISSING and f.default_factory is MISSING]
        if problems:
            raise OrchestratorError("not a run record: %s" % ", ".join(problems))
        record = cls(**d)
        problems = ["%s must be %s, got %r" % (key, kind, getattr(record, key))
                    for keys, kind, valid in _RECORD_VALUES for key in keys
                    if not valid(getattr(record, key))]
        if problems:
            raise OrchestratorError("bad run record: %s" % ", ".join(problems))
        return record


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_or_none(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)
                             and math.isfinite(value))


# What each field of a loaded RunRecord may hold: (keys, description, test).
_RECORD_VALUES = (
    (("status",), "one of pending, done, failed", lambda v: v in ("pending", "done", "failed")),
    (("src_nmo", "tgt_nmo", "size", "rep", "seed"), "an int", _is_int),
    (("config_label", "direction", "testset"), "a string", lambda v: isinstance(v, str)),
    (("baseline", "failure_reason"), "a string or null",
     lambda v: v is None or isinstance(v, str)),
    (("chrf", "p_vs_baseline", "started", "finished"), "a finite number or null",
     _is_finite_or_none),
)


def _check_backend_template(command: str):
    # An unnamed {} has the field name "", and literal text has None.
    parsed = [(f, conversion, spec) for _, f, spec, conversion
              in string.Formatter().parse(command) if f is not None]
    fields = [f for f, _, _ in parsed]
    unknown = set(fields) - BACKEND_PLACEHOLDERS
    if unknown:
        raise OrchestratorError("unknown backend placeholders: %s (a literal brace is written "
                                "{{ or }})" % ", ".join("{%s}" % f for f in sorted(unknown)))
    # A conversion such as !r would quote the path again, and a format spec
    # fails only once a cell is prepared.
    decorated = ["{%s%s%s}" % (f, "!" + conversion if conversion else "",
                               ":" + spec if spec else "")
                 for f, conversion, spec in parsed if conversion or spec]
    if decorated:
        raise OrchestratorError("backend placeholders take no conversion or format spec: %s"
                                % ", ".join(decorated))
    if len(fields) != len(set(fields)):
        raise OrchestratorError("backend placeholders may be used at most once")
    if "hyp_out" not in fields:
        raise OrchestratorError("backend command must use the {hyp_out} placeholder")


def _read_json(path, parse=lambda value: value):
    """``parse`` of the value of a JSON file. A ValueError from either, as
    from a file that is not UTF-8 or not JSON, is refused naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise OrchestratorError("%s: %s" % (path, exc)) from None


def _refuse_unknown_keys(obj: dict, what: str, allowed):
    """Refuse keys of a config object outside ``allowed``, so that a
    misspelt optional key is not silently ignored."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise OrchestratorError("unknown %s keys: %s (allowed: %s)"
                                % (what, ", ".join(sorted(unknown)), ", ".join(allowed)))


def load_experiment(path) -> ExperimentConfig:
    """Load and validate the JSON experiment config (schema 1)."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise OrchestratorError("the config must be a JSON object, got %s"
                                % type(raw).__name__)
    _refuse_unknown_keys(raw, "config", sorted(_CONFIG_FIELDS))
    missing = [f for f in _REQUIRED_FIELDS if f not in raw]
    if missing:
        raise OrchestratorError("missing config fields: %s" % ", ".join(missing))
    schema = raw.get("schema", SCHEMA_VERSION)
    # true and 1.0 equal 1 in Python, so the type is checked first.
    if not _is_int(schema):
        raise OrchestratorError("schema must be an int, got %r" % (schema,))
    if schema != SCHEMA_VERSION:
        raise OrchestratorError("unsupported schema version %r" % schema)

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
        _refuse_unknown_keys(extra, "extra test set", ("name", "src", "tgt"))
        for key in ("name", "src", "tgt"):
            if key not in extra:
                raise OrchestratorError("extra test set missing field %r" % key)
        name = extra["name"]
        # The name is a directory under each configuration, so it must be
        # one distinct path component. The combined test source in
        # <cell>/seg/ joins the names with '+', so that name identifies the
        # list of test sets only if no name holds a '+'.
        # It also fills a column of results.tsv, which a tab or a line
        # break would split.
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or os.sep in name or not name.isprintable()):
            raise OrchestratorError("test set name %r is not a plain file name" % (name,))
        if "+" in name:
            raise OrchestratorError("test set name %r contains '+', which joins test set "
                                    "names in the combined test source's file name" % name)
        if any(ts.name == name for ts in test_sets):
            raise OrchestratorError("test set name %r is used twice" % name)
        if name in _CONFIG_DIR_ENTRIES:
            raise OrchestratorError("test set name %r is taken by %s in each configuration "
                                    "directory" % (name, _CONFIG_DIR_ENTRIES[name]))
        test_sets.append(TestSet(name, resolve(extra["src"], "test set %r src" % name),
                                 resolve(extra["tgt"], "test set %r tgt" % name)))

    backend = raw["backend"]
    if isinstance(backend, str):
        backend = {"command": backend}
    if not isinstance(backend, dict) or "command" not in backend:
        raise OrchestratorError("backend must be a command string or an object with a "
                                "'command' template, got %r" % (backend,))
    _refuse_unknown_keys(backend, "backend", ("command", "timeout"))
    if not isinstance(backend["command"], str):
        raise OrchestratorError("backend.command must be a string, got %r"
                                % (backend["command"],))
    _check_backend_template(backend["command"])

    direction = raw["direction"]
    langs = direction.split("-") if isinstance(direction, str) else []
    if len(langs) != 2 or not all(langs):
        raise OrchestratorError("direction must be two language codes like 'en-hi', got %r"
                                % (direction,))
    for lang in langs:
        # A code names each cell's table files (<lang>.<NMO>.bpe).
        if (lang in (".", "..") or "/" in lang or os.sep in lang
                or any(c.isspace() for c in lang) or not lang.isprintable()):
            raise OrchestratorError("direction %r: language code %r is not a plain name"
                                    % (direction, lang))
    if langs[0] == langs[1]:
        raise OrchestratorError(
            "direction %r has one language on both sides; merge tables are named "
            "by language, so its two sides would share one table file" % direction)

    sizes = raw["sizes"]
    if not (isinstance(sizes, list) and sizes and all(_is_int(s) and s > 0 for s in sizes)):
        raise OrchestratorError("sizes must be a non-empty list of positive ints, got %r"
                                % (sizes,))
    if len(set(sizes)) != len(sizes):
        raise OrchestratorError("sizes repeats a value: %r" % (sizes,))

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
    )
    for name in ("train_src", "train_tgt", "valid_src", "valid_tgt"):
        if not os.path.exists(getattr(cfg, name)):
            raise OrchestratorError("%s path does not exist: %s" % (name, getattr(cfg, name)))
    for ts in cfg.test_sets:
        for p in (ts.src, ts.tgt):
            if not os.path.exists(p):
                raise OrchestratorError("test set %r path does not exist: %s" % (ts.name, p))
    return cfg


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
        full = bpe.learn_bpe(iter_lines(sample_path), max(cfg.nmo_set))
    for nmo in cfg.nmo_set:
        path = _table_path(cell_dir, lang, nmo)
        if not os.path.exists(path):
            bpe.MergeTable(full.rules[:nmo]).save(path)
    return full


def _seg_path(cell_dir, split, side, nmo):
    """The segmented file of one split and side at one NMO, shared by every
    configuration of the cell that needs it."""
    return os.path.join(cell_dir, "seg", "%s.%s.%s" % (split, format_nmo(nmo), side))


def _log_tail(path, chars=500) -> str:
    """The last ``chars`` characters of a log file, read from its end."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4 * chars - 3))  # UTF-8: <= 4 bytes a char
        return fh.read().decode("utf-8", "replace").strip()[-chars:]


def _invoke_backend(cfg: ExperimentConfig, paths: dict, log_path):
    """Run the backend once, each placeholder of ``paths`` expanded to one
    shell word, writing its stdout and stderr to ``log_path``."""
    command = cfg.backend_command.format(**{k: shlex.quote(str(v)) for k, v in paths.items()})
    with contextlib.suppress(FileNotFoundError):  # left by an interrupted attempt
        os.remove(paths["hyp_out"])
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(command, shell=True,
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


def _run_path(out, r: RunRecord):
    return os.path.join(out, "size%d" % r.size, "rep%d" % r.rep, r.config_label, r.testset)


def _record_path(run_dir):
    return os.path.join(run_dir, "record.json")


def _save_record(run_dir, record: RunRecord):
    write_json(_record_path(run_dir), record.to_dict())


# The manifest.json entries that a resume must not change: every record and
# artifact on disk was made with them. A manifest that lacks one is not
# compared on it. ``bins`` and ``granularity`` are the sampler's constants,
# not ExperimentConfig fields: they are compared because a directory sampled
# while they were config settings may hold others.
_RESUME_FIELDS = ("direction", "seed", "significance_iterations", "bins", "granularity",
                  "train_src", "train_tgt", "valid_src", "valid_tgt")


def _resumed_test_sets(out, old: dict, new: dict) -> list:
    """The test sets of the manifest ``old`` of ``out``, then the ones that
    only ``new`` names. Refuses a ``_RESUME_FIELDS`` value or a test set
    path that ``new`` changes, naming the field and both values."""
    now = {ts["name"]: ts for ts in new["test_sets"]}
    kept = old["test_sets"]
    diffs = [(key, old[key], new[key]) for key in _RESUME_FIELDS
             if key in old and old[key] != new[key]]
    diffs += [("test set %r %s" % (ts["name"], side), ts[side], now[ts["name"]][side])
              for ts in kept if ts["name"] in now for side in ("src", "tgt")
              if ts[side] != now[ts["name"]][side]]
    if diffs:
        raise OrchestratorError("cannot resume %s with other inputs: %s" % (out, "; ".join(
            "%s is %r in its manifest.json but %r in the config" % d for d in diffs)))
    known = {ts["name"] for ts in kept}
    return kept + [ts for ts in new["test_sets"] if ts["name"] not in known]


def run_sweep(cfg: ExperimentConfig) -> list:
    """Run each pending run of ``cfg``, then evaluate and return every record
    in ``cfg.output_dir``, as ``report --run-dir`` does. The sweep holds the
    directory's lock (``_sweep_lock``) throughout, and refuses records that
    ``_families`` refuses before it writes or runs anything."""
    out = cfg.output_dir
    settings = {**vars(cfg), "bins": list(sampler.BOUNDARIES), "granularity": sampler.GRANULARITY}
    manifest = {
        "schema": SCHEMA_VERSION,
        **{key: settings[key] for key in _RESUME_FIELDS + ("sizes", "nmo_set", "repetitions")},
        "planned_runs": cfg.planned_runs(),
        "test_sets": [asdict(ts) for ts in cfg.test_sets],
        "assumptions": [
            "validation data is segmented with the same per-configuration "
            "merge tables as training data",
            "each side learns one table at max(nmo_set); smaller tables are its prefixes; "
            "each side encodes every word once at max(nmo_set) and snapshots each smaller NMO",
            "the backend runs once per configuration over all test sets in config order, "
            "writes one {hyp_out} line per {test_src} line, and must not modify the shared "
            "<cell>/seg/ inputs"],
    }
    with _sweep_lock(out):
        if os.path.exists(os.path.join(out, "manifest.json")):
            manifest["test_sets"] = _resumed_test_sets(out, _read_manifest(out), manifest)
        # Refusals come before anything is written or run.
        lengths = _test_set_lengths(cfg)
        records = collect_records(out)
        _families(records)
        finished = {_run_path(out, r) for r in records if r.status != "pending"}
        pending = {}  # (size, rep, src NMO, tgt NMO) -> {test set: run}
        for size in cfg.sizes:
            for rep in range(cfg.repetitions):
                for src, tgt in enumerate_grid(cfg.nmo_set):
                    for ts in cfg.test_sets:
                        run = RunRecord(config_label=config_label(src, tgt), src_nmo=src,
                                        tgt_nmo=tgt, direction=cfg.direction,
                                        size=size, rep=rep, testset=ts.name,
                                        seed=cfg.seed + rep)
                        if _run_path(out, run) not in finished:
                            pending.setdefault((size, rep, src, tgt), {})[ts.name] = run
        cells = dict.fromkeys(key[:2] for key in pending)
        # The corpus is binned once, and only if a cell lacks its sample.
        unsampled = [size for size, rep in cells
                     if not all(map(os.path.exists, _sample_files(_cell_dir(cfg, size, rep))))]
        histogram = sampler.bin_files(cfg.train_src, cfg.train_tgt) if unsampled else None
        for size in unsampled:
            sampler.quotas(histogram.counts, size)
        write_json(os.path.join(out, "manifest.json"), manifest)

        # Every cell is complete before any backend starts: runs need no locks.
        _prepare_cells(cfg, cells, histogram)
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(lambda records: _run_config(cfg, lengths, records),
                          pending.values()))
        return evaluate(out, collect_records(out))


@contextlib.contextmanager
def _sweep_lock(out):
    """Hold the lock of the sweep output directory ``out`` (created if
    missing): an exclusive ``fcntl.flock`` on ``out/sweep.lock``, which
    records the holder's pid. A directory that another sweep holds is
    refused, naming the lock file and its pid. The kernel drops a lock when
    its holder exits, so the file a killed sweep leaves blocks no resume;
    the file is removed on release, so a finished directory holds none."""
    path = os.path.join(out, _LOCK_FILE)
    os.makedirs(out, exist_ok=True)
    while True:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 32).decode("ascii", "replace").strip()
            os.close(fd)
            raise OrchestratorError("%s is in use by another sweep: %s is locked%s" % (
                out, path, " by pid %s" % holder if holder else "")) from None
        # A holder that released in between removed the file it locked:
        # lock the file now at the path instead.
        with contextlib.suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        os.close(fd)
    try:
        os.ftruncate(fd, 0)  # a killed holder's pid
        os.write(fd, b"%d\n" % os.getpid())
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)  # while still locked, so no other sweep locks this file
        os.close(fd)


def _test_set_lengths(cfg) -> list:
    """The source line count of each test set, in config order. A test set
    whose reference count differs, or that has no lines, is refused."""
    lengths = []
    for ts in cfg.test_sets:
        n_src, n_ref = (sum(1 for _ in iter_lines(path)) for path in (ts.src, ts.tgt))
        if n_src != n_ref or not n_src:
            raise OrchestratorError("test set %r has %d source lines and %d references; it "
                                    "needs one reference per source line, and at least one"
                                    % (ts.name, n_src, n_ref))
        lengths.append(n_src)
    return lengths


def _cell_dir(cfg, size, rep):
    return os.path.join(cfg.output_dir, "size%d" % size, "rep%d" % rep)


def _sample_files(cell_dir) -> tuple:
    """A cell's two sample files. ``sampler.write_sample`` writes them last,
    so the sample is complete once both exist."""
    sample = os.path.join(cell_dir, "sample", "train.")
    return sample + "src", sample + "tgt"


def _cell_inputs(cfg, cell_dir) -> dict:
    """Backend placeholder -> split, side and raw files of its segmented input;
    {test_src} joins every test set's source lines, named after their list."""
    s_src, s_tgt = _sample_files(cell_dir)
    return {"train_src": ("train", "src", [s_src]),
            "train_tgt": ("train", "tgt", [s_tgt]),
            "valid_src": ("valid", "src", [cfg.valid_src]),
            "valid_tgt": ("valid", "tgt", [cfg.valid_tgt]),
            "test_src": ("test-" + "+".join(ts.name for ts in cfg.test_sets), "src",
                         [ts.src for ts in cfg.test_sets])}


def _prepare_cells(cfg, cells, histogram):
    """Complete the sample, merge tables and segmented files of each (size,
    rep) of ``cells``, drawing a missing sample from ``histogram``, the
    training corpus's ``sampler.bin_files``."""
    for size, rep in cells:
        cell_dir = _cell_dir(cfg, size, rep)
        inputs = _cell_inputs(cfg, cell_dir)
        s_src, s_tgt = _sample_files(cell_dir)
        if not (os.path.exists(s_src) and os.path.exists(s_tgt)):
            sampler.write_sample(histogram, size, cfg.seed + rep, (cfg.train_src, cfg.train_tgt),
                                 (s_src, s_tgt),
                                 os.path.join(cell_dir, "sample", "manifest.json"))
        tables = {"src": _cell_tables(cfg, cell_dir, cfg.src_lang, s_src),
                  "tgt": _cell_tables(cfg, cell_dir, cfg.tgt_lang, s_tgt)}
        for split, side, raw in inputs.values():
            nmos = [nmo for nmo in cfg.nmo_set
                    if not os.path.exists(_seg_path(cell_dir, split, side, nmo))]
            if nmos:
                lines = (line for path in raw for line in iter_lines(path))
                write_columns([_seg_path(cell_dir, split, side, nmo) for nmo in nmos],
                              bpe.segment_lines(tables[side], lines, nmos))


def _run_config(cfg, lengths: list, records: dict):
    """Run the backend once for ``records``, the pending runs of one cell and
    configuration by test set name, on the test sources of every test set
    (``lengths`` holds their source line counts, in config order), and save
    each record with its test set's slice of the hypothesis, unscored."""
    first = next(iter(records.values()))
    config_dir = os.path.dirname(_run_path(cfg.output_dir, first))
    cell_dir = os.path.dirname(config_dir)
    started = int(time.time())
    nmo = {"src": first.src_nmo, "tgt": first.tgt_nmo}
    paths = {name: _seg_path(cell_dir, split, side, nmo[side])
             for name, (split, side, _) in _cell_inputs(cfg, cell_dir).items()}
    paths.update(model_dir=os.path.join(config_dir, _MODEL_DIR),
                 hyp_out=os.path.join(config_dir, _HYP_OUT), config=first.config_label)
    hyps, backend_error = [], None
    try:
        os.makedirs(paths["model_dir"], exist_ok=True)
        _invoke_backend(cfg, paths, os.path.join(config_dir, _BACKEND_LOG))
        hyps = read_lines(paths["hyp_out"])
        expected = sum(lengths)
        if len(hyps) != expected:
            raise OrchestratorError("hypothesis line count %d does not match the %d lines "
                                    "of the test sources" % (len(hyps), expected))
    except (OrchestratorError, TextFileError, OSError) as exc:
        backend_error = str(exc)  # fails every pending test set of the configuration

    end = 0
    for testset, n_src in zip(cfg.test_sets, lengths):
        start, end = end, end + n_src
        record = records.get(testset.name)
        if record is None:
            continue
        run_dir = os.path.join(config_dir, testset.name)
        reason = backend_error
        if reason is None:
            try:  # hyp.detok.txt, which evaluate scores
                write_lines(os.path.join(run_dir, "hyp.detok.txt"),
                            [bpe.unsegment(line) for line in hyps[start:end]])
            except (bpe.BpeError, OSError) as exc:
                reason = str(exc)
        record.status, record.failure_reason = ("failed", reason) if reason else ("done", None)
        record.started, record.finished = started, int(time.time())
        _save_record(run_dir, record)


def _read_manifest(run_dir) -> dict:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(path):
        raise OrchestratorError("not a sweep output directory (no manifest.json): %s" % run_dir)
    manifest = _read_json(path)
    sets = manifest.get("test_sets") if isinstance(manifest, dict) else None
    if not (isinstance(sets, list) and _is_int(manifest.get("significance_iterations"))
            and all(isinstance(ts, dict) and all(isinstance(ts.get(key), str)
                                                 for key in ("name", "src", "tgt"))
                    for ts in sets)):
        raise OrchestratorError("%s is not a sweep manifest: it needs a JSON object with an "
                                "int significance_iterations and a test_sets list of objects "
                                "with string name, src and tgt" % path)
    return manifest


def _families(records) -> dict:
    """(direction, size, repetition, test set) -> {configuration label:
    record} of ``records``, in key order. Two records of one run are
    refused, and so is a family whose records hold two seeds."""
    families = {}
    for r in sorted(records, key=lambda r: (r.direction, r.size, r.rep, r.testset)):
        family = families.setdefault((r.direction, r.size, r.rep, r.testset), {})
        if r.config_label in family:
            raise OrchestratorError("two records for one run: direction %s, size %d, rep %d, "
                                    "test set %s, configuration %s" % (
                                        r.direction, r.size, r.rep, r.testset, r.config_label))
        family[r.config_label] = r
    for (_, size, rep, testset), family in families.items():
        seeds = sorted({r.seed for r in family.values()})
        if len(seeds) > 1:
            raise OrchestratorError("size %d, rep %d, test set %s: records of seeds %d and %d"
                                    % (size, rep, testset, seeds[0], seeds[-1]))
    return families


def evaluate(run_dir, records) -> list:
    """Score each unscored done record of the sweep output directory
    ``run_dir``, and test each without a p-value against its family's
    baseline, in place; save each changed record once and return ``records``.
    Records that ``_families`` refuses are refused before any is scored."""
    manifest = _read_manifest(run_dir)
    ref_paths = {ts["name"]: ts["tgt"] for ts in manifest["test_sets"]}
    families, refs = _families(records), {}

    def statistics(r, stats):
        if r.config_label not in stats:
            if r.testset not in refs:
                if r.testset not in ref_paths:
                    raise OrchestratorError("%s names no test set %r in manifest.json"
                                            % (run_dir, r.testset))
                refs[r.testset] = read_lines(ref_paths[r.testset])
            stats[r.config_label] = chrf.stats_matrix(
                iter_lines(os.path.join(_run_path(run_dir, r), "hyp.detok.txt")), refs[r.testset])
        return stats[r.config_label]

    # A family's baseline is its best symmetric member (rank_key), as in its tiers.
    for family in families.values():
        done = [r for r in family.values() if r.status == "done"]
        stats, unscored = {}, [r for r in done if r.chrf is None]
        for r in unscored:
            r.chrf = round(chrf.corpus_chrf(statistics(r, stats)), 6)
        base = min((r for r in done if r.src_nmo == r.tgt_nmo), default=None,
                   key=lambda r: rank_key(r.chrf, r.src_nmo, r.tgt_nmo))
        untested = [r for r in done if base and (r.p_vs_baseline is None
                                                 or r.baseline != base.config_label)]
        if untested:
            results = chrf.paired_significance_stats(
                [statistics(r, stats) for r in untested], statistics(base, stats),
                iterations=manifest["significance_iterations"], seed=base.seed)
            for r, result in zip(untested, results):
                r.p_vs_baseline, r.baseline = round(result.p_value, 6), base.config_label
        for r in {r.config_label: r for r in unscored + untested}.values():
            _save_record(_run_path(run_dir, r), r)
    return records


def _report_order(r: RunRecord):
    """Direction, size, repetition, source NMO, target NMO, test set name."""
    return r.direction, r.size, r.rep, r.src_nmo, r.tgt_nmo, r.testset


def collect_records(run_dir) -> list:
    """Load every persisted RunRecord under a sweep output directory, in
    ``_report_order``."""
    return sorted((_read_json(_record_path(root), RunRecord.from_dict)
                   for root, _dirs, files in os.walk(run_dir) if "record.json" in files),
                  key=_report_order)


def emit_report(records, out_dir) -> dict:
    """Write results.tsv, per-cell tier reports, the per-source-NMO maximum
    trace, and a repetition-averaged summary. Returns the artifact paths.
    Rows follow ``_report_order``; records that ``_families`` refuses, and a
    done record without a score, write no file.

    ``asymbpe sweep`` and ``asymbpe report`` both report through here the
    records ``evaluate`` returned, from their own scores (results.tsv rounds
    them to 2 decimals), and ``tier_report`` orders them as ``evaluate``
    does: each cell's tables in ``tiers/`` name as Baseline the
    configuration its records' p-values were measured against. Each file is
    replaced atomically by ``write_lines``."""
    records = sorted(records, key=_report_order)
    families = _families(records)
    for r in records:
        if r.status == "done" and r.chrf is None:
            raise OrchestratorError(
                "done record without a score: direction %s, size %d, rep %d, test set %s, "
                "configuration %s; score it with evaluate or report --run-dir" % (
                    r.direction, r.size, r.rep, r.testset, r.config_label))
    if not any(r.status == "done" for r in records):
        raise OrchestratorError("no completed records to report")

    results_path = os.path.join(out_dir, "results.tsv")
    lines = ["\t".join(RESULTS_COLUMNS)]
    for r in records:
        lines.append("\t".join([
            r.config_label, str(r.src_nmo), str(r.tgt_nmo), r.direction,
            str(r.size), str(r.rep), r.testset,
            "%.2f" % r.chrf if r.chrf is not None else "",
            "%.4f" % r.p_vs_baseline if r.p_vs_baseline is not None else "",
            r.status]))
    write_lines(results_path, lines)

    artifacts = {"results": results_path, "tiers": [],
                 "max_trace": os.path.join(out_dir, "src_nmo_max.tsv"),
                 "summary": os.path.join(out_dir, "summary.tsv")}
    max_lines = ["direction\tsize\trep\ttestset\tsrc_nmo\tmax_chrf\tbest_config"]
    scores = {}  # (direction, size, test set, src NMO, tgt NMO, label) -> scores by rep
    for (direction, size, rep, testset), family in families.items():
        cell = [r for r in family.values() if r.status == "done"]
        # Stepped-maximum trace: best score per source NMO within each cell.
        per_src = {}
        for r in cell:
            per_src.setdefault(r.src_nmo, []).append(r)
            scores.setdefault((direction, size, testset, r.src_nmo, r.tgt_nmo, r.config_label),
                              []).append(r.chrf)
        for src_nmo in sorted(per_src):
            best = min(per_src[src_nmo], key=lambda r: rank_key(r.chrf, r.src_nmo, r.tgt_nmo))
            max_lines.append("%s\t%d\t%d\t%s\t%d\t%.2f\t%s" % (
                direction, size, rep, testset, src_nmo, best.chrf, best.config_label))
        try:
            tiers = tier_report((r.src_nmo, r.tgt_nmo, r.chrf, r.p_vs_baseline) for r in cell)
        except SweepError:
            continue  # not enough coverage for tiers in this cell
        stem = "%s_size%d_rep%d_%s" % (direction, size, rep, testset)
        tsv_path = os.path.join(out_dir, "tiers", stem + ".tsv")
        write_lines(tsv_path, render_tier_tsv(tiers))
        write_lines(os.path.join(out_dir, "tiers", stem + ".txt"), render_tier_text(tiers))
        artifacts["tiers"].append(tsv_path)
    write_lines(artifacts["max_trace"], max_lines)

    # Mean corpus score per configuration across repetitions.
    lines = ["direction\tsize\ttestset\tconfig\tmean_chrf\trepetitions"]
    for (direction, size, testset, _, _, label), values in sorted(scores.items()):
        lines.append("%s\t%d\t%s\t%s\t%.2f\t%d" % (
            direction, size, testset, label, sum(values) / len(values), len(values)))
    write_lines(artifacts["summary"], lines)
    return artifacts
