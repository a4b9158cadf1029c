"""Output checks and golden digests for the benchmark workloads.

These read only files the program leaves on disk, so they keep working when
the program's internals change. Digests exclude timestamps and absolute
paths: a digest depends on the workload's inputs and on nothing else.
"""

import hashlib
import json
import os


def _files(root, predicate):
    found = []
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            if predicate(os.path.relpath(path, root).replace(os.sep, "/")):
                found.append(path)
    return sorted(found, key=lambda p: os.path.relpath(p, root).replace(os.sep, "/"))


def _update_file(h, root, path):
    h.update(os.path.relpath(path, root).replace(os.sep, "/").encode("utf-8") + b"\0")
    with open(path, "rb") as fh:
        h.update(fh.read())
    h.update(b"\0")


def load_records(out_dir) -> list:
    """Every ``record.json`` under a sweep output, with the run directory."""
    records = []
    for path in _files(out_dir, lambda rel: rel.endswith("/record.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        rec["_run_dir"] = os.path.dirname(path)
        records.append(rec)
    return records


def record_scores(records) -> list:
    """The persisted scores of each run, keyed by run, in a stable order."""
    return sorted((r["size"], r["rep"], r["testset"], r["config_label"], r["status"],
                   repr(r["chrf"]), repr(r["p_vs_baseline"])) for r in records)


def sweep_digest(out_dir) -> str:
    """sha256 over merge tables, ``results.tsv``, tier files and each
    record's ``chrf`` and ``p_vs_baseline``."""
    h = hashlib.sha256()
    for path in _files(out_dir, lambda rel: rel.endswith(".bpe") and "/tables/" in rel):
        _update_file(h, out_dir, path)
    _update_file(h, out_dir, os.path.join(out_dir, "results.tsv"))
    for path in _files(out_dir, lambda rel: rel.startswith("tiers/")):
        _update_file(h, out_dir, path)
    for row in record_scores(load_records(out_dir)):
        h.update(("\t".join(map(str, row)) + "\n").encode("utf-8"))
    return h.hexdigest()


def files_digest(root, paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        _update_file(h, root, path)
    return h.hexdigest()


def _rule_lines(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def prefix_violations(out_dir) -> list:
    """Each side's smaller merge tables must be prefixes of its larger ones."""
    problems = []
    by_side = {}
    for path in _files(out_dir, lambda rel: rel.endswith(".bpe") and "/tables/" in rel):
        side = os.path.basename(path).split(".")[0]
        by_side.setdefault((os.path.dirname(path), side), []).append(_rule_lines(path))
    for (tables_dir, side), tables in sorted(by_side.items()):
        tables.sort(key=len)
        for small, large in zip(tables, tables[1:]):
            if large[:len(small)] != small:
                problems.append("%s tables in %s break the prefix property"
                                % (side, os.path.relpath(tables_dir, out_dir)))
                break
    return problems


def cell_violations(records) -> list:
    """Every (cell, test set) needs two distinct hypotheses and a p-value below 1."""
    problems = []
    cells = {}
    for r in records:
        if r["status"] == "done":
            cells.setdefault((r["size"], r["rep"], r["testset"]), []).append(r)
    for (size, rep, testset), cell in sorted(cells.items()):
        hyps = set()
        for r in cell:
            with open(os.path.join(r["_run_dir"], "hyp.detok.txt"), "rb") as fh:
                hyps.add(hashlib.sha256(fh.read()).hexdigest())
        if len(hyps) < 2:
            problems.append("size%d rep%d %s: all %d hypotheses are identical"
                            % (size, rep, testset, len(cell)))
        if not any(r["p_vs_baseline"] is not None and r["p_vs_baseline"] < 1 for r in cell):
            problems.append("size%d rep%d %s: no p-value below 1" % (size, rep, testset))
    return problems


def disk_bytes(root) -> int:
    return sum(os.path.getsize(p) for p in _files(root, lambda rel: True))
