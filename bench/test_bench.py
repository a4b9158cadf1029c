"""Self-test of the benchmark's own parts.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys
import threading
import time

import checks
import corpus
import mt_backend
import tracer as tracing

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from asymbpe import sampler  # noqa: E402


def test_self_times_per_thread_with_two_threads():
    tr = tracing.Tracer("selftest")
    both_open = threading.Barrier(2)

    def work():
        with tr.span("outer"):
            both_open.wait(timeout=5)
            time.sleep(0.02)
            with tr.span("inner"):
                time.sleep(0.03)
            both_open.wait(timeout=5)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s.id: s for s in tr.spans}
    own = tracing.self_times(tr.spans)
    assert len(tr.spans) == 4
    for s in tr.spans:
        assert own[s.id] >= 0
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert own[parent.id] == parent.duration - s.duration
        else:
            assert s.parent is None


def test_self_time_and_uncovered_arithmetic():
    S = tracing.Span
    spans = [S(0, "root", 0.0, 10.0, None, 1, "r"),
             S(1, "a", 1.0, 4.0, 0, 1, "r"),
             S(2, "b", 2.0, 3.0, 1, 1, "r"),
             S(3, "c", 3.5, 6.0, None, 2, "r"),   # another thread, overlaps "a"
             S(4, "d", 8.0, 9.0, 0, 1, "r")]
    own = tracing.self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0}
    # Union of a, b, c, d inside root is [1, 6] + [8, 9] = 6.
    assert tracing.uncovered_time(spans[0], spans) == 4.0


def test_wrap_counts_calls_and_restores():
    class Module:
        @staticmethod
        def f(x):
            return x * 2

    tr = tracing.Tracer("selftest")
    tr.wrap(Module, "f", "mod.f", lambda a, k, r: tr.add("mod.f.sum", r))
    assert Module.f(3) == 6 and Module.f(4) == 8
    assert [s.name for s in tr.spans] == ["mod.f", "mod.f"]
    assert tr.counters["mod.f.sum"] == 14
    tr.unwrap_all()
    Module.f(5)
    assert len(tr.spans) == 2


def _read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic_and_fills_every_bin(tmp_path):
    splits = {"pool": 400, "test": 20}
    systems = {"sys": ("test", 0.2)}
    corpus.generate(tmp_path / "a", 7, 500, splits, systems)
    corpus.generate(tmp_path / "b", 7, 500, splits, systems)
    corpus.generate(tmp_path / "c", 8, 500, splits, systems)
    a, b, c = (_read_all(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    src = a["pool.en"].decode("utf-8").splitlines()
    tgt = a["pool.hi"].decode("utf-8").splitlines()
    assert len(src) == len(tgt) == 400
    assert any("ऀ" <= ch <= "ॿ" for ch in tgt[0])
    histogram = sampler.bin_histogram(src, tgt)
    assert all(count > 0 for count in histogram.counts), histogram.to_dict()


def test_backend_translates_by_position_and_is_deterministic(tmp_path):
    paths = {}
    for name, lines in (("train_src", ["a@@ b c", "a@@ b d"]),
                        ("train_tgt", ["x@@ y z", "x@@ y w"]),
                        ("test_src", ["c a@@ b", "d unknown"])):
        paths[name] = str(tmp_path / name)
        corpus.write_lines(paths[name], lines)
    for out in ("hyp1", "hyp2"):
        assert mt_backend.main([paths["train_src"], paths["train_tgt"], paths["test_src"],
                                str(tmp_path / out)]) == 0
    hyp = (tmp_path / "hyp1").read_text(encoding="utf-8")
    assert hyp == "z x@@ y\nw\n"
    assert hyp == (tmp_path / "hyp2").read_text(encoding="utf-8")


def _fake_sweep(root, chrf=41.5, started=1.0, artifacts="/somewhere"):
    cell = root / "size100" / "rep0"
    (cell / "tables").mkdir(parents=True)
    (cell / "tables" / "en.500.bpe").write_text("#asym-bpe v1\na b\n", encoding="utf-8")
    (cell / "tables" / "en.1K.bpe").write_text("#asym-bpe v1\na b\nab c\n", encoding="utf-8")
    (root / "results.tsv").write_text("config\tchrf\n500_500\t41.50\n", encoding="utf-8")
    (root / "tiers").mkdir()
    (root / "tiers" / "t.tsv").write_text("tier\n", encoding="utf-8")
    run = cell / "500_500" / "test"
    run.mkdir(parents=True)
    record = {"config_label": "500_500", "size": 100, "rep": 0, "testset": "test",
              "status": "done", "chrf": chrf, "p_vs_baseline": 1.0,
              "started": started, "finished": started + 1, "artifacts": {"src": artifacts}}
    (run / "record.json").write_text(json.dumps(record), encoding="utf-8")


def test_digest_is_stable_and_ignores_timestamps_and_paths(tmp_path):
    for name, kwargs in (("a", {}), ("b", {"started": 99.0, "artifacts": "/elsewhere"}),
                         ("c", {"chrf": 41.6})):
        _fake_sweep(tmp_path / name, **kwargs)
    a, b, c = (checks.sweep_digest(tmp_path / d) for d in "abc")
    # A change to this constant changes what every golden digest means.
    assert a == "712edd05643dc21a71facbe22a50e16c0d21ec789293b4f0fb8a5791ab20ec4a"
    assert a == b
    assert a != c
    assert checks.prefix_violations(tmp_path / "a") == []
    (tmp_path / "a" / "size100" / "rep0" / "tables" / "en.1K.bpe").write_text(
        "#asym-bpe v1\nab c\na b\n", encoding="utf-8")
    assert checks.prefix_violations(tmp_path / "a")
