"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import corpus
import run
from layers import per_layer_specs
from spans import Recorder
from ulfparse import cli
from workloads import Done, Unit, completed, stratified_rounds

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_corpus_is_deterministic_and_valid(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path, seed in zip(paths, (11, 11, 12)):
        corpus.write_jsonl(corpus.generate(seed), path)
    a, b, c = (path.read_bytes() for path in paths)
    assert a == b and a != c
    records = cli.ingest(paths[0])     # record_from_obj on every line
    assert len(records) == corpus.CORPUS_SIZE
    for rec in records:
        rec.gold_graph.validate()
        heads = [h for h, _ in rec.deps]
        assert heads.count(0) == 1


def test_corpus_covers_the_oracle_paths():
    text = "\n".join(o["ulf"] for o in corpus.generate(3, 400))
    for needle in ("|New York|", "(pres ", "(past ", "(plur ", "(adv-a ",
                   "(n+preds ", "mod-n", "{you}.pro", "(tht ", "(to "):
        assert needle in text


def test_perturbation_keeps_a_tree():
    rng = random.Random(4)
    for obj in corpus.generate(5, 200):
        gold = cli.record_from_obj(obj).gold_graph
        cand = corpus.perturb(gold, rng)
        assert len(cand.vertices) == len(gold.vertices)
        assert len(cand.edges) == len(gold.edges)
        parents = [d for _, d, _ in cand.edges]
        assert len(set(parents)) == len(parents) and gold.root not in parents
        reached, todo = {cand.root}, [cand.root]
        while todo:
            v = todo.pop()
            for src, dst, _ in cand.edges:
                if src == v and dst not in reached:
                    reached.add(dst)
                    todo.append(dst)
        assert len(reached) == len(cand.vertices)


def test_self_times_on_a_hand_built_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    root = rec.begin("root")          # 0 .. 10
    a = rec.begin("a")                # 1 .. 4
    a1 = rec.begin("a1")              # 2 .. 3
    rec.finish(a1)
    rec.finish(a)
    b = rec.begin("b")                # 5 .. 9
    rec.finish(b)
    rec.finish(root)
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert sum(rec.self_times()) == 10.0    # the root span's duration
    assert rec.by_name()["a"] == (1, 2.0)


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer_specs()


def test_stratified_rounds_take_one_per_stratum():
    rounds = stratified_rounds(list(range(100)), lambda x: x, 4, random.Random(0))
    assert len(rounds) == 25
    for rnd in rounds:
        assert [x // 25 for x in rnd] == [0, 1, 2, 3]


def test_tail_percentile_leaves_ten_distinct_sentences_beyond():
    assert run.tail([(1.0, i) for i in range(10)]) is None
    pct, value = run.tail([(float(i), i) for i in range(1, 41)])
    assert pct == 75 and value == 30.0
    # 8 sentences decoded twice: never 10 distinct sentences beyond
    assert run.tail([(float(i), i % 8) for i in range(16)]) is None
    # 20 sentences decoded twice each, equal times: p52 leaves 19 decodes
    # of 10 sentences beyond it, p53 18 decodes of 9
    pct, value = run.tail([(float(i // 2), i // 2) for i in range(40)])
    assert pct == 52 and value == 10.0


def test_reference_seconds_scale_by_the_probes_in_the_piece():
    probe = run.SpeedProbe()
    probe.samples = [run.PROBE_S, 2 * run.PROBE_S, 4 * run.PROBE_S]
    # probes at reference speed and at half of it: mean of 1 and 1/2
    assert probe.reference(2.0, probe.samples[:2]) == pytest.approx(1.5)
    # a piece with no probe in it takes the mean of all: (1 + 1/2 + 1/4) / 3
    assert probe.reference(3.0, []) == pytest.approx(1.75)


class _Raising:
    def units(self):
        return iter([Unit("u0", None, 3), Unit("u1", None, 3)])

    def run(self, unit):
        raise RuntimeError("boom")


def test_a_unit_that_raises_counts_as_failed_items():
    done, _ = run.closed_loop(_Raising(), seconds=60)
    assert [(d.failed, d.extra) for d in done] == [(3, None), (3, None)]
    assert completed(done) == []


class _Rounds:
    def units(self):
        while True:
            yield from (Unit("a", None, 1, False), Unit("b", None, 1, True))

    def run(self, unit):
        return Done(unit, unit.id, 0, unit)


def test_runs_stop_only_at_round_ends():
    done, _ = run.closed_loop(_Rounds(), seconds=0)
    assert [d.output for d in done] == ["a", "b"]


def _run(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.001", "--trace", "0"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["train", "parse", "eval"])
def test_same_seed_prints_same_digest(workload):
    outs = [_run(workload, 2) for _ in range(2)]
    digests = []
    for p in outs:
        assert p.returncode == 0, p.stderr
        result = json.loads(p.stdout.splitlines()[-1])
        assert result["correct"] and result["attempted"] >= 1
        digests.append([ln for ln in p.stdout.splitlines() if ln.startswith("digest")])
    assert digests[0] == digests[1] and digests[0]


def test_fails_without_the_package(tmp_path):
    """A directory with only BENCHMARK.json and bench/ has no src/ to run."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "correct" not in p.stdout
