"""The benchmark's one-round outputs stay byte-identical: the digests that
`bench/run.py --seed 1 --seconds 0.001` prints, one round of each
workload (the first train round, one pass over the parse sample, the
first eval round of five pairs), and the outputs of the first five train
rounds, whose longer oracle sequences hold more one-action steps."""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")

ROUND_DIGESTS = {
    "train": "84c0cb16e9df8346",
    "parse": "b301c420cd8ab812",
    "eval": "86673b782e574185",
}


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(ROUND_DIGESTS))
def test_one_round_digest_is_unchanged(workloads, tmp_path, name):
    w = workloads.WORKLOADS[name](1, str(tmp_path))
    w.setup()
    units = {"train": lambda: w.rounds[:1], "parse": lambda: w.schedule,
             "eval": lambda: w.pairs[:5]}[name]()
    assert units[-1].ends_round and not any(u.ends_round for u in units[:-1])
    done = [w.run(u) for u in units]
    assert w.check(done).problems == []
    assert workloads.digest(d.output for d in done) == ROUND_DIGESTS[name]


# digest of the models of train rounds 0-4 of seed 1, in order
FIVE_TRAIN_ROUNDS_DIGEST = "38ffc010d7dae5f3"


def test_five_train_rounds_digest_is_unchanged(workloads, tmp_path):
    w = workloads.WORKLOADS["train"](1, str(tmp_path))
    w.setup()
    done = [w.run(u) for u in w.rounds[:5]]
    assert w.check(done).problems == []
    assert workloads.digest(d.output for d in done) == FIVE_TRAIN_ROUNDS_DIGEST
