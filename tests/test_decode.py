import builtins
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulfparse import decode as dec
from ulfparse import machine as tm
from ulfparse.cli import load_mini_corpus
from ulfparse.core import Sentence, graph_to_tree, graphs_equal, parse_sexpr, render_sexpr
from ulfparse.oracle import extract_with_alignment
from ulfparse.typesys import Lexicon, TypeGrammar, check_arc, lexicon_filter, type_of

from reference_train import reference_train


@pytest.fixture(scope="module")
def corpus_items():
    items = []
    for rec in load_mini_corpus():
        actions, _ = extract_with_alignment(rec.sentence, rec.gold_graph)
        items.append((rec, actions))
    return items


@pytest.fixture(scope="module")
def trained(corpus_items):
    items = [(rec.sentence, rec.deps, acts) for rec, acts in corpus_items]
    model, machine = dec.train_perceptron(items, epochs=10, seed=0)
    return model, machine


# -- features -----------------------------------------------------------------

def test_features_fresh_config():
    m = tm.Machine()
    c = m.init(Sentence.make(["Run"], ["run"], ["VB"]))
    feats = dec.extract_features(c)
    assert "phase=GEN" in feats
    assert "buf.w=run" in feats
    assert "c1.sym=<none>" in feats


def test_features_arc_distances():
    m = tm.Machine()
    s = Sentence.make(["a", "b"])
    c = m.init(s)
    for a in ["WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:0", "NOARC", "NOPROMOTE",
              "NOPOP", "WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:1"]:
        c = m.apply(c, a)
    c = m.apply(c, "NOARC")
    assert c.phase == tm.PROMOTE
    feats = dec.extract_features(c, dep=[(2, "x"), (0, "root")])
    assert "dist.sym=1" in feats
    assert "dist.word=1" in feats
    assert "dist.dep=1" in feats


def test_features_promotearc_uses_promoted_vertex():
    m = tm.Machine()
    c = m.init(Sentence.make(["shoes"], ["shoe"], ["NNS"]))
    for a in ["WORDGEN", "LEMMA", "SUFFIX:n", "PUSHIDX:1", "NOARC",
              "PROMOTE_SYM:plur"]:
        c = m.apply(c, a)
    assert c.phase == tm.PROMOTEARC
    feats = dec.extract_features(c)
    assert "c1.sym=plur" in feats


# -- perceptron ---------------------------------------------------------------

def test_train_memorizes_one_sentence(corpus_items):
    rec, actions = corpus_items[0]
    model, machine = dec.train_perceptron(
        [(rec.sentence, rec.deps, actions)], epochs=10, seed=0)
    res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                          beam_size=1, dep=rec.deps)
    assert res.actions == list(actions)
    assert graphs_equal(res.fragments[0], rec.gold_graph)


def test_two_seeds_both_memorize(corpus_items):
    rec, actions = corpus_items[0]
    for seed in (1, 2):
        model, machine = dec.train_perceptron(
            [(rec.sentence, rec.deps, actions)], epochs=10, seed=seed)
        res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model),
                              machine, beam_size=1, dep=rec.deps)
        assert res.actions == list(actions)


def test_zero_epochs_uniform_and_deterministic(corpus_items):
    rec, actions = corpus_items[0]
    model, machine = dec.train_perceptron(
        [(rec.sentence, rec.deps, actions)], epochs=0, seed=0)
    assert model.updates == 0
    r1 = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                         beam_size=1, cap=60)
    r2 = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                         beam_size=1, cap=60)
    assert r1.actions == r2.actions  # tie-break order, reproducible


def test_train_empty_corpus_rejected():
    with pytest.raises(ValueError):
        dec.train_perceptron([], epochs=1, seed=0)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_step_table_training_equals_reference(corpus_items, seed):
    # extracting each step once per run leaves the model byte-identical to
    # the loop that extracts it every epoch: the whole mini corpus, then
    # seeded subsets, one to four epochs
    items = [(rec.sentence, rec.deps, acts) for rec, acts in corpus_items]
    rng = np.random.default_rng(seed)
    subsets = [items] + [[items[i] for i in sorted(rng.choice(len(items), k, replace=False))]
                         for k in (1, 3, 8)]
    gold_actions = {a for _, _, acts in items for a in acts}
    rivals_added = False
    for epochs, subset in zip((1, 2, 3, 4), subsets):
        model, machine = dec.train_perceptron(subset, epochs=epochs, seed=seed)
        ref, ref_machine = reference_train(subset, epochs=epochs, seed=seed)
        assert model.to_json() == ref.to_json()
        assert model.updates == ref.updates
        assert (machine.suffixes, machine.symgen_vocab, machine.promote_syms,
                machine.max_wordless_run) == (ref_machine.suffixes, ref_machine.symgen_vocab,
                                              ref_machine.promote_syms,
                                              ref_machine.max_wordless_run)
        rivals_added |= not set(model.actions) <= gold_actions
    # some update's rival is an action no gold sequence takes
    assert rivals_added
    # an open-vocabulary machine, whose menus gain each parameterized gold action
    model, _ = dec.train_perceptron(items[:5], epochs=2, seed=seed, machine=tm.Machine())
    ref, _ = reference_train(items[:5], epochs=2, seed=seed, machine=tm.Machine())
    assert model.to_json() == ref.to_json()


def _multi_action_steps(machine, items):
    """Each item's replayed steps whose menu (the concrete legal actions,
    then the gold action if they lack it) holds two or more actions, as
    (configuration, menu, gold index)."""
    per_item = []
    for sentence, dep, acts in items:
        c, steps = machine.init(sentence), []
        for gold in acts:
            menu = dec._concrete_candidates(machine, c)
            if gold not in menu:
                menu.append(gold)
            if len(menu) > 1:
                steps.append((c, tuple(menu), menu.index(gold)))
            c = machine.apply(c, gold)
        per_item.append(steps)
    return per_item


@pytest.mark.parametrize("open_vocabulary", [False, True])
def test_step_table_layout(corpus_items, open_vocabulary):
    # the table stores exactly the replay's multi-action steps, with their
    # buckets, menus and gold indices; a one-action step cannot update
    items = [(rec.sentence, rec.deps, acts) for rec, acts in corpus_items[:4]]
    machine = tm.Machine() if open_vocabulary else \
        dec.machine_from_actions([acts for _, _, acts in items])
    model = dec.PerceptronModel(actions=[], salt=5)
    menus, table = dec.step_table(model, machine, items)
    assert len(menus) == len(set(menus)) and len(table) == len(items)
    expected = _multi_action_steps(machine, items)
    assert sum(len(steps) for steps in expected) < sum(len(a) for _, _, a in items)
    for (sentence, dep, _), steps, (buckets, offsets, menu_ids, golds) in \
            zip(items, expected, table):
        assert len(offsets) == len(steps) + 1 and offsets[-1] == len(buckets)
        assert len(menu_ids) == len(golds) == len(steps)
        frags = dec.SentenceFeatures(sentence, dep)
        for k, (c, menu, gold_index) in enumerate(steps):
            feats = dec.extract_features(c, dep, frags)
            assert list(buckets[offsets[k]:offsets[k + 1]]) == \
                [dec._bucket(f, 5, model.dim) for f in feats]
            assert menus[menu_ids[k]] == menu and golds[k] == gold_index
    assert set(menus) == {menu for steps in expected for _, menu, _ in steps}


def test_training_extracts_features_once_per_multi_action_step(corpus_items,
                                                                 monkeypatch):
    items = [(rec.sentence, rec.deps, acts) for rec, acts in corpus_items]
    machine = dec.machine_from_actions([acts for _, _, acts in items])
    calls = []

    def counted(c, dep=None, frags=None):
        calls.append(c)
        return extract(c, dep, frags)

    extract = dec.extract_features
    monkeypatch.setattr(dec, "extract_features", counted)
    dec.train_perceptron(items, epochs=3, seed=0, machine=machine)
    expected = [c for steps in _multi_action_steps(machine, items) for c, _, _ in steps]
    assert len(calls) == len(expected) and calls == expected


def _assert_per_action_sums(model, scorer, c, feats, legal):
    # bit for bit, -0.0 included: parse files print the score
    got = scorer.score(c, feats, legal)
    buckets = model.buckets(feats)
    assert [repr(s) for s in got] == \
        [repr(model.score_buckets(buckets, a)) for a in legal]
    assert [repr(s) for s in model.score_actions(buckets, legal)] == \
        [repr(model.score_buckets(buckets, a)) for a in legal]


def test_one_pass_scores_equal_per_action_sums(trained, corpus_items):
    # each configuration is scored from the weight rows, then again from
    # the memo
    trained_model, machine = trained
    untrained = dec.PerceptronModel(actions=list(trained_model.actions))
    for model in (trained_model, untrained):
        scorer = dec.PerceptronScorer(model)
        for rec, actions in corpus_items[:10]:
            c = machine.init(rec.sentence)
            for gold in actions:
                feats = dec.extract_features(c, rec.deps)
                legal = dec._concrete_candidates(machine, c) + ["NO-SUCH-ACTION"]
                _assert_per_action_sums(model, scorer, c, feats, legal)
                memoized = len(scorer._memo)
                _assert_per_action_sums(model, scorer, c, feats, legal)
                assert len(scorer._memo) == memoized
                c = machine.apply(c, gold)
    # an update reaches a memoized score, also through a feature that had
    # no row before it, and so does averaging; the decode view is rebuilt
    # after each, and after a new action, and kept otherwise
    model = dec.PerceptronModel.from_json(trained_model.to_json())
    model.averaged = False
    scorer = dec.PerceptronScorer(model)
    rec, actions = corpus_items[0]
    c = machine.apply(machine.init(rec.sentence), actions[0])
    feats = dec.extract_features(c, rec.deps) + ("unseen=feature",)
    legal = dec._concrete_candidates(machine, c) + ["NEW-ACTION"]
    before = scorer.score(c, feats, legal)
    view = model.decode_view()
    assert model.decode_view() is view
    model.add_action("NEW-ACTION")
    assert model.decode_view() is not view
    view = model.decode_view()
    _assert_per_action_sums(model, scorer, c, feats, legal)
    model.update(model.buckets(feats), legal[0], "NEW-ACTION")
    after = scorer.score(c, feats, legal)
    assert model.decode_view() is not view
    view = model.decode_view()
    _assert_per_action_sums(model, scorer, c, feats, legal)
    assert after[0] > before[0]
    assert after[-1] < before[-1]
    model.finalize(3)
    assert model.decode_view() is not view
    averaged = scorer.score(c, feats, legal)
    _assert_per_action_sums(model, scorer, c, feats, legal)
    assert averaged != after


def test_add_action_alone_keeps_memoized_scores(trained, corpus_items):
    # a new action has no weight yet, so no score changes and the memo stays
    model = dec.PerceptronModel.from_json(trained[0].to_json())
    machine = trained[1]
    scorer = dec.PerceptronScorer(model)
    rec, actions = corpus_items[1]
    calls = []
    c = machine.init(rec.sentence)
    for gold in actions:
        feats = dec.extract_features(c, rec.deps)
        legal = dec._concrete_candidates(machine, c) + ["NO-SUCH-ACTION"]
        calls.append((c, feats, legal, scorer.score(c, feats, legal)))
        c = machine.apply(c, gold)
    memo = dict(scorer._memo)
    model.add_action("NO-SUCH-ACTION")
    model.add_action(actions[0])  # known already: no change at all
    for c, feats, legal, want in calls:
        got = scorer.score(c, feats, legal)
        assert got is want
        assert [repr(s) for s in model.score_actions(model.buckets(feats), legal)] \
            == [repr(s) for s in want]
    assert scorer._memo == memo
    assert all(scorer._memo[k] is v for k, v in memo.items())


WEIGHTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]))


@given(st.dictionaries(st.integers(0, 6), st.dictionaries(st.integers(0, 3), WEIGHTS,
                                                          max_size=4), max_size=6),
       st.lists(st.integers(0, 8), max_size=12),
       st.lists(st.sampled_from(["A", "B", "C", "D", "UNKNOWN"]), max_size=5))
def test_score_actions_equals_score_buckets(weights, buckets, actions):
    # empty rows, missing actions, zero and -0.0 weights, repeated buckets;
    # score_buckets gives the int 0 for an action without terms
    model = dec.PerceptronModel(actions=["A", "B", "C", "D"])
    model.weights = weights
    assert [repr(s) for s in model.score_actions(buckets, actions)] == \
        [repr(float(model.score_buckets(buckets, a))) for a in actions]


FINITE_WEIGHTS = st.one_of(
    st.floats(-dec.WEIGHT_BOUND, dec.WEIGHT_BOUND, exclude_min=True, exclude_max=True),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -1e-300, 2.0 ** 999]))
KERNEL_ACTIONS = ["A", "B", "C", "D"]


@given(st.dictionaries(st.integers(0, 7), st.dictionaries(
           st.integers(0, 3), FINITE_WEIGHTS, max_size=4), max_size=6),
       st.lists(st.integers(0, 30), max_size=40),
       st.lists(st.sampled_from(KERNEL_ACTIONS + ["UNKNOWN", "OTHER"]),
                min_size=1, max_size=6))
def test_view_scores_equal_left_to_right_loop(weights, picks, legal):
    # 31 features over 8 buckets: repeated buckets, buckets without a
    # row, rows without an action, explicit zeros of either sign
    model = dec.PerceptronModel(actions=list(KERNEL_ACTIONS), dim=8, salt=1)
    model.weights = weights
    features = tuple("f%d" % i for i in picks)
    want = []
    for a in legal:
        ai = model.action_ids.get(a)
        total = 0.0
        for f in features:
            row = weights.get(dec._bucket(f, 1, 8), {})
            if ai in row:
                total = total + row[ai]
        want.append(total)
    view, buckets = model.decode_view(), model.buckets(features)
    assert [repr(s) for s in view.scores(buckets, legal)] == [repr(s) for s in want]
    # from the rows already written, too
    assert [repr(s) for s in view.scores(buckets, legal)] == [repr(s) for s in want]


def test_bucket_memo_stays_bounded_and_exact(corpus_items, monkeypatch):
    monkeypatch.setattr(dec, "BUCKET_MEMO_SIZE", 50)
    model = dec.PerceptronModel(actions=[], salt=3)
    machine = tm.Machine()
    for rec, actions in corpus_items[:3]:
        c = machine.init(rec.sentence)
        for a in actions:
            feats = dec.extract_features(c, rec.deps)
            assert model.buckets(feats) == [dec._bucket(f, 3, model.dim) for f in feats]
            assert len(model._bucket_of) <= 50 + len(feats)
            c = machine.apply(c, a)


def test_model_json_roundtrip(trained):
    model, _ = trained
    clone = dec.PerceptronModel.from_json(model.to_json())
    assert clone.salt == model.salt and clone.dim == model.dim
    assert clone.weights == model.weights
    assert clone.actions == model.actions
    with pytest.raises(ValueError):
        dec.PerceptronModel.from_json(json.dumps({"format": "other"}))


def _dumped_weight_dict(model):
    # the model file as first written: one dict of every weight, dumped
    return json.dumps({
        "format": "ulfparse-perceptron-v2",
        "dim": model.dim, "salt": model.salt, "averaged": model.averaged,
        "actions": model.actions, "vocab": model.vocab,
        "max_wordless_run": model.max_wordless_run,
        "weights": {"%d,%d" % (b, ai): w for b, row in model.weights.items()
                    for ai, w in row.items()},
    }, sort_keys=True)


def test_model_json_equals_dump_of_weight_dict(trained):
    model, _ = trained
    assert model.totals == {}  # freed by finalize
    assert model.to_json() == _dumped_weight_dict(model)
    # bucket and action orders where string and numeric order differ,
    # an empty row, -0.0, an int, tiny and huge weights
    odd = dec.PerceptronModel(actions=["A"] * 12, vocab={"k": [1]})
    odd.weights = {5: {10: -0.0, 2: 3, 0: 1e-300}, 50: {1: 0.1}, 500: {},
                   6: {11: 1.5e300, 1: -2.5}, 12: {0: 7.0}}
    assert odd.to_json() == _dumped_weight_dict(odd)
    empty = dec.PerceptronModel(actions=[])
    assert empty.to_json() == _dumped_weight_dict(empty)


# -- scorers -------------------------------------------------------------------

def test_oracle_scorer_replays_gold_everywhere(corpus_items):
    machine = dec.machine_from_actions([a for _, a in corpus_items])
    for rec, actions in corpus_items:
        res = dec.beam_decode(rec.sentence, dec.OracleScorer(actions), machine,
                              beam_size=1, dep=rec.deps)
        assert res.finished
        assert len(res.fragments) == 1
        assert graphs_equal(res.fragments[0], rec.gold_graph)


@pytest.mark.parametrize("change", [lambda s: s[:-1], lambda s: s + [0.0]],
                         ids=["leaves-one-out", "one-too-many"])
def test_scorer_reply_of_wrong_length_raises(change):
    class Miscounting(dec.RandomScorer):
        def score(self, c, features, legal):
            return change(super().score(c, features, legal))

    s = Sentence.make(["a", "b"])
    m = tm.Machine(suffixes=["n"], symgen_vocab=["k"], promote_syms=["pres"])
    with pytest.raises(ValueError, match="scorer gave [0-9]+ scores for [0-9]+ legal"):
        dec.beam_decode(s, Miscounting(7), m, beam_size=2, cap=50)


def test_random_scorer_deterministic():
    s = Sentence.make(["a", "b"])
    m = tm.Machine(suffixes=["n"], symgen_vocab=["k"], promote_syms=["pres"])
    r1 = dec.beam_decode(s, dec.RandomScorer(7), m, beam_size=2, cap=50)
    r2 = dec.beam_decode(s, dec.RandomScorer(7), m, beam_size=2, cap=50)
    assert r1.actions == r2.actions
    r3 = dec.beam_decode(s, dec.RandomScorer(8), m, beam_size=2, cap=50)
    assert r1.actions != r3.actions or r1.score != r3.score


def test_decoded_symbols_read_back():
    # a sentence of brackets and a comment sign: random decodes write only
    # fragments that the reader gives back as the same tree (the machine
    # offers no LEMMA or TOKEN over "(" or ";")
    s = Sentence.make(["(", "dog", ";"])
    m = tm.Machine(suffixes=["n", "p"], symgen_vocab=["pres"], promote_syms=["pres"])
    for seed in range(40):
        result = dec.beam_decode(s, dec.RandomScorer(seed), m, beam_size=1)
        for frag in result.fragments:
            tree = graph_to_tree(frag, strict=False)
            assert parse_sexpr(render_sexpr(tree)) == tree, seed


ECHO_SCORER = r"""
import json, sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n = int(header.strip())
    body = sys.stdin.read(n)
    sys.stdin.readline()
    req = json.loads(body)
    scores = {a: float(i) for i, a in enumerate(sorted(req["legal"]))}
    out = json.dumps({"scores": scores})
    sys.stdout.write("%d\n%s\n" % (len(out.encode()), out))
    sys.stdout.flush()
"""


def test_external_scorer_echo():
    scorer = dec.ExternalScorer([sys.executable, "-c", ECHO_SCORER])
    try:
        m = tm.Machine()
        c = m.init(Sentence.make(["a"]))
        scores = scorer.score(c, ("f",), ["WORDGEN", "SKIP"])
        assert scores == [1.0, 0.0]
    finally:
        scorer.close()


def test_external_scorer_timeout():
    scorer = dec.ExternalScorer(
        [sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.3)
    m = tm.Machine()
    c = m.init(Sentence.make(["a"]))
    with pytest.raises(dec.ExternalScorerError):
        scorer.score(c, (), ["SKIP"])


UTF8_SCORER = r"""
import json, sys
inp, out = sys.stdin.buffer, sys.stdout.buffer
while True:
    header = inp.readline()
    if not header:
        break
    req = json.loads(inp.read(int(header)))
    inp.readline()
    scores = {a: float(i) for i, a in enumerate(sorted(req["legal"]))}
    body = json.dumps({"note": "naïve — über", "scores": scores},
                      ensure_ascii=False).encode()
    out.write(b"%d\n%s\n" % (len(body), body))
    out.flush()
"""


def test_external_scorer_counts_reply_bytes():
    # raw UTF-8 makes the byte count larger than the character count
    scorer = dec.ExternalScorer([sys.executable, "-c", UTF8_SCORER], timeout=5)
    try:
        c = tm.Machine().init(Sentence.make(["a"]))
        for _ in range(2):
            assert scorer.score(c, ("f",), ["WORDGEN", "SKIP"]) == [1.0, 0.0]
    finally:
        scorer.close()


RECORDING_SCORER = r"""
import json, sys
inp, out = sys.stdin.buffer, sys.stdout.buffer
with open(sys.argv[1], "wb") as log:
    while True:
        header = inp.readline()
        if not header:
            break
        body = inp.read(int(header))
        log.write(header + body + inp.readline())
        log.flush()
        legal = sorted(json.loads(body)["legal"])
        reply = json.dumps({"scores": {a: float(i) for i, a in enumerate(legal)}})
        out.write(b"%d\n%s\n" % (len(reply), reply.encode()))
        out.flush()
"""

# SHA-256 of the requests an external scorer receives in one beam decode of
# the first mini-corpus sentence: it changes when a request byte does
EXTERNAL_REQUESTS_SHA256 = \
    "9e61f50f63cc3e4330cf4478e591d7a636ecacaa4d514ccd7cffe361b2c92815"


def test_external_scorer_request_bytes(trained, corpus_items, tmp_path):
    _, machine = trained
    rec, _ = corpus_items[0]
    log = tmp_path / "requests.bin"
    scorer = dec.ExternalScorer([sys.executable, "-c", RECORDING_SCORER, str(log)])
    try:
        dec.beam_decode(rec.sentence, scorer, machine, beam_size=2, cap=60,
                        dep=rec.deps)
    finally:
        scorer.close()
    raw = log.read_bytes()
    first = json.loads(raw.split(b"\n")[1])
    feats = dec.extract_features(machine.init(rec.sentence), rec.deps)
    assert first["features"] == dict.fromkeys(feats, 1.0)
    assert hashlib.sha256(raw).hexdigest() == EXTERNAL_REQUESTS_SHA256


RAW_REPLY_SCORER = r"""
import sys, time
sys.stdin.buffer.readline()
sys.stdout.buffer.write(bytes.fromhex(sys.argv[1]))
sys.stdout.buffer.flush()
time.sleep(float(sys.argv[2]))
"""


def _framed(body):
    return b"%d\n%s\n" % (len(body), body)


@pytest.mark.parametrize("reply, linger", [
    (_framed(b'{"scores": {"SKIP": 1.0}}')[:-8], 30),  # truncated, then silent
    (_framed(b'{"scores": {"SKIP": 1.0}}')[:-8], 0),   # truncated, then exits
    (b"hello\n", 30),                                   # garbage header
    (_framed(b"hello"), 0),                             # garbage body
    (_framed(b'{"scores": ["SKIP"]}'), 0),              # scores not a map
    (_framed(b'{"scores": {"SKIP": NaN}}'), 0),         # non-finite score
    (_framed(b'{"scores": {"SKIP": "\xff"}}'), 30),     # body not UTF-8
    (_framed(b'{"scores": {"WORDGEN": 1.0}}'), 0),      # SKIP left out
], ids=["truncated-silent", "truncated-exit", "garbage-header", "garbage-body",
        "scores-not-a-map", "non-finite", "not-utf8", "missing-action"])
def test_external_scorer_bad_reply_raises(reply, linger):
    scorer = dec.ExternalScorer(
        [sys.executable, "-c", RAW_REPLY_SCORER, reply.hex(), str(linger)],
        timeout=1.0)
    c = tm.Machine().init(Sentence.make(["a"]))
    try:
        with pytest.raises(dec.ExternalScorerError):
            scorer.score(c, (), ["SKIP"])
    finally:
        scorer.close()


# -- beam search with constraints ----------------------------------------------

def test_lexicon_empty_intersection_falls_back(corpus_items):
    # lexicon maps "run" to an atom outside the suffix vocabulary: the
    # intersection is empty and the word falls back to the unconstrained set
    rec, actions = corpus_items[0]
    machine = dec.machine_from_actions([actions])
    lex = Lexicon({"run": ["run.zzz"], "i": ["i.pro"]})
    res = dec.beam_decode(rec.sentence, dec.OracleScorer(actions), machine,
                          beam_size=1, lexicon=lex, dep=rec.deps)
    assert res.finished
    assert graphs_equal(res.fragments[0], rec.gold_graph)


def test_lexicon_restricts_suffix(corpus_items):
    rec, actions = corpus_items[0]  # "I run ."
    machine = dec.machine_from_actions([a for _, a in corpus_items])
    # force run -> run.n: the oracle's SUFFIX:v is filtered out, so the
    # decode follows a different (still legal) path
    lex = Lexicon({"run": ["run.n"], "i": ["i.pro"]})
    res = dec.beam_decode(rec.sentence, dec.OracleScorer(actions), machine,
                          beam_size=1, lexicon=lex, dep=rec.deps)
    rendered = [v.symbol.render() for f in res.fragments for v in f.vertices]
    assert "run.v" not in rendered


def test_type_constraint_vetoes_bad_arcs(trained, corpus_items):
    model, machine = trained
    grammar = TypeGrammar.default()
    from ulfparse.typesys import check_arc, type_of
    for rec, actions in corpus_items[:6]:
        res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model),
                              machine, beam_size=10, grammar=grammar,
                              dep=rec.deps)
        # replay the surviving trace: every arc must compose in the same
        # creation order the decoder checked it
        c = machine.init(rec.sentence)
        types = []
        for a in res.actions:
            c2 = machine.apply(c, a)
            while len(types) < len(c2.verts):
                types.append(type_of(c2.verts[len(types)].symbol, grammar))
            kind = tm.action_kind(a)
            if kind in ("ARC", "PROMOTE_ARC"):
                src, dst, _lab = c2.edges[-1]
                ok, t2 = check_arc(types[src], types[dst])
                assert ok, "vetoed arc survived: %s" % a
                types[src] = t2
            c = c2


def test_type_veto_checks_each_arc_direction_once(trained, corpus_items,
                                                   monkeypatch):
    # one check_arc per arc action that an item expanded in an arc phase
    # offers: at most two in ARC, and one for PROMOTE_ARC, a forced move
    # that is never scored
    model, machine = trained
    calls, arc_offers, arc_phases = [], [], []
    monkeypatch.setattr(dec, "check_arc",
                        lambda *args: calls.append(args) or check_arc(*args))

    def counted_menu(machine, c, lexicon, memo):
        legal = menu(machine, c, lexicon, memo)
        if c.phase in (tm.ARC, tm.PROMOTEARC):
            arc_phases.append(c.phase)
            arc_offers.extend(a for a in legal if a != "NOARC")
        return legal

    menu = dec._menu
    monkeypatch.setattr(dec, "_menu", counted_menu)
    for rec, _ in corpus_items[:6]:
        dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                        beam_size=10, grammar=TypeGrammar.default(), dep=rec.deps)
    assert calls and tm.PROMOTEARC in arc_phases
    assert len(calls) == len(arc_offers)
    assert len(calls) <= 2 * arc_phases.count(tm.ARC) + arc_phases.count(tm.PROMOTEARC)


SCORES = st.one_of(st.floats(-1e6, 1e6), st.integers(-3, 3).map(float),
                   st.sampled_from([0.0, -0.0, 1e-300, -1e-300]))


@given(st.lists(SCORES, min_size=1, max_size=30))
def test_log_softmax_equals_numpy_formula(values):
    # every bit of the normalization as first written
    vals = np.array(values, dtype=float)
    vals -= vals.max()
    logz = np.log(np.exp(vals).sum())
    want = [float(v - logz) for v in vals]
    got = dec._log_softmax(values)
    assert [repr(v) for v in got] == [repr(v) for v in want]


@given(st.lists(SCORES, min_size=1, max_size=30), st.floats(-1e6, 1e6))
def test_log_softmax_ignores_the_sign_of_zero(values, x):
    # the beam memoizes the log-softmax by value, and 0.0 == -0.0
    for a, b in (([-0.0, x], [0.0, x]), ([x, -0.0], [x, 0.0]),
                 (values, [-v if v == 0 else v for v in values])):
        assert [repr(v) for v in dec._log_softmax(a)] == \
            [repr(v) for v in dec._log_softmax(b)]


def test_oracle_equals_gold_with_constraints_off(trained, corpus_items):
    machine = dec.machine_from_actions([a for _, a in corpus_items])
    for rec, actions in corpus_items:
        res = dec.beam_decode(rec.sentence, dec.OracleScorer(actions), machine,
                              beam_size=3, dep=rec.deps)
        assert graphs_equal(res.fragments[0], rec.gold_graph)


def test_beam_monotone_best_score(trained):
    model, machine = trained
    recs = load_mini_corpus()
    for rec in recs[:8]:
        scores = []
        for b in (1, 3, 10):
            res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model),
                                  machine, beam_size=b, dep=rec.deps)
            scores.append(res.score)
        assert scores[1] >= scores[0] - 1e-9
        assert scores[2] >= scores[1] - 1e-9


def test_decode_emits_only_legal_actions(trained):
    model, machine = trained
    rec = load_mini_corpus()[3]
    res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                          beam_size=3, dep=rec.deps)
    c = machine.init(rec.sentence)
    for a in res.actions:
        assert machine.is_legal(c, a)
        c = machine.apply(c, a)


def test_cap_finalizes_as_is(trained):
    model, machine = trained
    rec = load_mini_corpus()[1]
    res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                          beam_size=2, cap=12, dep=rec.deps)
    assert not res.finished
    assert len(res.actions) <= 12
    for frag in res.fragments:
        frag.validate()


# -- score-then-apply beam against the eager reference ---------------------------

def _reference_type_filtered(item, action, grammar):
    c = item.config
    kind = tm.action_kind(action)
    types = item.types
    while len(types) < len(c.verts):
        types = types + (type_of(c.verts[len(types)].symbol, grammar),)
    if kind == "ARC":
        l, r = c.cache
        head, dep = (r, l) if action == "ARC:0:left" else (l, r)
    elif kind == "PROMOTE_ARC":
        head, dep = c.promoted, c.cache[1]
    else:
        return types
    ok, new_type = check_arc(types[head], types[dep])
    if not ok:
        return None
    return types[:head] + (new_type,) + types[head + 1:]


def _reference_beam_decode(sentence, scorer, machine, beam_size=3, lexicon=None,
                           grammar=None, cap=None, dep=None):
    """The eager beam search: apply every candidate, sort them all, and
    run until no live item is left."""
    cap = cap if cap is not None else machine.step_cap
    beam = [dec.BeamItem(machine.init(sentence))]
    finished = []
    while beam:
        candidates = []
        for item in beam:
            c = item.config
            if machine.is_terminal(c):
                finished.append(dec.BeamItem(c, item.score, item.history,
                                             item.types, item.rank + (0,)))
                continue
            if c.steps >= cap:
                finished.append(dec.BeamItem(c, item.score, item.history,
                                             item.types, item.rank + (1,)))
                continue
            legal = dec._concrete_candidates(machine, c)
            legal = dec._lexicon_filtered(machine, c, legal, lexicon)
            feats = dec.extract_features(c, dep)
            scores = dict(zip(legal, dec._log_softmax(scorer.score(c, feats, legal))))
            for ai, action in enumerate(sorted(legal, key=tm.action_sort_key)):
                types = item.types
                if grammar is not None:
                    types = _reference_type_filtered(item, action, grammar)
                    if types is None:
                        continue
                candidates.append(dec.BeamItem(
                    machine.apply(c, action),
                    item.score + scores[action],
                    item.history + (action,),
                    types,
                    item.rank + (ai,),
                ))
        if not candidates:
            break
        candidates.sort(key=lambda it: (-it.score, it.rank))
        beam = candidates[:beam_size]
        finished.sort(key=lambda it: (-it.score, it.rank))
        finished = finished[: max(beam_size, 1)]
    pool = finished if finished else beam
    best = min(pool, key=lambda it: (-it.score, it.rank))
    return dec.DecodeResult(
        fragments=machine.extract_result(best.config),
        actions=list(best.history),
        score=best.score,
        finished=machine.is_terminal(best.config),
    )


@pytest.fixture(scope="module")
def corpus_lexicon():
    table = {}
    for rec in load_mini_corpus():
        for v in rec.gold_graph.vertices:
            table.setdefault(v.symbol.stem.lower(), set()).add(v.symbol.render())
    return Lexicon(table)


class _UniformScorer:
    """Equal scores: many ties, which only the ranks break."""

    def score(self, c, features, legal):
        return [0.0] * len(legal)


@settings(max_examples=50, deadline=None)
@given(index=st.integers(0, 24), beam=st.sampled_from([1, 3, 10]),
       constrained=st.booleans(),
       scorer=st.sampled_from(["perceptron", "random", "uniform"]),
       cap=st.sampled_from([40, 150, 800]))
def test_beam_matches_eager_reference(trained, corpus_lexicon, index, beam,
                                      constrained, scorer, cap):
    model, machine = trained
    rec = load_mini_corpus()[index]
    make = {"perceptron": lambda: dec.PerceptronScorer(model),
            "random": lambda: dec.RandomScorer(index),
            "uniform": lambda: _UniformScorer()}[scorer]
    kw = dict(beam_size=beam, cap=cap, dep=rec.deps)
    if constrained:
        kw.update(grammar=TypeGrammar.default(), lexicon=corpus_lexicon)
    got = dec.beam_decode(rec.sentence, make(), machine, **kw)
    want = _reference_beam_decode(rec.sentence, make(), machine, **kw)
    assert got == want
    assert repr(got.score) == repr(want.score)  # 0.0 == -0.0, but not in print


class _MenuRecording(dec.PerceptronScorer):
    """A PerceptronScorer that records the length of every menu it scores."""

    def __init__(self, model):
        super().__init__(model)
        self.menus = []

    def score(self, c, features, legal):
        self.menus.append(len(legal))
        return super().score(c, features, legal)


class _Undeclared:
    """Delegates to a scorer but declares no forced_moves_free, so the beam
    scores every item; records every call and the length of its menu."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.menus = []
        self.calls = []

    def score(self, c, features, legal):
        self.menus.append(len(legal))
        self.calls.append((c.steps, features, tuple(legal)))
        return self.scorer.score(c, features, legal)


def test_beam_skips_forced_moves(trained, corpus_lexicon):
    # typed beam-10 decodes with the lexicon never score a one-action
    # menu, and equal the reference, which scores every item
    model, machine = trained
    kw = dict(beam_size=10, grammar=TypeGrammar.default(), lexicon=corpus_lexicon)
    forced = 0
    for rec in load_mini_corpus()[:10]:
        skipping, scoring = _MenuRecording(model), _MenuRecording(model)
        got = dec.beam_decode(rec.sentence, skipping, machine, dep=rec.deps, **kw)
        want = _reference_beam_decode(rec.sentence, scoring, machine,
                                      dep=rec.deps, **kw)
        assert got == want
        assert repr(got.score) == repr(want.score)
        assert 1 not in skipping.menus
        forced += scoring.menus.count(1)
    assert forced


def test_undeclared_scorer_is_called_for_every_item(trained, corpus_lexicon):
    # the reference expands the same items in the same order, and more
    # after the beam's early stop, and scores every one of them
    model, machine = trained
    kw = dict(beam_size=10, grammar=TypeGrammar.default(), lexicon=corpus_lexicon)
    forced = 0
    for rec in load_mini_corpus()[:8]:
        got = _Undeclared(dec.PerceptronScorer(model))
        want = _Undeclared(dec.PerceptronScorer(model))
        dec.beam_decode(rec.sentence, got, machine, dep=rec.deps, **kw)
        _reference_beam_decode(rec.sentence, want, machine, dep=rec.deps, **kw)
        assert got.calls == want.calls[:len(got.calls)]
        forced += got.menus.count(1)
    assert forced


def test_lexicon_fallback_decode_matches_eager_reference(trained, corpus_lexicon,
                                                         monkeypatch):
    # every other stem of the corpus lexicon allows only an atom that no
    # SUFFIX action makes, so the filter falls back there and keeps the
    # corpus atoms elsewhere; the menu memo keeps both kinds of position
    model, machine = trained
    table = {stem: {"zzz.zzz"} if i % 2 else allowed
             for i, (stem, allowed) in enumerate(sorted(corpus_lexicon.table.items()))}
    lexicon = Lexicon(table)
    kept = []
    monkeypatch.setattr(dec, "lexicon_filter",
                        lambda *args: kept.append(lexicon_filter(*args)) or kept[-1])
    for rec in load_mini_corpus()[:10]:
        kw = dict(beam_size=10, grammar=TypeGrammar.default(), lexicon=lexicon,
                  dep=rec.deps)
        got = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine, **kw)
        want = _reference_beam_decode(rec.sentence, dec.PerceptronScorer(model),
                                      machine, **kw)
        assert got == want
        assert repr(got.score) == repr(want.score)
    assert set() in kept and any(kept)


def _compensated_sum(iterable, start=0):
    """The builtin sum as CPython 3.12 computes it over floats: Neumaier's
    compensated running sum, with the compensation added at the end when
    it is nonzero and finite.  Other items sum as the running builtin
    does."""
    values = list(iterable)
    if not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_decode_bits_do_not_depend_on_the_builtin_sum(trained, corpus_items,
                                                      corpus_lexicon, monkeypatch):
    # Python 3.12 changed how sum adds floats; a decode must give the same
    # actions and score bits under either algorithm
    model, machine = trained
    kw = dict(beam_size=10, grammar=TypeGrammar.default(), lexicon=corpus_lexicon)
    recs = load_mini_corpus()[:8]
    want = [dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                            dep=rec.deps, **kw) for rec in recs]
    rec, actions = corpus_items[5]
    walk, c = [], machine.init(rec.sentence)
    for a in actions:
        walk.append((model.buckets(dec.extract_features(c, rec.deps)),
                     dec._concrete_candidates(machine, c)))
        c = machine.apply(c, a)
    plain = [[repr(s) for s in model.score_actions(b, legal)] for b, legal in walk]
    monkeypatch.setattr(dec, "sum", _compensated_sum, raising=False)
    # the emulation reaches the per-action sums, and changes some bits
    assert plain != [[repr(s) for s in model.score_actions(b, legal)]
                     for b, legal in walk]
    for rec, w in zip(recs, want):
        got = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model), machine,
                              dep=rec.deps, **kw)
        assert got.actions == w.actions
        assert repr(got.score) == repr(w.score)


class _TieScorer:
    """MERGEBUF and SKIP tie at the first step; afterwards SKIP is certain."""

    def score(self, c, features, legal):
        first = ("MERGEBUF", "SKIP") if c.steps == 0 else ("SKIP",)
        return [0.0 if a in first else -1e9 for a in legal]


def test_early_stop_breaks_score_ties_by_rank():
    # SKIP SKIP finishes first; MERGEBUF SKIP SKIP finishes a step later
    # with the same score and a smaller rank, so the search must go on
    m = tm.Machine(suffixes=[], symgen_vocab=[], promote_syms=[])
    s = Sentence.make(["a", "b"])
    got = dec.beam_decode(s, _TieScorer(), m, beam_size=2)
    assert got.actions == ["MERGEBUF", "SKIP", "SKIP"] and got.finished
    assert got == _reference_beam_decode(s, _TieScorer(), m, beam_size=2)
