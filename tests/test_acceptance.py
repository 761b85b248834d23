"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import filecmp
import json
import os
import statistics
import time

import numpy as np
import pytest

from ulfparse import cli, decode as dec, machine as tm, metrics
from ulfparse.align import align
from ulfparse.cli import load_mini_corpus, mini_corpus_path, split_round_robin
from ulfparse.core import (
    Atom,
    Sentence,
    emit_penman,
    graph_to_tree,
    graphs_equal,
    parse_penman,
    render_sexpr,
    tree_atoms,
    tree_to_graph,
)
from ulfparse.metrics import TripleSet, best_mapping, el_smatch, sembleu
from ulfparse.oracle import DEFAULT_PROMOTE_SYMBOLS, extract, extract_with_alignment
from ulfparse.typesys import Lexicon, TypeGrammar, check_graph

from test_machine import labels_positional
from test_metrics import _random_graph, brute_force_best


@pytest.fixture(scope="module")
def mini():
    return load_mini_corpus()


@pytest.fixture(scope="module")
def oracle_items(mini):
    items = []
    for rec in mini:
        actions, amap = extract_with_alignment(rec.sentence, rec.gold_graph)
        items.append((rec, actions))
    return items


@pytest.fixture(scope="module")
def trained(oracle_items):
    train, _, _ = split_round_robin(oracle_items)
    model, machine = dec.train_perceptron(
        [(rec.sentence, rec.deps, acts) for rec, acts in train],
        epochs=10, seed=0)
    return model, machine


@pytest.fixture(scope="module")
def trained_full(oracle_items):
    model, machine = dec.train_perceptron(
        [(rec.sentence, rec.deps, acts) for rec, acts in oracle_items],
        epochs=10, seed=0)
    return model, machine


def test_criterion_1_oracle_roundtrip_mini_corpus(mini):
    t0 = time.time()
    ok = 0
    machine = tm.Machine(step_cap=2000)
    for rec in mini:
        gold = rec.gold_graph
        actions, _ = extract_with_alignment(rec.sentence, gold)
        frags = machine.extract_result(machine.replay(rec.sentence, actions))
        if len(frags) == 1 and graphs_equal(frags[0], gold):
            ok += 1
    elapsed = time.time() - t0
    assert ok == len(mini) == 25
    assert elapsed < 1.0, "oracle round-trip took %.2fs" % elapsed
    print("\nACCEPTANCE 1 PASS: oracle round-trip %d/%d in %.3fs" %
          (ok, len(mini), elapsed))


def test_criterion_2_released_corpus_when_supplied():
    path = os.environ.get("ULF_CORPUS")
    if not path:
        pytest.skip("released corpus not supplied (set ULF_CORPUS to run)")
    records = cli.ingest(path)
    inseq = cli._harvest_inseq(records, DEFAULT_PROMOTE_SYMBOLS)
    ok, lengths = 0, []
    for rec in records:
        gold = rec.gold_graph
        amap = align(rec.sentence, gold,
                     never_align=frozenset(DEFAULT_PROMOTE_SYMBOLS))
        try:
            actions = extract(rec.sentence, gold, amap,
                              DEFAULT_PROMOTE_SYMBOLS, inseq, step_cap=1700)
        except Exception:
            continue
        lengths.append(len(actions))
        machine = tm.Machine(step_cap=1700)
        frags = machine.extract_result(machine.replay(rec.sentence, actions))
        ok += len(frags) == 1 and graphs_equal(frags[0], gold)
    rate = ok / len(records)
    mean_len = statistics.fmean(lengths)
    assert rate >= 0.99
    assert 134 * 0.85 <= mean_len <= 134 * 1.15
    assert max(lengths) <= 1477 * 1.1
    print("\nACCEPTANCE 2 PASS: %.1f%% round-trip, mean %.1f max %d actions" %
          (100 * rate, mean_len, max(lengths)))


def test_criterion_3_round_robin_split():
    big = list(range(1738))
    train, dev, test = split_round_robin(big)
    assert (len(train), len(dev), len(test)) == (1378, 180, 180)
    assert split_round_robin(big) == (train, dev, test)  # deterministic
    t100 = split_round_robin(list(range(100)))
    assert tuple(map(len, t100)) == (80, 10, 10)
    print("\nACCEPTANCE 3 PASS: 1738 -> 1378/180/180, 100 -> 80/10/10, deterministic")


def test_criterion_4_metric_identity_and_exact_matching(mini):
    for rec in mini:
        g = rec.gold_graph
        f1, p, r = el_smatch(g, g, restarts=4, seed=0)
        assert abs(f1 - 1.0) < 1e-9 and abs(p - 1.0) < 1e-9 and abs(r - 1.0) < 1e-9
        assert abs(sembleu(g, g) - 1.0) < 1e-9
    rng = np.random.default_rng(20240817)
    agree = 0
    for i in range(100):
        cand, gold = _random_graph(rng), _random_graph(rng)
        ct = TripleSet.from_graph(cand, "a")
        gt = TripleSet.from_graph(gold, "b")
        got, _ = best_mapping(ct, gt, restarts=4, seed=i)
        assert got == brute_force_best(ct, gt)
        agree += 1
    print("\nACCEPTANCE 4 PASS: metric(g,g)=1.0 on 25 graphs; "
          "hill-climb = brute force on %d/100 random pairs" % agree)


def _criterion_5_trees():
    """The 1,000 random trees of criterion 5, in order."""
    rng = np.random.default_rng(7)
    stems = ["run", "dog", "see", "new", "tom", "pres", "k", "in", "big"]
    tags = ["v", "n", "a", "pro", "d", ""]

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.35:
            stem = str(rng.choice(stems))
            tag = str(rng.choice(tags))
            return Atom(stem, "suffixed", tag) if tag else Atom(stem, "operator")
        return [rand_tree(depth - 1) for _ in range(int(rng.integers(2, 5)))]

    for _ in range(1000):
        tree = rand_tree(int(rng.integers(1, 7)))
        if isinstance(tree, Atom):
            tree = [tree, rand_tree(0)]
        yield tree


def test_criterion_5_thousand_random_roundtrips():
    count = 0
    for tree in _criterion_5_trees():
        g = tree_to_graph(tree)
        assert render_sexpr(graph_to_tree(g)) == render_sexpr(tree)
        assert graphs_equal(parse_penman(emit_penman(g)), g)
        count += 1
    print("\nACCEPTANCE 5 PASS: %d random trees survive tree->graph->tree "
          "and graph->penman->graph" % count)


def test_gold_sequences_replay_on_the_trained_machine(oracle_items, trained_full):
    # soundness of the label and run rules: the machine that training
    # builds offers every action of every gold sequence, and its positional
    # labels rebuild gold; on criterion 5's random graphs, whose sentences
    # are their atoms' stems, a machine bounded at exactly a sequence's
    # longest word-less run replays it to gold, and one bounded below does not
    _, machine = trained_full
    for rec, actions in oracle_items:
        frags = machine.extract_result(machine.replay(rec.sentence, actions))
        assert len(frags) == 1 and graphs_equal(frags[0], rec.gold_graph), rec.id
    longest = []
    for tree in _criterion_5_trees():
        gold = tree_to_graph(tree)
        sentence = Sentence.make([a.stem for a in tree_atoms(tree)])
        # 14 trees of 214-383 vertices take more than 2,000 actions
        actions, _ = extract_with_alignment(sentence, gold, step_cap=20000)
        run = tm.longest_wordless_run([actions])
        m = tm.Machine(max_wordless_run=run)
        frags = m.extract_result(m.replay(sentence, actions))
        assert len(frags) == 1 and graphs_equal(frags[0], gold)
        if run:
            with pytest.raises(tm.IllegalAction):
                tm.Machine(max_wordless_run=run - 1).replay(sentence, actions)
        longest.append(run)
    assert max(longest) > 1
    print("\nSOUNDNESS PASS: %d mini-corpus and 1000 random gold sequences replay; "
          "longest word-less run %d" % (len(oracle_items), max(longest)))


def test_mini_corpus_decodes_finish_with_positional_labels(mini, trained_full):
    # completeness: beam 3 and typed beam 10 decodes of every mini-corpus
    # sentence finish under the decode cap, and their fragments carry
    # consecutive :ARGk labels
    model, machine = trained_full
    assert machine.step_cap == tm.DEFAULT_DECODE_CAP
    for kw in (dict(beam_size=3), dict(beam_size=10, grammar=TypeGrammar.default())):
        for rec, res in zip(mini, _decode_all(mini, model, machine, **kw)):
            assert res.finished and len(res.actions) < machine.step_cap, rec.id
            assert all(map(labels_positional, res.fragments)), rec.id


def test_criterion_6_type_grammar_adequacy(mini):
    grammar = TypeGrammar.default()
    vetoes = 0
    for rec in mini:
        vetoes += len(check_graph(rec.gold_graph, grammar))
    showcase = [rec for rec in mini if "dance" in rec.sentence.raw
            and "shoes" in rec.sentence.raw]
    assert showcase, "full example formula present in the mini corpus"
    assert vetoes == 0
    print("\nACCEPTANCE 6 PASS: zero composition vetoes on 25 gold graphs")


def _decode_all(recs, model, machine, **kw):
    out = []
    for rec in recs:
        res = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model),
                              machine, dep=rec.deps, **kw)
        out.append(res)
    return out


def test_criterion_7_constraint_behavior(mini, trained_full):
    model, machine = trained_full
    grammar = TypeGrammar.default()
    # corpus-derived lexicon: stems of gold atoms -> their renderings
    table = {}
    for rec in mini:
        for v in rec.gold_graph.vertices:
            table.setdefault(v.symbol.stem.lower(), set()).add(v.symbol.render())
    lexicon = Lexicon(table)

    plain = _decode_all(mini, model, machine, beam_size=3)
    typed = _decode_all(mini, model, machine, beam_size=10, grammar=grammar)
    lexed = _decode_all(mini, model, machine, beam_size=3, lexicon=lexicon)

    frags_plain = statistics.fmean(len(r.fragments) for r in plain)
    frags_typed = statistics.fmean(len(r.fragments) for r in typed)
    assert frags_typed >= frags_plain

    golds = [rec.gold_graph for rec in mini]
    p_plain = metrics.corpus_eval(
        [(r.fragments, g) for r, g in zip(plain, golds)], seed=0
    ).aggregate["elsmatch_p"]
    p_lex = metrics.corpus_eval(
        [(r.fragments, g) for r, g in zip(lexed, golds)], seed=0
    ).aggregate["elsmatch_p"]
    assert p_lex >= p_plain
    print("\nACCEPTANCE 7 PASS: fragments/sentence typed %.2f >= plain %.2f; "
          "EL-Smatch P lexicon %.4f >= plain %.4f" %
          (frags_typed, frags_plain, p_lex, p_plain))


def test_criterion_8_perceptron_beats_random_baseline(mini, trained):
    model, machine = trained
    _, dev, _ = split_round_robin(mini)
    pairs_model, pairs_rand = [], []
    for rec in dev:
        rm = dec.beam_decode(rec.sentence, dec.PerceptronScorer(model),
                             machine, beam_size=3, dep=rec.deps)
        rr = dec.beam_decode(rec.sentence, dec.RandomScorer(0), machine,
                             beam_size=3, dep=rec.deps, cap=200)
        pairs_model.append((rm.fragments, rec.gold_graph))
        pairs_rand.append((rr.fragments, rec.gold_graph))
    agg_model = metrics.corpus_eval(pairs_model, seed=0).aggregate
    agg_rand = metrics.corpus_eval(pairs_rand, seed=0).aggregate
    sb_model, sb_rand = agg_model["sembleu"], agg_rand["sembleu"]
    margin = sb_model - sb_rand
    assert margin >= 0.10, "margin %.4f below the 10-point floor" % margin
    # the random baseline's SemBLEU is 0 (no trigram matches), so the
    # SemBLEU margin alone only asks the model to reach 0.10
    f1_model, f1_rand = agg_model["elsmatch_f1"], agg_rand["elsmatch_f1"]
    f1_margin = f1_model - f1_rand
    assert f1_margin >= 0.10, "EL-Smatch margin %.4f below the 10-point floor" % f1_margin
    print("\nACCEPTANCE 8 PASS: dev SemBLEU %.4f vs random %.4f "
          "(margin %.1f points), EL-Smatch F1 %.4f vs random %.4f (margin "
          "%.1f points); absolute scores of the original neural system are "
          "out of scope" % (sb_model, sb_rand, 100 * margin,
                            f1_model, f1_rand, 100 * f1_margin))


def test_criterion_9_deterministic_reports(tmp_path):
    corpus = tmp_path / "mini.jsonl"
    corpus.write_text(mini_corpus_path().read_text())
    outs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        model = d / "model.json"
        parsed = d / "parsed.txt"
        report = d / "report.json"
        assert cli.main(["train", str(corpus), str(model), "--epochs", "3",
                         "--seed", "7"]) == 0
        assert cli.main(["parse", str(corpus), "--model", str(model),
                         "--beam", "3", "--seed", "7", "-o", str(parsed)]) == 0
        golds = d / "golds.ulf"
        golds.write_text(
            "\n".join(r.ulf for r in cli.ingest(str(corpus))) + "\n")
        assert cli.main(["eval", "both", str(parsed), str(golds),
                         "--report", str(report)]) == 0
        outs.append(d)
    for name in ("model.json", "parsed.txt", "report.json"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), \
            "%s differs between identical runs" % name
    print("\nACCEPTANCE 9 PASS: train+parse+eval reports byte-identical "
          "across reruns")
