import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from ulfparse import machine as tm
from ulfparse.align import align
from ulfparse.core import (
    Sentence,
    graphs_equal,
    parse_sexpr,
    tree_to_graph,
)
from ulfparse.oracle import (
    DEFAULT_PROMOTE_SYMBOLS,
    Oracle,
    OracleError,
    build_symbol_sets,
    extract,
    extract_with_alignment,
)

from goldens import MC002_ALIGNMENT, MC002_ULF, I_RUN_ACTIONS

NEVER = frozenset(DEFAULT_PROMOTE_SYMBOLS)


def roundtrip(sentence, ulf, **kw):
    gold = tree_to_graph(parse_sexpr(ulf))
    actions, amap = extract_with_alignment(sentence, gold, **kw)
    final = tm.Machine(step_cap=2000).replay(sentence, actions)
    frags = tm.Machine().extract_result(final)
    assert len(frags) == 1, "expected a single fragment"
    assert graphs_equal(frags[0], gold)
    return actions


def test_i_run_golden_sequence():
    s = Sentence.make(["I", "run", "."], ["i", "run", "."], ["PRP", "VBP", "."])
    actions = roundtrip(s, "(i.pro ((pres run.v)))")
    assert actions == I_RUN_ACTIONS
    # one PromoteSym for pres, exactly one plain arc
    assert actions.count("PROMOTE_SYM:pres") == 1
    assert sum(1 for a in actions if tm.action_kind(a) == "ARC") == 1


def test_name_exact_token_match():
    s = Sentence.make(["Tom"], ["Tom"], ["NNP"])
    actions = roundtrip(s, "|Tom|")
    assert actions[:3] == ["WORDGEN", "NAME", "SUFFIX:"]


def test_plur_shoe_lemma_then_promote():
    s = Sentence.make(["shoes"], ["shoe"], ["NNS"])
    actions = roundtrip(s, "(plur shoe.n)")
    assert "LEMMA" in actions
    assert "PROMOTE_SYM:plur" in actions


def test_mc002_full_roundtrip():
    s = Sentence.make(
        ["I", "want", "to", "dance", "in", "my", "new", "shoes"],
        ["i", "want", "to", "dance", "in", "my", "new", "shoe"],
        ["PRP", "VBP", "TO", "VB", "IN", "PRP$", "JJ", "NNS"])
    gold = tree_to_graph(parse_sexpr(MC002_ULF))
    amap = align(s, gold, never_align=NEVER)
    assert amap.token_pairs == MC002_ALIGNMENT
    actions = extract(s, gold, amap)
    final = tm.Machine().replay(s, actions)
    frags = tm.Machine().extract_result(final)
    assert len(frags) == 1 and graphs_equal(frags[0], gold)


def test_single_atom_short_sequence():
    s = Sentence.make(["hello"], ["hello"], ["UH"])
    actions = roundtrip(s, "hello.x")
    assert actions[:4] == ["WORDGEN", "TOKEN", "SUFFIX:x", "PUSHIDX:1"]
    # closers only after the push
    assert all(tm.action_kind(a) in
               ("NOARC", "NOPROMOTE", "POP", "NOPOP") for a in actions[4:])


def test_crossed_alignment_uses_skip_and_symgen():
    # gold vertex order disagrees with word order: the oracle skips the
    # early word and generates its vertex without a word
    s = Sentence.make(["ran", "he"], ["run", "he"], ["VBD", "PRP"])
    actions = roundtrip(s, "(he.pro (past run.v))")
    assert "SKIP" in actions
    assert any(a.startswith("SYMGEN:run.v") for a in actions)


def test_mergebuf_multiword_name():
    s = Sentence.make(["New", "York"], ["New", "York"], ["NNP", "NNP"])
    actions = roundtrip(s, "|New York|")
    assert "MERGEBUF" in actions and "NAME" in actions


def test_mergebuf_underscore():
    s = Sentence.make(["had", "better"], ["have", "better"], ["VBD", "RBR"])
    actions = roundtrip(s, "had_better.aux-s")
    assert "MERGEBUF" in actions and "TOKEN" in actions


def test_every_action_is_legal_during_replay():
    # replay applies legality checks at every step; a full replay without
    # IllegalAction proves oracle output is always legal
    s = Sentence.make(
        ["Speech", "is", "silver", "."],
        ["speech", "be", "silver", "."], ["NN", "VBZ", "JJ", "."])
    actions = roundtrip(s, "((k speech.n) ((pres be.v) silver.a))")
    m = tm.Machine()
    c = m.init(s)
    for a in actions:
        assert m.is_legal(c, a)
        c = m.apply(c, a)


def test_monotone_cursor():
    s = Sentence.make(
        ["the", "device", "is", "attached", "firmly", "."],
        ["the", "device", "be", "attach", "firmly", "."],
        ["DT", "NN", "VBZ", "VBN", "RB", "."])
    gold = tree_to_graph(parse_sexpr(
        "((the.d device.n) ((pres (pasv attach.v)) firmly.adv-a))"))
    amap = align(s, gold, never_align=NEVER)
    oracle = Oracle(s, gold, amap)
    targets = []
    next_gen_target = oracle.next_gen_target

    def spy():
        targets.append(next_gen_target())
        return targets[-1]

    oracle.next_gen_target = spy
    oracle.extract()
    seen = [t for t in targets if t is not None]
    assert seen and seen == sorted(seen)


def test_stuck_reports_config():
    s = Sentence.make(["a"], ["a"], ["X"])
    gold = tree_to_graph(parse_sexpr(MC002_ULF))
    amap = align(s, gold, never_align=NEVER)
    with pytest.raises(OracleError) as exc:
        extract(s, gold, amap, step_cap=5)
    assert exc.value.config is not None


def test_build_symbol_sets_empty_and_full():
    assert build_symbol_sets([]) == frozenset()
    # every atom aligns: nothing unaligned
    s = Sentence.make(["run"], ["run"], ["VB"])
    gold = tree_to_graph(parse_sexpr("run.v"))
    assert build_symbol_sets([(s, gold, align(s, gold, never_align=NEVER))]) \
        == frozenset()


def test_build_symbol_sets_harvests_unaligned():
    s = Sentence.make(["go", "now"], ["go", "now"], ["VB", "RB"])
    gold = tree_to_graph(parse_sexpr("(that.pro (go.v now.adv-e))"))
    s_s = build_symbol_sets([(s, gold, align(s, gold, never_align=NEVER))])
    assert "that.pro" in s_s
    assert "go.v" not in s_s


def test_promoted_vertices_are_unary_operators():
    gold = tree_to_graph(parse_sexpr(MC002_ULF))
    s = Sentence.make(["x"], ["x"], ["X"])
    amap = align(s, gold, never_align=NEVER)
    oracle = Oracle(s, gold, amap)
    promoted = {gold.vertices[v].symbol.render() for v in oracle.idx.promoted}
    assert promoted == {"pres", "to", "adv-a", "plur"}
    # multi-child operators are generated in sequence instead
    assert all(len(oracle.idx.children[v]) == 1 for v in oracle.idx.promoted)


# -- randomized round-trip property -------------------------------------------

_OPS = ["pres", "past", "plur", "k", "to", "adv-a", "pasv"]
_WORDS = ["dog", "cat", "run", "see", "red", "sky", "box", "fly"]


@st.composite
def _sentence_and_gold(draw):
    words = draw(st.permutations(_WORDS)).copy()[:6]
    used = []

    def tree(depth):
        kind = draw(st.integers(0, 3))
        if depth <= 0 or kind == 0:
            if words and draw(st.booleans()):
                w = words.pop(0)
                used.append(w)
                return parse_sexpr("%s.%s" % (w, draw(st.sampled_from("nva"))))
            return parse_sexpr(draw(st.sampled_from(_OPS + ["ufo.pro"])))
        if kind == 1:
            return [parse_sexpr(draw(st.sampled_from(_OPS))), tree(depth - 1)]
        n = draw(st.integers(2, 3))
        return [tree(depth - 1) for _ in range(n)]

    t = tree(draw(st.integers(1, 3)))
    if isinstance(t, list) and len(t) < 2:
        t = t[0]
    sent_words = used + [w for w in words[:2]]
    if not sent_words:
        sent_words = ["filler"]
    return Sentence.make(sent_words), tree_to_graph(t)


@settings(max_examples=120, deadline=None)
@given(_sentence_and_gold())
def test_random_roundtrip_property(pair):
    sentence, gold = pair
    actions, _ = extract_with_alignment(sentence, gold)
    final = tm.Machine(step_cap=4000).replay(sentence, actions)
    frags = tm.Machine().extract_result(final)
    assert len(frags) == 1
    assert graphs_equal(frags[0], gold)


def test_bottom_up_property_subtrees_frozen_after_arc():
    # once an arc adopts a child, the subtree below that child never grows
    recs = [
        (Sentence.make(["I", "want", "to", "dance", "in", "my", "new", "shoes"],
                       ["i", "want", "to", "dance", "in", "my", "new", "shoe"],
                       ["PRP", "VBP", "TO", "VB", "IN", "PRP$", "JJ", "NNS"]),
         MC002_ULF),
        (Sentence.make(["Speech", "is", "silver", "."],
                       ["speech", "be", "silver", "."],
                       ["NN", "VBZ", "JJ", "."]),
         "((k speech.n) ((pres be.v) silver.a))"),
    ]
    for s, ulf in recs:
        gold = tree_to_graph(parse_sexpr(ulf))
        actions, _ = extract_with_alignment(s, gold)
        m = tm.Machine()
        c = m.init(s)
        frozen = {}  # child vid -> subtree size at adoption
        for a in actions:
            c = m.apply(c, a)
            if tm.action_kind(a) == "ARC":
                _, child, _ = c.edges[-1]
                frozen[child] = len(c.descendants(child))
            for child, size in frozen.items():
                assert len(c.descendants(child)) == size


# SHA-256 of `ulfparse oracle` on the bundled corpus: it changes when any
# extracted sequence does
MINI_ORACLE_DUMP_SHA256 = \
    "eed3557c113d37191845b91ef58e605a570e8991d638f19c9d83fbe17c183cac"


def test_mini_corpus_oracle_dump_is_unchanged(tmp_path):
    from ulfparse import cli

    out = tmp_path / "actions.txt"
    assert cli.main(["oracle", str(cli.mini_corpus_path()), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MINI_ORACLE_DUMP_SHA256


def test_step_cap_fails_loudly():
    from ulfparse.cli import load_mini_corpus

    rec = load_mini_corpus()[1]
    gold = rec.gold_graph
    amap = align(rec.sentence, gold, never_align=NEVER)
    actions = extract(rec.sentence, gold, amap)
    # a sequence of exactly step_cap actions still succeeds
    assert extract(rec.sentence, gold, amap, step_cap=len(actions)) == actions
    assert len(actions) > 10
    with pytest.raises(OracleError, match="10-action cap") as exc:
        extract(rec.sentence, gold, amap, step_cap=10)
    assert exc.value.config is not None
    assert exc.value.config.steps == 10


def test_default_cap_admits_sequences_longer_than_the_decode_cap():
    # a flat conjunction of 89 nouns takes 898 gold actions: more than a
    # decode may take, and within the oracle's own default cap
    words = ["w%d" % i for i in range(90)]
    gold = tree_to_graph(parse_sexpr(
        "(and.cc %s)" % " ".join(w + ".n" for w in words[1:])))
    actions, _ = extract_with_alignment(Sentence.make(words), gold)
    assert tm.DEFAULT_DECODE_CAP == 800 < len(actions) <= tm.DEFAULT_STEP_CAP
    assert tm.Machine().step_cap == tm.DEFAULT_DECODE_CAP


def test_illegal_rule_action_fails_loudly(monkeypatch):
    s = Sentence.make(["hello"], ["hello"], ["UH"])
    gold = tree_to_graph(parse_sexpr("hello.x"))
    oracle = Oracle(s, gold, align(s, gold, never_align=NEVER))
    monkeypatch.setattr(oracle, "next_action", lambda c: "POP")
    with pytest.raises(OracleError, match="POP is illegal") as exc:
        oracle.extract()
    assert exc.value.config.steps == 0


def test_gold_mismatch_fails_loudly(monkeypatch):
    from ulfparse import oracle as oracle_module

    s = Sentence.make(["I", "run", "."], ["i", "run", "."], ["PRP", "VBP", "."])
    gold = tree_to_graph(parse_sexpr("(i.pro ((pres run.v)))"))
    amap = align(s, gold, never_align=NEVER)
    actions = extract(s, gold, amap)
    monkeypatch.setattr(oracle_module, "graphs_equal", lambda a, b: False)
    with pytest.raises(OracleError, match="does not reconstruct the gold graph") as exc:
        extract(s, gold, amap)
    assert exc.value.config.steps == len(actions)
