import pytest
from hypothesis import given, settings, strategies as st

from ulfparse import machine as tm
from ulfparse.core import (
    Sentence,
    UlfSyntaxError,
    graph_to_tree,
    parse_atom,
    parse_sexpr,
    render_sexpr,
)

from goldens import I_RUN_ACTIONS
from reference_machine import ReferenceLegality


def sent(*surfaces, lemmas=None, pos=None):
    return Sentence.make(list(surfaces), lemmas, pos)


def test_init():
    m = tm.Machine()
    c = m.init(sent("a", "b"))
    assert c.stack == () and c.cache == (None, None)
    assert c.cursor == 1 and c.phase == tm.GEN and c.verts == ()
    c1 = m.init(sent("a"))
    assert c1.cursor == 1
    with pytest.raises(ValueError):
        m.init(Sentence("", ()))


def test_gen_menu():
    m = tm.Machine(symgen_vocab=["that.pro"], suffixes=["n"], promote_syms=["pres"])
    c = m.init(sent("a", "b"))
    kinds = {tm.action_kind(a) for a in m.legal_actions(c)}
    assert kinds == {"WORDGEN", "SYMGEN", "SKIP", "MERGEBUF"}
    # one word left: no MERGEBUF
    c1 = m.apply(c, "SKIP")
    kinds = {tm.action_kind(a) for a in m.legal_actions(c1)}
    assert kinds == {"WORDGEN", "SYMGEN", "SKIP"}
    # buffer empty: only SYMGEN remains
    c2 = m.apply(c1, "SKIP")
    kinds = {tm.action_kind(a) for a in m.legal_actions(c2)}
    assert kinds == {"SYMGEN"}


def test_wordgen_menu():
    m = tm.Machine()
    c = m.apply(m.init(sent("a")), "WORDGEN")
    assert m.legal_actions(c) == ["NAME", "LEMMA", "TOKEN"]


def test_pop_menu_empty_stack():
    m = tm.Machine()
    c = m.init(sent("a"))
    for a in ["WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:0", "NOARC", "NOPROMOTE"]:
        c = m.apply(c, a)
    assert c.phase == tm.POP and c.stack
    c_nostack = c
    # drain the stack with a pop, then only NOPOP remains
    c2 = m.apply(c_nostack, "POP")
    for a in ["NOARC", "NOPROMOTE"]:
        c2 = m.apply(c2, a)
    assert c2.phase == tm.POP and not c2.stack
    assert m.legal_actions(c2) == ["NOPOP"]


def test_suffix_semantics():
    m = tm.Machine()
    c = m.init(sent("shoes", lemmas=["shoe"], pos=["NNS"]))
    c = m.apply(c, "WORDGEN")
    c = m.apply(c, "LEMMA")
    assert c.phase == tm.LEMMAGEN
    c = m.apply(c, "SUFFIX:n")
    assert c.phase == tm.PUSH
    v = c.verts[c.pending]
    assert v.symbol.render() == "shoe.n" and v.alignment == 1
    assert c.cursor == 2


def test_tokengen_lowercases():
    m = tm.Machine()
    c = m.init(sent("Run"))
    for a in ["WORDGEN", "TOKEN", "SUFFIX:v"]:
        c = m.apply(c, a)
    assert c.verts[0].symbol.render() == "run.v"


def test_namegen_keeps_case():
    m = tm.Machine()
    c = m.init(sent("Tom"))
    for a in ["WORDGEN", "NAME", "SUFFIX:"]:
        c = m.apply(c, a)
    assert c.verts[0].symbol.render() == "|Tom|"


def test_mergebuf_name_and_token():
    m = tm.Machine()
    # merged name joins with a space
    c = m.init(sent("New", "York"))
    for a in ["MERGEBUF", "WORDGEN", "NAME", "SUFFIX:"]:
        c = m.apply(c, a)
    assert c.verts[0].symbol.render() == "|New York|"
    assert c.cursor == 3
    # merged token joins with an underscore
    c = m.init(sent("had", "better"))
    for a in ["MERGEBUF", "WORDGEN", "TOKEN", "SUFFIX:aux-s"]:
        c = m.apply(c, a)
    assert c.verts[0].symbol.render() == "had_better.aux-s"


@pytest.mark.parametrize("surface, lemma, offer", [
    ("dog", "dog", ["NAME", "LEMMA", "TOKEN"]),
    ("a;b", "a;b", ["NAME", "LEMMA", "TOKEN"]),
    ("dog", ")", ["NAME", "TOKEN"]),
    ("(", "dog", ["NAME", "LEMMA"]),
    ("(", "(", ["NAME"]),
    (";x", ";x", ["NAME"]),
    ("U.S", "u.s", ["NAME"]),
])
def test_wordgen_offers_stems_that_read_back(surface, lemma, offer):
    # LEMMA and TOKEN are offered only over a stem the reader gives back
    # as one atom token without a dot; NAME puts any word between pipes
    m = tm.Machine()
    c = m.apply(m.init(sent(surface, lemmas=[lemma])), "WORDGEN")
    assert m.legal_actions(c) == offer
    for a in ("LEMMA", "TOKEN"):
        assert m.is_legal(c, a) == (a in offer)
        if a not in offer:
            with pytest.raises(tm.IllegalAction):
                m.apply(c, a)


def test_front_stems():
    s = sent("New", "York", "(", lemmas=["new", "york", "paren"])
    assert tm.front_stems(s, 1, 2) == ("New York", "new_york", "new_york")
    assert tm.front_stems(s, 2, 2) == ("York (", "york_(", "york_paren")
    assert tm.front_stems(s, 3, 1) == ("(", "(", "paren")


# words that mix letters with parentheses, comments and dots
_odd_words = st.text("aB();.", min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_odd_words, _odd_words), min_size=1, max_size=5),
       st.lists(st.integers(0, 1 << 30), min_size=20, max_size=150))
def test_fragments_read_back(words, picks):
    # on legal walks over such words, every fragment renders to text that
    # the reader gives back as the same tree of atoms
    m = WALK_MACHINE
    c = m.init(sent(*[w for w, _ in words], lemmas=[lem for _, lem in words]))
    for pick in picks:
        legal = m.legal_actions(c)
        if not legal or c.steps > 150:
            break
        c = m.apply(c, legal[pick % len(legal)])
    for frag in m.extract_result(c):
        tree = graph_to_tree(frag, strict=False)
        assert parse_sexpr(render_sexpr(tree)) == tree


def test_promote_pair():
    m = tm.Machine()
    c = m.init(sent("shoes", lemmas=["shoe"]))
    for a in ["WORDGEN", "LEMMA", "SUFFIX:n", "PUSHIDX:1", "NOARC"]:
        c = m.apply(c, a)
    assert c.phase == tm.PROMOTE
    c = m.apply(c, "PROMOTE_SYM:plur")
    assert c.phase == tm.PROMOTEARC
    c = m.apply(c, "PROMOTE_ARC")
    # plur -> shoe.n, plur replaces shoe.n in the cache, shoe.n retired
    assert c.phase == tm.ARC
    plur, shoe = c.verts[1], c.verts[0]
    assert plur.symbol.render() == "plur" and plur.alignment is None
    assert c.edges == ((1, 0, ":ARG0"),)
    assert c.cache[1] == 1
    assert 0 not in c.cache and all(v != 0 for _, v in c.stack)


def test_arc_directions():
    m = tm.Machine()
    c = m.init(sent("a", "b"))
    for a in ["WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:0", "NOARC", "NOPROMOTE",
              "NOPOP", "WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:1"]:
        c = m.apply(c, a)
    assert c.cache == (0, 1)
    right = m.apply(c, "ARC:0:right")
    assert right.edges == ((0, 1, ":ARG0"),)
    left = m.apply(c, "ARC:0:left")
    assert left.edges == ((1, 0, ":ARG0"),)
    # the labelled spelling of earlier action files is no action
    for old in ("ARC:0:right::ARG0", "ARC:0:left::ARG0"):
        assert not m.is_legal(c, old)
        with pytest.raises(tm.IllegalAction):
            m.apply(c, old)


def test_arc_forest_guard():
    m = tm.Machine(symgen_vocab=["x.pro"])
    c = m.init(sent("a", "b"))
    for a in ["WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:0", "NOARC", "NOPROMOTE",
              "NOPOP", "WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:1",
              "ARC:0:right", "NOPROMOTE", "NOPOP",
              "SYMGEN:x.pro", "PUSHIDX:0"]:
        c = m.apply(c, a)
    # cache is (new vertex 2, attached vertex 1): arcs into 1 are illegal,
    # only the arc giving 2 a parent remains
    assert c.cache == (2, 1)
    arcs = [a for a in m.legal_actions(c) if tm.action_kind(a) == "ARC"]
    assert arcs == ["ARC:0:left"]


def test_arc_labels_follow_position():
    # an arc takes its head's next label: :ARG0, :ARG1, ... in attachment
    # order, and a COMPLEX head's first child is its :INSTANCE
    m = tm.Machine()
    head_then_two = ["PUSHIDX:0", "NOARC", "NOPROMOTE", "NOPOP",
                     "WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:1", "ARC:0:right",
                     "NOPROMOTE", "NOPOP",
                     "WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:1", "ARC:0:right"]
    c = m.replay(sent("a", "b"), ["SYMGEN:COMPLEX"] + head_then_two)
    assert c.edges == ((0, 1, ":INSTANCE"), (0, 2, ":ARG0"))
    c = m.replay(sent("a", "b"), ["SYMGEN:k"] + head_then_two)
    assert c.edges == ((0, 1, ":ARG0"), (0, 2, ":ARG1"))
    # a promoted vertex takes its one child as its first
    c = m.replay(sent("a"), ["WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:1", "NOARC",
                             "PROMOTE_SYM:COMPLEX", "PROMOTE_ARC"])
    assert c.edges == ((1, 0, ":INSTANCE"),)


def test_wordless_run_bound():
    # SYMGEN and PROMOTE_SYM leave the offer once the run of vertices
    # made without a word reaches the bound; SUFFIX and SKIP reset it
    m = tm.Machine(max_wordless_run=2)
    c = m.replay(sent("a", "b"), ["SYMGEN:k", "PUSHIDX:1", "NOARC"])
    assert c.wordless_run == 1 and "PROMOTE_SYM:*" in m.legal_actions(c)
    c = m.replay(sent("a", "b"), ["SYMGEN:k", "PUSHIDX:1", "NOARC",
                                  "PROMOTE_SYM:pres", "PROMOTE_ARC", "NOARC"])
    assert c.wordless_run == 2 and c.phase == tm.PROMOTE
    assert m.legal_actions(c) == ["NOPROMOTE"]
    for action in ("PROMOTE_SYM:pres", "PROMOTE_SYM:*"):
        assert not m.is_legal(c, action)
    with pytest.raises(tm.IllegalAction):
        m.apply(c, "PROMOTE_SYM:pres")
    assert "PROMOTE_SYM:*" in tm.Machine().legal_actions(c)  # unbounded
    c = m.apply(m.apply(c, "NOPROMOTE"), "NOPOP")
    assert m.legal_actions(c) == ["MERGEBUF", "SKIP", "WORDGEN"]
    assert not m.is_legal(c, "SYMGEN:k")
    skipped = m.apply(c, "SKIP")
    assert skipped.wordless_run == 0 and m.is_legal(skipped, "SYMGEN:k")
    read = m.replay(sent("a", "b"), ["SYMGEN:k", "PUSHIDX:1", "NOARC", "NOPROMOTE",
                                     "NOPOP", "SYMGEN:k", "PUSHIDX:0", "NOARC",
                                     "NOPROMOTE", "NOPOP", "WORDGEN", "TOKEN"])
    assert read.wordless_run == 2
    read = m.apply(read, "SUFFIX:n")
    assert read.wordless_run == 0
    assert tm.longest_wordless_run([["SYMGEN:k", "SKIP", "SYMGEN:k", "PROMOTE_SYM:k",
                                     "SUFFIX:n", "PROMOTE_SYM:k"], []]) == 2
    assert tm.Machine(max_wordless_run=0).legal_actions(m.init(sent("a"))) == \
        ["SKIP", "WORDGEN"]


def test_illegal_actions_raise():
    m = tm.Machine()
    c = m.init(sent("a"))
    with pytest.raises(tm.IllegalAction):
        m.apply(c, "POP")
    with pytest.raises(tm.IllegalAction):
        m.apply(c, "SUFFIX:n")
    with pytest.raises(tm.IllegalAction):
        m.apply(c, "MERGEBUF")  # single word


def test_symbol_parameter_that_is_no_atom_is_illegal():
    # an open vocabulary offers a SYMGEN or PROMOTE_SYM parameter only if
    # it spells an atom, as apply needs; a closed one leaves such entries out
    m = tm.Machine()
    c = m.init(sent("shoes", lemmas=["shoe"]))
    for action in ("SYMGEN:", "SYMGEN:|x"):
        assert not m.is_legal(c, action)
        with pytest.raises(tm.IllegalAction, match="illegal"):
            m.apply(c, action)
    assert m.is_legal(c, "SYMGEN:|x|") and m.is_legal(c, "SYMGEN:k")
    for a in ["WORDGEN", "LEMMA", "SUFFIX:n", "PUSHIDX:1", "NOARC"]:
        c = m.apply(c, a)
    assert not m.is_legal(c, "PROMOTE_SYM:")
    with pytest.raises(tm.IllegalAction, match="illegal"):
        m.apply(c, "PROMOTE_SYM:")
    closed = tm.Machine(symgen_vocab=["", "k", "|x"])
    c = closed.init(sent("shoes"))
    assert [a for a in closed.legal_actions(c) if a.startswith("SYMGEN")] == ["SYMGEN:k"]
    assert not closed.is_legal(c, "SYMGEN:") and not closed.is_legal(c, "SYMGEN:|x")


def test_action_text_format():
    assert (tm.LEFT_ARC, tm.RIGHT_ARC, tm.PROMOTE_ARC) == \
        ("ARC:0:left", "ARC:0:right", "PROMOTE_ARC")
    text = tm.format_actions(["WORDGEN", "SUFFIX:", "PROMOTE_ARC"])
    assert text == "WORDGEN\nSUFFIX:\nPROMOTE_ARC\n"
    recs = tm.parse_action_file("# id: s1\nWORDGEN\nSUFFIX:n\n# id: s2\nSKIP\n")
    assert recs == [("s1", ["WORDGEN", "SUFFIX:n"]), ("s2", ["SKIP"])]


def test_replay_terminal_and_fragments():
    m = tm.Machine()
    s = sent("I", "run", ".", lemmas=["i", "run", "."], pos=["PRP", "VBP", "."])
    c = m.replay(s, I_RUN_ACTIONS)
    assert m.is_terminal(c)
    frags = m.extract_result(c)
    assert len(frags) == 1
    # vertices in creation order: the promoted pres arrives after run.v
    assert [v.symbol.render() for v in frags[0].vertices] == ["i.pro", "run.v", "pres"]
    from ulfparse.core import graph_to_tree, render_sexpr
    assert render_sexpr(graph_to_tree(frags[0])) == "(i.pro (pres run.v))"


def test_not_terminal_at_init():
    m = tm.Machine()
    c = m.init(sent("a"))
    assert not m.is_terminal(c)


def test_forced_stop_yields_fragments():
    m = tm.Machine()
    s = sent("a", "b")
    # generate two unconnected vertices, then stop: 2 fragments, invariants hold
    c = m.init(s)
    for a in ["WORDGEN", "TOKEN", "SUFFIX:n", "PUSHIDX:0", "NOARC", "NOPROMOTE",
              "NOPOP", "WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:1", "NOARC",
              "NOPROMOTE", "NOPOP"]:
        c = m.apply(c, a)
    frags = m.extract_result(c)
    assert len(frags) == 2
    for f in frags:
        f.validate()


def test_replay_determinism():
    m = tm.Machine()
    s = sent("I", "run", ".", lemmas=["i", "run", "."], pos=["PRP", "VBP", "."])
    a = m.replay(s, I_RUN_ACTIONS)
    b = m.replay(s, I_RUN_ACTIONS)
    assert a == b


# -- random walk invariants ---------------------------------------------------

def labels_positional(frag):
    """Whether each head's children carry consecutive positional labels:
    :INSTANCE first under a COMPLEX head, then :ARG0, :ARG1, ...."""
    for v, vert in enumerate(frag.vertices):
        labels = [lab for _, lab in frag.children(v)]
        first = [":INSTANCE"] if vert.symbol.render() == "COMPLEX" else []
        if labels != (first + [":ARG%d" % k for k in range(len(labels))])[:len(labels)]:
            return False
    return True


WALK_MACHINE = tm.Machine(
    suffixes=["", "n", "v"],
    symgen_vocab=["k", "that.pro"],
    promote_syms=["pres", "plur"],
)


def _check_invariants(c):
    assert len(c.cache) == 2
    places = []
    for vid in range(len(c.verts)):
        spots = []
        if vid in c.cache:
            spots.append("cache")
        if any(v == vid for _, v in c.stack):
            spots.append("stack")
        if c.pending == vid:
            spots.append("pending")
        if c.promoted == vid:
            spots.append("promoted")
        assert len(spots) <= 1
        places.append(spots)
    # forest: at most one parent, no cycles
    parents = {}
    for src, dst, _ in c.edges:
        assert dst not in parents
        parents[dst] = src
    for vid in parents:
        seen = set()
        v = vid
        while v in parents:
            assert v not in seen
            seen.add(v)
            v = parents[v]
    # alignment convention per creation action
    return True


# the open-vocabulary machine lists "*" markers in place of parameters
OPEN_MACHINE = tm.Machine()


def _action_pool(m):
    """Every action of m's vocabularies in any phase, out-of-vocabulary
    stand-ins for open-vocabulary markers, and malformed variants."""
    fixed = ["WORDGEN", "NAME", "LEMMA", "TOKEN", "SKIP", "MERGEBUF",
             "PUSHIDX:0", "PUSHIDX:1", "ARC:0:left", "ARC:0:right", "NOARC",
             "PROMOTE_ARC", "NOPROMOTE", "POP", "NOPOP"]
    menus = (["SYMGEN:" + s for s in m.symgen_vocab]
             + ["SUFFIX:" + e for e in m.suffixes]
             + ["PROMOTE_SYM:" + s for s in m.promote_syms])
    # labelled arc actions are the spelling of earlier action files
    stand_ins = ["SYMGEN:zz.n", "SUFFIX:adv-a", "SUFFIX:", "PROMOTE_SYM:zz",
                 "PROMOTE_ARC::ARG0", "ARC:0:left::ARG0", "ARC:0:right::ARG1",
                 "ARC:0:left:", "SYMGEN:"]
    malformed = ["", "SYMGEN", "SUFFIX", "PROMOTE_SYM", "ARC",
                 "ARC:0", "ARC:1:left", "ARC:0:up", "ARC:1:left::ARG0", "ARC:0:up::ARG0",
                 "ARC:x:right::ARG1", "POP:x", "NOPOP:", "NOARC:x", "PUSHIDX",
                 "PUSHIDX:2", "PUSHIDX:", "WORDGEN:x", "NAME:x", "SKIP:0",
                 "MERGEBUF:x", "NOPROMOTE:x", "GEN", "arc:0:left::ARG0"]
    return fixed + menus + stand_ins + malformed


WALK_POOL = _action_pool(WALK_MACHINE)


def _applicable_param(action):
    """A SYMGEN or PROMOTE_SYM parameter must spell an atom; others are free."""
    kind, _, param = action.partition(":")
    if kind not in ("SYMGEN", "PROMOTE_SYM"):
        return True
    try:
        parse_atom(param)
    except UlfSyntaxError:
        return False
    return True


def _listed(legal, action):
    """action is in legal, or matches one of its open-vocabulary markers
    with a parameter apply can take."""
    return action in legal or any(
        a.endswith(":*") and action.startswith(a[:-1]) for a in legal) \
        and _applicable_param(action)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1 << 30), min_size=5, max_size=60))
def test_random_walk_preserves_invariants(choices):
    m = WALK_MACHINE
    s = sent("New", "York", "is", "big")
    c = m.init(s)
    run = 0
    for pick in choices:
        legal = [a for a in m.legal_actions(c) if not a.endswith(":*")]
        if not legal or c.steps > 100:
            break
        c = m.apply(c, legal[pick % len(legal)])
        _check_invariants(c)
        # the word-less run counts the word-less vertices since the last
        # SUFFIX or SKIP
        kind = tm.action_kind(c.last_action)
        run = 0 if kind in ("SUFFIX", "SKIP") else \
            run + (kind in ("SYMGEN", "PROMOTE_SYM"))
        assert c.wordless_run == run
        assert all(map(labels_positional, m.extract_result(c)))
        # is_legal and legal_actions agree, closed vocabularies and open
        for mach in (m, OPEN_MACHINE):
            menu = mach.legal_actions(c)
            for a in WALK_POOL:
                assert mach.is_legal(c, a) == _listed(menu, a), (c.phase, a)
        # the parents tuple agrees with a scan of the edges
        scanned = [None] * len(c.verts)
        for src, dst, _ in c.edges:
            scanned[dst] = src
        assert c.parents == tuple(scanned)
        # the walk-up cycle check agrees with the descendants rule
        below = [c.descendants(v) for v in range(len(c.verts))]
        for src in range(len(c.verts)):
            for dst in range(len(c.verts)):
                want = scanned[dst] is None and src != dst and src not in below[dst]
                assert m._arc_ok(c, src, dst) == want
        # vertices from SUFFIX carry alignments; generated symbols do not
        if c.last_action.startswith("SUFFIX"):
            assert c.verts[-1].alignment is not None
        if c.last_action.startswith(("SYMGEN", "PROMOTE_SYM")):
            assert c.verts[-1].alignment is None


# -- the legality table against the rules as first written ---------------------

# (surface, lemma) words of the walks: plain ones, and ones whose token or
# lemma stem does not read back, so WORDGEN leaves out TOKEN, LEMMA or both
WALK_WORDS = (("New", "new"), ("York", "york"), ("is", "be"), ("big", "big"),
              (".", "."), ("(", "("), ("dog", ")"), (";x", "x"), ("a;b", "a;b"),
              ("U.S", "us"), ("(dog", "dog"))
walk_sentences = st.lists(st.sampled_from(WALK_WORDS), min_size=1, max_size=5).map(
    lambda words: sent(*[s for s, _ in words], lemmas=[lem for _, lem in words]))


# closed vocabularies (an empty suffix among them), open ones, closed but
# empty ones, in which no parameterized action is legal, and bounded
# word-less runs
LEGALITY_MACHINES = (WALK_MACHINE, OPEN_MACHINE,
                     tm.Machine(suffixes=[], symgen_vocab=[], promote_syms=[]),
                     tm.Machine(suffixes=["n"], symgen_vocab=["k", "COMPLEX"],
                                promote_syms=["pres", "COMPLEX"], max_wordless_run=2),
                     tm.Machine(max_wordless_run=0))
# what a walk puts in place of an open vocabulary's "*" marker
OPEN_PARAMS = ("", "that.pro", "n", "*")
LEGALITY_POOL = WALK_POOL + ["SYMGEN:*", "SUFFIX:*", "PROMOTE_SYM:*",
                             "PROMOTE_ARC:*", "PROMOTE_ARC:", "ARC:0:left:*",
                             "ARC:0:right:*", "ARC:0:right:", "PROMOTE_SYM:",
                             "ARC:0:left:::ARG0", "ARC:0:right:left:x"]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LEGALITY_MACHINES), walk_sentences,
       st.lists(st.integers(0, 1 << 30), min_size=30, max_size=150))
def test_legality_table_equals_reference(m, sentence, picks):
    ref = ReferenceLegality(m)
    c = m.init(sentence)
    for pick in picks:
        menu = m.legal_actions(c)
        assert menu == [a for a in ref.legal_actions(c) if _applicable_param(a)], c.phase
        for a in LEGALITY_POOL:
            want = ref.is_legal(c, a) and _applicable_param(a)
            assert m.is_legal(c, a) == want, (c.phase, a)
        if not menu or c.steps > 150:
            break
        action = menu[pick % len(menu)]
        if action.endswith(":*"):
            action = action[:-1] + OPEN_PARAMS[pick % len(OPEN_PARAMS)]
            if action == "SYMGEN:" or action == "PROMOTE_SYM:":
                action += "k"  # an empty atom does not parse
        c = m.apply(c, action)


# -- legal means applicable ------------------------------------------------------

# closed vocabularies with entries that spell no atom, beside the others
APPLY_MACHINES = LEGALITY_MACHINES + (
    tm.Machine(suffixes=["n"], symgen_vocab=["", "k", "|x"],
               promote_syms=["pres", "|a", "|b|c"]),)
APPLY_POOL = LEGALITY_POOL + ["SYMGEN:", "SYMGEN:|x", "SYMGEN:|x|", "SYMGEN:|x|.n",
                              "SYMGEN:|x|y", "SYMGEN:k", "SYMGEN:.", "SYMGEN:a.",
                              "PROMOTE_SYM:|a", "PROMOTE_SYM:|b|c", "PROMOTE_SYM:pres",
                              "SUFFIX:|x", "PROMOTE_ARC:|x", "ARC:0:left:|x"]


def _applies(m, c, action):
    try:
        m.apply(c, action)
    except Exception:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(APPLY_MACHINES), walk_sentences,
       st.lists(st.integers(0, 1 << 30), min_size=30, max_size=120))
def test_legal_exactly_when_apply_succeeds(m, sentence, picks):
    # on random walks, for concrete and malformed actions alike, open and
    # closed vocabularies: is_legal(c, a) holds exactly when apply(c, a)
    # does not raise, and every concrete action legal_actions offers applies
    c = m.init(sentence)
    for pick in picks:
        menu = m.legal_actions(c)
        for a in APPLY_POOL + [a for a in menu if not a.endswith(":*")]:
            assert m.is_legal(c, a) == _applies(m, c, a), (c.phase, a)
        if not menu or c.steps > 120:
            break
        action = menu[pick % len(menu)]
        if action.endswith(":*"):
            prefix = action[:-1]
            action = prefix + OPEN_PARAMS[pick % len(OPEN_PARAMS)]
            if not m.is_legal(c, action):
                action = prefix + "k"  # "" spells no atom
        c = m.apply(c, action)
