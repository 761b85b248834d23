import pytest
from hypothesis import given, settings, strategies as st

from ulfparse import core
from ulfparse.core import (
    Atom,
    Sentence,
    UlfSyntaxError,
    emit_penman,
    graph_to_tree,
    graphs_equal,
    parse_atom,
    parse_penman,
    parse_sexpr,
    render_sexpr,
    tree_atoms,
    tree_to_graph,
)

import reference_reader as ref
from goldens import MC002_EDGES, MC002_PENMAN, MC002_ULF, MC002_VERTS


# -- atoms -------------------------------------------------------------------

def test_atom_kinds():
    assert parse_atom("x.n").stem == "x" and parse_atom("x.n").tag == "n"
    assert parse_atom("|Tom|").is_name
    assert parse_atom("|New York|").stem == "New York"
    assert parse_atom("pres").kind == "operator"
    assert parse_atom("had_better.aux-s").tag == "aux-s"


@pytest.mark.parametrize("spelling", [
    "run.v", "|Tom|", "|New York|", "pres", "adv-a", "{you}.pro",
    "had_better.aux-s", "=", "!", "n+preds", "|New York|.n",
])
def test_atom_render_parse_roundtrip(spelling):
    assert parse_atom(spelling).render() == spelling


# -- s-expressions -----------------------------------------------------------

def test_parse_nested_formula_prefix():
    tree = parse_sexpr("(i.pro ((pres want.v) (to dance.v)))")
    atoms = [a.render() for a in tree_atoms(tree)]
    assert atoms == ["i.pro", "pres", "want.v", "to", "dance.v"]


def test_parse_single_atom():
    atom = parse_sexpr("x.n")
    assert isinstance(atom, Atom) and atom.stem == "x" and atom.tag == "n"


def test_parse_unbalanced():
    with pytest.raises(UlfSyntaxError):
        parse_sexpr("(a.d (b.n")
    with pytest.raises(UlfSyntaxError):
        parse_sexpr("a.d)")
    with pytest.raises(UlfSyntaxError):
        parse_sexpr("")
    with pytest.raises(UlfSyntaxError):
        parse_sexpr("(|Tom run.v)")


def test_pipes_group_one_atom():
    tree = parse_sexpr("(|New York| big.a)")
    assert len(tree) == 2
    assert tree[0].stem == "New York"


def test_whitespace_insensitive():
    a = parse_sexpr("(a.d\n   (b.n   c.v))")
    b = parse_sexpr("(a.d (b.n c.v))")
    assert render_sexpr(a) == render_sexpr(b)


def test_empty_list_is_refused_at_any_depth():
    for text in ["()", "(i.pro (run.v ()))", "((()) a.n)", "(a.n ( ) b.n)"]:
        with pytest.raises(UlfSyntaxError, match="empty list"):
            parse_sexpr(text)
    with pytest.raises(UlfSyntaxError, match="empty list"):
        core.parse_sexpr_stream("(a.n b.n)\n(c.n ())")


def test_deep_nesting_reads_without_recursion():
    depth = 5000
    tree = parse_sexpr("(" * depth + "a.n" + ")" * depth)
    for _ in range(depth):
        assert isinstance(tree, list) and len(tree) == 1
        tree = tree[0]
    assert tree == Atom("a", "suffixed", "n")


# -- the reader against the reference reader ---------------------------------

# delimiters, pipes, comments, newlines and the kinds of whitespace
_READER_TEXT = st.text(alphabet="()/|;\n \t\u00a0\u2028a.", max_size=40)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except UlfSyntaxError as e:
        return "error", str(e)


@settings(max_examples=600, deadline=None)
@given(_READER_TEXT)
def test_tokenizer_matches_reference(text):
    assert _outcome(core._tokenize, text, core._SEXPR_TOKEN) == _outcome(
        ref._tokenize, text, "()", ";")
    assert _outcome(core._tokenize, text, core._PENMAN_TOKEN) == _outcome(
        ref._tokenize, text, "()/", None)


@settings(max_examples=600, deadline=None)
@given(_READER_TEXT)
def test_parser_matches_reference(text):
    for new, old in ((core.parse_sexpr, ref.parse_sexpr),
                     (core.parse_sexpr_stream, ref.parse_sexpr_stream)):
        got = _outcome(new, text)
        if got != ("error", "empty list"):  # the reference reads () as []
            assert got == _outcome(old, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="|.a b", max_size=8))
def test_memoized_atom_equals_fresh_one(spelling):
    fresh = _outcome(ref.parse_atom, spelling)
    for _ in range(2):  # the second call may hit the memo
        assert _outcome(parse_atom, spelling) == fresh
    assert (spelling in core._atoms) == (fresh[0] == "value")


def test_atom_memo_starts_over_when_full(monkeypatch):
    monkeypatch.setattr(core, "ATOM_MEMO_SIZE", 4)
    monkeypatch.setattr(core, "_atoms", {})
    for i in range(10):
        assert parse_atom("w%d.n" % i) == Atom("w%d" % i, "suffixed", "n")
        assert len(core._atoms) <= 4


# -- tree <-> graph ----------------------------------------------------------

def test_leftmost_parent_rule():
    g = tree_to_graph(parse_sexpr("(pres run.v)"))
    assert [v.symbol.render() for v in g.vertices] == ["pres", "run.v"]
    assert g.edges == [(0, 1, ":ARG0")]


def test_complex_rule():
    g = tree_to_graph(parse_sexpr("((pres want.v) it.pro)"))
    labels = [v.symbol.render() for v in g.vertices]
    assert labels == ["COMPLEX", "pres", "want.v", "it.pro"]
    assert set(g.edges) == {(0, 1, ":INSTANCE"), (1, 2, ":ARG0"), (0, 3, ":ARG0")}


def test_mc002_golden_graph():
    g = tree_to_graph(parse_sexpr(MC002_ULF))
    assert [v.symbol.render() for v in g.vertices] == MC002_VERTS
    assert set(g.edges) == MC002_EDGES
    assert g.root == 0
    g.validate()


def test_graph_to_tree_roundtrip_mc002():
    g = tree_to_graph(parse_sexpr(MC002_ULF))
    assert render_sexpr(graph_to_tree(g)) == MC002_ULF


def test_graph_to_tree_trivial():
    g = tree_to_graph(parse_sexpr("(pres run.v)"))
    assert render_sexpr(graph_to_tree(g)) == "(pres run.v)"
    g1 = tree_to_graph(parse_sexpr("run.v"))
    assert render_sexpr(graph_to_tree(g1)) == "run.v"


def test_graph_to_tree_rejects_broken():
    g = tree_to_graph(parse_sexpr("(a.d b.n c.v)"))
    g.edges[1] = (0, 2, ":ARG5")  # non-consecutive
    with pytest.raises(ValueError):
        graph_to_tree(g)


# -- penman ------------------------------------------------------------------

def test_penman_trivial():
    g = tree_to_graph(parse_sexpr("(pres run.v)"))
    assert emit_penman(g) == "(v0 / pres :ARG0 (v1 / run.v))"
    g1 = tree_to_graph(parse_sexpr("i.pro"))
    assert emit_penman(g1) == "(v0 / i.pro)"


def test_penman_mc002_golden():
    g = tree_to_graph(parse_sexpr(MC002_ULF))
    assert emit_penman(g) == MC002_PENMAN
    assert graphs_equal(parse_penman(MC002_PENMAN), g)


def test_penman_name_with_space():
    g = tree_to_graph(parse_sexpr("(|New York| big.a)"))
    assert graphs_equal(parse_penman(emit_penman(g)), g)


def test_penman_errors():
    for bad in ["", "(v0 / a.n", "(v0 a.n)", "(v0 / a.n :ARG0 v1)",
                "(v0 / a.n) junk"]:
        with pytest.raises(UlfSyntaxError):
            parse_penman(bad)


# -- random properties -------------------------------------------------------

_STEMS = ["run", "dog", "see", "new", "tom", "pres", "k", "in"]
_TAGS = ["v", "n", "a", "pro", "d", ""]


def _atoms():
    return st.builds(
        lambda stem, tag: Atom(stem, "suffixed", tag) if tag else Atom(stem, "operator"),
        st.sampled_from(_STEMS), st.sampled_from(_TAGS))


def _trees(depth):
    if depth == 0:
        return _atoms()
    return st.one_of(
        _atoms(),
        st.lists(_trees(depth - 1), min_size=2, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_trees(4))
def test_tree_graph_roundtrip_property(tree):
    g = tree_to_graph(tree)
    g.validate()
    assert render_sexpr(graph_to_tree(g)) == render_sexpr(tree)
    # vertex count: atoms + internal nodes whose leftmost child is a list
    n_atoms = len(tree_atoms(tree))
    assert len(g.vertices) == n_atoms + _count_complex(tree)
    # penman round-trip
    assert graphs_equal(parse_penman(emit_penman(g)), g)


def _count_complex(tree):
    if isinstance(tree, Atom):
        return 0
    own = 0 if isinstance(tree[0], Atom) else 1
    return own + sum(_count_complex(c) for c in tree)


# -- sentences ----------------------------------------------------------------

def test_sentence_invariants():
    s = Sentence.make(["a", "b"])
    assert len(s) == 2 and s.token(1).surface == "a"
    with pytest.raises(ValueError):
        Sentence.make([""])
