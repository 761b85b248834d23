import pytest

from ulfparse.core import Token, parse_atom, parse_sexpr, tree_to_graph
from ulfparse.typesys import (
    ANY,
    Atomic,
    Func,
    Lexicon,
    TypeGrammar,
    check_arc,
    check_graph,
    compose,
    lexicon_filter,
    parse_type,
    render_type,
    tree_type,
    type_of,
    unify,
)

from goldens import MC002_ULF

G = TypeGrammar.default()


def test_type_of_examples():
    assert type_of(parse_atom("i.pro"), G) == Atomic("D")
    assert type_of(parse_atom("shoe.n"), G) == parse_type("(D -> T)")
    assert type_of(parse_atom("thing.unknowntag"), G) == ANY
    assert type_of(parse_atom("|Tom|"), G) == Atomic("D")
    assert type_of(parse_atom("mysteryop"), G) == ANY


def test_compose_examples():
    D, T = Atomic("D"), Atomic("T")
    assert compose(Func(D, T), D) == T
    assert compose(D, D) is None
    assert compose(ANY, D) == ANY
    assert compose(D, ANY) == ANY
    # operators work from either position
    assert compose(D, Func(D, T)) == T


def test_compose_any_always_nonempty():
    for t in (Atomic("D"), Func(Atomic("D"), Atomic("T")), ANY):
        assert compose(ANY, t) is not None
        assert compose(t, ANY) is not None


def test_check_arc_updates_head():
    v = type_of(parse_atom("want.v"), G)
    pres = type_of(parse_atom("pres"), G)
    ok, new = check_arc(pres, v)
    assert ok and new == v
    d = Atomic("D")
    ok, same = check_arc(d, d)
    assert not ok and same == d
    ok, _ = check_arc(ANY, d)
    assert ok


def test_variadic_verb_absorbs_arguments():
    v = type_of(parse_atom("tell.v"), G)
    d = Atomic("D")
    t1 = compose(v, d)
    assert t1 is not None
    t2 = compose(t1, d)
    assert t2 is not None


def test_mc002_composes_bottom_up():
    tree = parse_sexpr(MC002_ULF)
    violations = []
    assert tree_type(tree, G, violations) is not None
    assert violations == []


def test_check_graph_flags_bad_composition():
    g = tree_to_graph(parse_sexpr("(i.pro it.pro)"))  # D applied to D
    assert check_graph(g, G)


def test_render_parse_roundtrip():
    for expr in ["D", "?", "(D -> T)", "(? -> (?* -> T))",
                 "((D -> T)* -> (D -> T))", "(T -> (T* -> T))"]:
        assert render_type(parse_type(expr)) == expr


def test_grammar_loads_and_aliases():
    g = TypeGrammar.loads("alias N = (D -> T)\nsuffix n = N\nop plur = (N -> N)\n")
    assert g.suffixes["n"] == parse_type("(D -> T)")
    assert g.operators["plur"] == parse_type("((D -> T) -> (D -> T))")
    with pytest.raises(ValueError):
        TypeGrammar.loads("bogus line\n")


def test_unify_variadic_collapse():
    pred = parse_type("(D -> T)")
    varf = parse_type("((D -> T)* -> (D -> T))")
    assert unify(varf, pred)


def test_lexicon_filter():
    lex = Lexicon({"run": ["run.v", "run.n"]})
    word = Token("run", "run", "VB", 1)
    cands = {"run.v", "run.n", "run.a"}
    assert lexicon_filter(word, cands, lex) == {"run.v", "run.n"}
    absent = Token("zgwf", "zgwf", "NN", 1)
    assert lexicon_filter(absent, cands, lex) == cands
    lex2 = Lexicon({"run": ["jog.v"]})
    assert lexicon_filter(word, cands, lex2) == set()
    # an empty surface entry allows nothing: the lemma's entry is not read
    runs = Token("runs", "run", "VBZ", 1)
    assert lexicon_filter(runs, cands, Lexicon({"runs": [], "run": ["run.v"]})) == set()
    assert lexicon_filter(runs, cands, Lexicon({"run": ["run.v"]})) == {"run.v"}


def test_lexicon_load_tsv(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("run\trun.v run.n\nDog\tdog.n\n")
    lex = Lexicon.load(p)
    assert lex.allowed("Run") == {"run.v", "run.n"}
    assert lex.allowed("dog") == {"dog.n"}
    assert "cat" not in lex


def test_compose_order_symmetric_in_success():
    d = Atomic("D")
    f = Func(d, Atomic("T"))
    assert (compose(f, d) is None) == (compose(d, f) is None)
    assert (compose(d, d) is None) == (compose(d, d) is None)
    v = G.suffixes["v"]
    pres = G.operators["pres"]
    assert (compose(pres, v) is None) == (compose(v, pres) is None)
