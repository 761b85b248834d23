import pytest
from hypothesis import given, settings, strategies as st

from ulfparse.align import AlignmentMap, _lcs_len, align, olap, rl, sim
from ulfparse.core import Sentence, Token, parse_atom, parse_sexpr, tree_to_graph
from ulfparse.oracle import DEFAULT_PROMOTE_SYMBOLS

from reference_align import reference_lcs_len

NEVER = frozenset(DEFAULT_PROMOTE_SYMBOLS)


def brute_olap(x, y):
    """Independent oracle: enumerate all substrings."""
    if not x or not y:
        return 0.0
    best = 0
    for xs, ys in ((x, y), (x.lower(), y.lower())):
        for i in range(len(xs)):
            for j in range(i + 1, len(xs) + 1):
                if xs[i:j] in ys:
                    best = max(best, j - i)
    return 2.0 * best / (len(x) + len(y))


def test_olap_examples():
    assert olap("shoe", "shoe") == 1.0
    assert olap("shoes", "shoe") == pytest.approx(8 / 9)
    assert brute_olap("shoes", "shoe") == pytest.approx(8 / 9)
    assert olap("abc", "xyz") == 0.0
    assert olap("", "anything") == 0.0


# words and atoms as a corpus spells them: mixed case, digits, the
# characters of symbol tags and multiword names, and one non-ASCII letter
_word = st.text(alphabet="abcABC019._É", max_size=16)


@settings(max_examples=300, deadline=None)
@given(_word, _word)
def test_olap_matches_bruteforce(x, y):
    # exact: olap's bits decide the order of the alignment sort
    assert olap(x, y) == brute_olap(x, y)


@settings(max_examples=300, deadline=None)
@given(_word, _word)
def test_lcs_len_equals_reference(x, y):
    assert _lcs_len(x, y) == reference_lcs_len(x, y)
    assert _lcs_len(x.lower(), y.lower()) == reference_lcs_len(x.lower(), y.lower())


def test_rl():
    assert rl(1, 4) == 0.25
    assert rl(4, 4) == 1.0
    assert rl(2, 8) == 0.25
    with pytest.raises(ValueError):
        rl(0, 4)
    with pytest.raises(ValueError):
        rl(5, 4)


def test_sim_identical_everything():
    tok = Token("shoe", "shoe", "NN", 1)
    atom = parse_atom("shoe.n")
    # stem overlap 1.0, POS/suffix overlap computed by the brute oracle,
    # relative locations identical
    expected = 1.0 + 0.5 * (brute_olap("NN", "n") + 1.0)
    assert sim(tok, 1, atom, 1, 1) == pytest.approx(expected)
    assert expected == pytest.approx(1.0 + 0.5 * (2 / 3 + 1.0))
    assert sim(tok, 1, atom, 1, 1) >= 1.0  # above MinSim


def test_sim_distant_and_disjoint():
    tok = Token("qqq", "qqq", "XX", 1)
    atom = parse_atom("zzz.yyy")
    got = sim(tok, 10, atom, 10, 10)
    assert got == pytest.approx(0.5 * (0.0 + (1.0 - abs(0.1 - 1.0))))
    assert got < 1.0


def test_align_i_run():
    s = Sentence.make(["I", "run"], ["i", "run"], ["PRP", "VBP"])
    gold = tree_to_graph(parse_sexpr("(i.pro ((pres run.v)))"))
    amap = align(s, gold, never_align=NEVER)
    assert amap.token_pairs == {(1, 0), (2, 2)}


def test_align_single_word():
    s = Sentence.make(["run"], ["run"], ["VB"])
    gold = tree_to_graph(parse_sexpr("run.v"))
    amap = align(s, gold)
    assert amap.token_pairs == {(1, 0)}
    assert amap.span_pairs == [((1, 1), frozenset({0}))]


def test_align_no_overlap_empty():
    s = Sentence.make(["qqq", "www"], ["qqq", "www"], ["XX", "XX"])
    gold = tree_to_graph(parse_sexpr("(zzz.kk yyy.jj)"))
    amap = align(s, gold, never_align=NEVER)
    assert amap.token_pairs == set()


def test_never_align_respected():
    s = Sentence.make(["pres"], ["pres"], ["XX"])
    gold = tree_to_graph(parse_sexpr("(pres run.v)"))
    amap = align(s, gold, never_align=NEVER)
    assert all(gold.vertices[v].symbol.render() != "pres"
               for _, v in amap.token_pairs)


def _tree_strategy():
    atoms = st.sampled_from(
        ["run.v", "dog.n", "see.v", "new.a", "i.pro", "the.d", "pres", "k"])
    return st.lists(atoms, min_size=2, max_size=6).map(
        lambda xs: "(" + " ".join(xs) + ")")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["run", "dog", "see", "new", "i", "the", "cat"]),
             min_size=1, max_size=6),
    _tree_strategy(),
)
def test_align_invariants(words, ulf):
    s = Sentence.make(words)
    gold = tree_to_graph(parse_sexpr(ulf))
    amap = align(s, gold, never_align=NEVER)
    # no pair below threshold, none on never-aligned atoms
    for w, v in amap.token_pairs:
        tok = s.token(w)
        assert sim(tok, len(words), gold.vertices[v].symbol, v + 1,
                   len(gold.vertices)) >= 1.0
        assert gold.vertices[v].symbol.render() not in NEVER
    # words per vertex form a contiguous span
    for vid in {v for _, v in amap.token_pairs}:
        ws = amap.words_of(vid)
        assert ws == list(range(min(ws), max(ws) + 1))
    # vertices per word form a connected subgraph
    adj = {i: set() for i in range(len(gold.vertices))}
    for src, dst, _ in gold.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    for widx in {w for w, _ in amap.token_pairs}:
        vs = {v for w, v in amap.token_pairs if w == widx}
        seen, todo = set(), [next(iter(vs))]
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(adj[v] & vs)
        assert seen == vs
    # spans disjoint
    spans = sorted(span for span, _ in amap.span_pairs)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2


def test_alignment_map_record():
    amap = AlignmentMap({(1, 0), (2, 2)}, [((1, 1), frozenset({0}))])
    rec = amap.to_record()
    assert rec["pairs"] == [[1, 0], [2, 2]]
    assert rec["spans"][0]["span"] == [1, 1]
