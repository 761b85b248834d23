"""The cached feature extractor equals the reference one: the reference's
keys, in the same order and without a repeat, on random legal walks and on
the configurations a beam decode scores, with and without a dependency
tree, with a fragment table shared across a sentence's configurations
and with a fresh one per call."""

from hypothesis import given, settings, strategies as st

from reference_features import extract_features as reference_features
from ulfparse import decode as dec
from ulfparse import machine as tm
from ulfparse.core import Sentence

# characters that also appear in the feature syntax: "=" ends a prefix,
# "&" joins conjunctions, "." separates a prefix's parts
TEXT = st.text(alphabet="ab&=.Z", min_size=1, max_size=4)

MACHINE = tm.Machine(arc_labels=[":ARG0", ":ARG1", ":a&b=c.d"],
                     suffixes=["", "n", "v", "p&=.q"],
                     symgen_vocab=["k", "that.pro", "{you}.pro"],
                     promote_syms=["pres", "plur"], step_cap=120)


@st.composite
def sentences_and_deps(draw):
    n = draw(st.integers(1, 7))
    surfaces = draw(st.lists(TEXT, min_size=n, max_size=n))
    lemmas = draw(st.lists(TEXT, min_size=n, max_size=n))
    pos = draw(st.lists(st.sampled_from(["NN", "VB", "P&S", "X=Y", "."]),
                        min_size=n, max_size=n))
    ner = draw(st.lists(st.sampled_from(["O", "B-&", "I=."]), min_size=n, max_size=n))
    sentence = Sentence.make(surfaces, lemmas, pos, ner)
    if draw(st.booleans()):
        # heads anywhere in the sentence: cycles and self-loops included
        dep = [(draw(st.integers(0, n)), draw(TEXT)) for _ in range(n)]
    else:
        dep = None
    return sentence, dep


def _reference(c, dep=None):
    """The reference features, each of which has value 1.0."""
    ref = reference_features(c, dep)
    assert set(ref.values()) == {1.0}
    return tuple(ref)


def _same(c, dep, frags):
    want = _reference(c, dep)
    assert dec.extract_features(c, dep, frags) == want
    assert dec.extract_features(c, dep) == want


@settings(max_examples=200, deadline=None)
@given(sentences_and_deps(), st.lists(st.integers(0, 1 << 16), max_size=90))
def test_cached_features_equal_reference_on_legal_walks(sd, picks):
    sentence, dep = sd
    frags = dec.SentenceFeatures(sentence, dep)
    c = MACHINE.init(sentence)
    for pick in picks:
        _same(c, dep, frags)
        legal = dec._concrete_candidates(MACHINE, c)
        if not legal or MACHINE.is_terminal(c):
            break
        c = MACHINE.apply(c, legal[pick % len(legal)])
    _same(c, dep, frags)


class CheckingScorer(dec.RandomScorer):
    """A random scorer that checks every features tuple it is sent."""

    def __init__(self, dep):
        super().__init__(seed=3)
        self.dep = dep
        self.calls = 0

    def score(self, c, features, legal):
        self.calls += 1
        assert features == _reference(c, self.dep)
        return super().score(c, features, legal)


@settings(max_examples=25, deadline=None)
@given(sentences_and_deps(), st.integers(1, 4))
def test_cached_features_equal_reference_in_beam_decodes(sd, beam):
    sentence, dep = sd
    scorer = CheckingScorer(dep)
    dec.beam_decode(sentence, scorer, MACHINE, beam_size=beam, cap=60, dep=dep)
    assert scorer.calls > 0


def test_fragment_table_of_another_sentence_is_not_used():
    a = Sentence.make(["a", "b"])
    b = Sentence.make(["c", "d"])
    frags = dec.SentenceFeatures(a)
    c = MACHINE.init(b)
    assert dec.extract_features(c, None, frags) == _reference(c)
    assert dec.extract_features(c, [(0, "root"), (1, "x")], dec.SentenceFeatures(b)) \
        == _reference(c, [(0, "root"), (1, "x")])


def test_vertex_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(dec, "FRAGMENT_MEMO_SIZE", 4)
    sentence = Sentence.make(["a", "b", "c", "d", "e", "f"])
    frags = dec.SentenceFeatures(sentence)
    c = MACHINE.init(sentence)
    for a in ["SYMGEN:k", "PUSHIDX:1", "NOARC", "NOPROMOTE", "NOPOP"] * 8:
        _same(c, None, frags)
        c = MACHINE.apply(c, a)
        assert len(frags._verts) <= 4
