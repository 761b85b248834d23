"""Beam-search decoding with a pluggable scorer.

The scorer interface is ``score(config, features, legal) -> list``: one
log-weight per legal action, in the order of legal, a tuple the beam
shares between calls, which a scorer must not change.  features is the
tuple of binary feature strings that extract_features gives the
configuration: a feature is present or absent, and has no value.  A
scorer whose forced_moves_free is true promises a finite reply without
side effects to a one-action menu, so the beam need not ask it.
Implementations: an averaged perceptron over these transition-state
features, an oracle-following scorer for testing, a seeded random
scorer for baselines, and a line-protocol client for external scorer
processes.

Decoding applies two optional constraints: a lexicon restricting which
word-anchored symbols may be generated, and a type-composition filter
that vetoes arcs whose endpoint types cannot compose.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import os
import select
import subprocess
import time
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import machine as tm
from .typesys import check_arc, lexicon_filter, type_of

EXTERNAL_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# Transition-state features


# distinct entries one SentenceFeatures keeps per vertex or phase table
# before starting that table over.  A beam-10 decode of a benchmark
# sentence sees 80-300 vertices and up to 300 features per phase; the
# other tables grow with the sentence length only.
FRAGMENT_MEMO_SIZE = 1 << 11

_GEN_PHASES = (tm.POP, tm.GEN, tm.WORDGEN, tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN)

# per phase, the (prefix, prefix) pairs of features that are conjoined
_GEN_PAIRS = (("buf.pos=", "c1.sym="), ("buf.w=", "c1.sym="),
              ("c1.narc=", "c1.sym="), ("c1.inlab=", "c1.sym="),
              ("stack.topsym=", "c1.sym="), ("stack.top=", "c1.sym="),
              ("c0.sym=", "c1.sym="), ("buf.w=", "buf+1.w="))
_ARC_PAIRS = (("c0.sym=", "c1.sym="), ("stack.topsym=", "c1.sym="))
_WORD_PAIRS = (("buf.pos=", "buf.w="), ("buf.pos=", "c1.sym="),
               ("buf.w=", "buf+1.w="))
_CONJ_PAIRS = {
    tm.POP: _GEN_PAIRS, tm.GEN: _GEN_PAIRS,
    tm.PUSH: (("pend.sym=", "c1.sym="), ("pend.sym=", "c0.sym="),
              ("pend.pos=", "buf.pos="), ("pend.sym=", "buf.pos=")),
    tm.ARC: _ARC_PAIRS, tm.PROMOTE: _ARC_PAIRS, tm.PROMOTEARC: _ARC_PAIRS,
    tm.NAMEGEN: _WORD_PAIRS, tm.LEMMAGEN: _WORD_PAIRS,
    tm.TOKENGEN: _WORD_PAIRS, tm.WORDGEN: _WORD_PAIRS,
}

_NO_SYMBOL = {p: {p + ".sym=": p + ".sym=<none>"} for p in ("c0", "c1", "pend")}
_STACK_N = tuple("stack.n=%d" % i for i in range(9))
# prefixes of the ULF-arc features: count, outgoing labels, incoming label
_ARC_KEYS = {p: ("%s.narc=" % p, tuple("%s.alab%d=" % (p, i) for i in range(3)),
                 "%s.inlab=" % p)
             for p in ("c0", "c1")}


class SentenceFeatures:
    """Feature fragments of one sentence and its dependency tree.

    A fragment is a dict {prefix: feature} of the features one part of a
    configuration contributes, where the prefix is the feature up to its
    first "=".  No configuration has two features with one prefix, so a
    configuration's fragments merge into one such dict, and _conjoin
    finds a prefix's feature there.

    Token, dependent and lookahead fragments, the ancestor paths behind
    dependency distances and each prefix's <none> fragment depend on the
    sentence only and are built once, at most a few per word.  Symbol
    fragments are kept per vertex object and phase-conjoined features per
    phase, each table up to FRAGMENT_MEMO_SIZE entries before it starts
    over.  A vertex entry holds its vertex, so its id is not reused while
    the entry lives.  Fragments are shared: never change one.
    """

    def __init__(self, sentence, dep=None):
        self.sentence = sentence
        self.dep = dep
        self.sent_n = "sent.n=%d" % min(len(sentence), 20)
        self._tokens = {}     # (prefix, word index or None) -> fragment
        self._deps = {}       # (prefix, word index or None) -> fragment
        self._lookahead = {}  # buffer word index -> buf+1 and buf+2 fragment
        self._paths = {}      # word index -> (ancestor path, {ancestor: position})
        # id(vertex) -> (vertex, rendering, {prefix: fragment, "stack": feature})
        self._verts = {}
        self._phased = {}     # phase -> {feature: "phase=<phase>&feature"}
        self._right = {}      # head word -> [(dependent index, label)]
        for j, (h, lab) in enumerate(dep or (), 1):
            self._right.setdefault(h, []).append((j, lab))

    def token(self, prefix, widx):
        if widx is not None and not 1 <= widx <= len(self.sentence):
            widx = None
        frag = self._tokens.get((prefix, widx))
        if frag is None:
            if widx is None:
                frag = {prefix + ".w=": prefix + ".w=<none>"}
            else:
                tok = self.sentence.token(widx)
                frag = {}
                for name, value in (("w", tok.surface.lower()),
                                    ("l", tok.lemma.lower()),
                                    ("pos", tok.pos), ("ner", tok.ner)):
                    key = "%s.%s=" % (prefix, name)
                    frag[key] = "%s%s" % (key, value)
            self._tokens[prefix, widx] = frag
        return frag

    def _vertex(self, v):
        memo = self._verts
        entry = memo.get(id(v))
        if entry is None or entry[0] is not v:
            if len(memo) >= FRAGMENT_MEMO_SIZE:
                memo.clear()
            entry = memo[id(v)] = (v, v.symbol.render(), {})
        return entry

    def symbol(self, prefix, v):
        """The symbol and token fragment of vertex v (None: no vertex)."""
        if v is None:
            return _NO_SYMBOL[prefix]
        _, text, frags = self._vertex(v)
        frag = frags.get(prefix)
        if frag is None:
            key = prefix + ".sym="
            frag = frags[prefix] = {key: key + text}
            frag.update(self.token(prefix, v.alignment))
        return frag

    def stack_symbol(self, v):
        if v is None:
            return "stack.topsym=<nil>"
        _, text, frags = self._vertex(v)
        key = frags.get("stack")
        if key is None:
            key = frags["stack"] = "stack.topsym=" + text
        return key

    def dependents(self, prefix, widx):
        """Count and first three labels of the rightward dependents."""
        dep = self.dep
        if dep is None or widx is None or not 1 <= widx <= len(dep):
            widx = None
        frag = self._deps.get((prefix, widx))
        if frag is None:
            if widx is None:
                frag = {prefix + ".dep=": prefix + ".dep=<none>"}
            else:
                labels = [lab for j, lab in self._right.get(widx, ()) if j > widx]
                key = prefix + ".ndep="
                frag = {key: "%s%d" % (key, len(labels))}
                for i, lab in enumerate(labels[:3]):
                    key = "%s.dlab%d=" % (prefix, i)
                    frag[key] = "%s%s" % (key, lab)
            self._deps[prefix, widx] = frag
        return frag

    def _path(self, w):
        """Ancestors of word w, itself first, up to the root or a cycle."""
        found = self._paths.get(w)
        if found is None:
            dep, n = self.dep, len(self.dep)
            path, seen = [w], {w}
            while True:
                h = dep[path[-1] - 1][0]
                if h == 0 or h in seen or not (1 <= h <= n):
                    break
                path.append(h)
                seen.add(h)
            found = self._paths[w] = (path, {a: i for i, a in enumerate(path)})
        return found

    def dep_distance(self, w1, w2):
        """Length of the tree path between words w1 and w2, or None."""
        dep = self.dep
        if dep is None or w1 is None or w2 is None:
            return None
        n = len(dep)
        if not (1 <= w1 <= n and 1 <= w2 <= n):
            return None
        up1 = self._path(w1)[0]
        at2 = self._path(w2)[1]
        return min((i + at2[a] for i, a in enumerate(up1) if a in at2),
                   default=None)

    def lookahead(self, buf):
        frag = self._lookahead.get(buf)
        if frag is None:
            frag = {}
            n = len(self.sentence)
            for ahead in (1, 2):
                if buf + ahead <= n:
                    tok = self.sentence.token(buf + ahead)
                    frag["buf+%d.w=" % ahead] = "buf+%d.w=%s" % (ahead, tok.surface.lower())
                    frag["buf+%d.pos=" % ahead] = "buf+%d.pos=%s" % (ahead, tok.pos)
                else:
                    frag["buf+%d.w=" % ahead] = "buf+%d.w=<none>" % ahead
            self._lookahead[buf] = frag
        return frag

    def phased(self, phase, keys):
        """"phase=<phase>&f" for each feature f of keys."""
        table = self._phased.get(phase)
        if table is None or len(table) > FRAGMENT_MEMO_SIZE:
            table = self._phased[phase] = {}
        try:
            return [table[f] for f in keys]
        except KeyError:
            amp = "phase=%s&" % phase
            for f in keys:
                if f not in table:
                    table[f] = amp + f
            return [table[f] for f in keys]


def _arc_feats(out, prefix, c, vid, n_out):
    if vid is None:
        return
    narc, alab, inlab = _ARC_KEYS[prefix]
    outgoing = [lab for src, _, lab in c.edges if src == vid]
    out[narc] = "%s%d" % (narc, len(outgoing))
    for key, lab in zip(alab[:n_out], outgoing):
        out[key] = "%s%s" % (key, lab)
    if c.parents[vid] is not None:  # only ARC and PROMOTE_ARC add edges
        for _, dst, lab in c.edges:
            if dst == vid:
                out[inlab] = "%s%s" % (inlab, lab)
                break


def _pair_feats(out, c, frags, left_vid, right_vid):
    verts = c.verts
    left = verts[left_vid] if left_vid is not None else None
    right = verts[right_vid] if right_vid is not None else None
    out.update(frags.symbol("c0", left))
    out.update(frags.symbol("c1", right))
    if left is not None and right is not None:
        out["dist.sym="] = "dist.sym=%d" % abs(right_vid - left_vid)
        w1, w2 = left.alignment, right.alignment
        if w1 and w2:
            out["dist.word="] = "dist.word=%d" % abs(w2 - w1)
        dd = frags.dep_distance(w1, w2)
        if dd is not None:
            out["dist.dep="] = "dist.dep=%d" % dd
    for prefix, vid, v in (("c0", left_vid, left), ("c1", right_vid, right)):
        out.update(frags.dependents(prefix, v.alignment if v is not None else None))
        _arc_feats(out, prefix, c, vid, 2)


def extract_features(c: tm.Config, dep=None, frags=None) -> tuple:
    """The tuple of binary transition-state features keyed by phase
    group, plus surrounding state the sequence model would otherwise
    carry: buffer lookahead tokens, stack depth and top slot, the previous
    action kind, and sentence length, with a few conjunctions.

    frags, a SentenceFeatures of c's sentence and dep, carries fragments
    from call to call; without it the call builds its own.  Either way
    the features, and their order, are the same.
    """
    if frags is None or frags.sentence is not c.sentence or frags.dep is not dep:
        frags = SentenceFeatures(c.sentence, dep)
    phase = c.phase
    cache, verts = c.cache, c.verts
    buf = c.cursor if not c.buffer_empty else None
    out = {"phase=": "phase=" + phase}
    if phase in _GEN_PHASES:
        c1 = verts[cache[1]] if cache[1] is not None else None
        out.update(frags.symbol("c1", c1))
        out.update(frags.symbol("c0", verts[cache[0]] if cache[0] is not None else None))
        out.update(frags.token("buf", buf))
        out.update(frags.dependents("c1", c1.alignment if c1 is not None else None))
        _arc_feats(out, "c1", c, cache[1], 3)
    elif phase in (tm.ARC, tm.PROMOTE):
        _pair_feats(out, c, frags, cache[0], cache[1])
    elif phase == tm.PROMOTEARC:
        _pair_feats(out, c, frags, cache[0], c.promoted)
    elif phase == tm.PUSH:
        out.update(frags.token("buf", buf))
        for prefix, vid in (("c0", cache[0]), ("c1", cache[1]), ("pend", c.pending)):
            out.update(frags.symbol(prefix, verts[vid] if vid is not None else None))
    out["sent.n="] = frags.sent_n
    out["stack.n="] = _STACK_N[min(len(c.stack), 8)]
    if c.stack:
        i, v = c.stack[-1]
        out["stack.top="] = "stack.top=%d" % i
        out["stack.topsym="] = frags.stack_symbol(verts[v] if v is not None else None)
    if c.last_action is not None:
        out["last="] = "last=" + tm.action_kind(c.last_action)
    if buf is not None:
        out.update(frags.lookahead(buf))
        out["buf.merged="] = "buf.merged=%d" % c.merged
    return _conjoin(out, phase, frags)


def _conjoin(out, phase, frags):
    """The features of out, {prefix: feature}, then the conjunctions of
    the phase's prefix pairs, then each feature conjoined with the phase.

    None repeats.  Each prefix ends at its only "=", so a feature's text
    up to its first "=" is its prefix, and out's features differ.  The
    pair and phase features "phase=P&a&b" and "phase=P&f" differ from
    "phase=P", out's one feature with prefix "phase=", and from each
    other: f == a&b would give f == out[p1] == a.
    """
    keys = list(out.values())
    head = out["phase="]
    pairs = ["%s&%s&%s" % (head, out[p1], out[p2])
             for p1, p2 in _CONJ_PAIRS.get(phase, ()) if p1 in out and p2 in out]
    return tuple(keys + pairs + frags.phased(phase, keys))


# ---------------------------------------------------------------------------
# Perceptron model


def _bucket(feature: str, salt: int, dim: int) -> int:
    return zlib.crc32(("%d|%s" % (salt, feature)).encode()) % dim


_NO_ROW = {}
# distinct features one model memoizes before starting over, about 140
# bytes each.  A benchmark train round or parse model sees 7-12k; a model
# trained on or parsing a whole corpus sees 50k and more, and past this
# bound still hits on 95-99% of lookups, as most go to features that
# nearly every configuration shares.
BUCKET_MEMO_SIZE = 1 << 14
# score lists one PerceptronScorer memoizes before starting over, about
# 2 kB each with the feature strings their keys hold; a benchmark parse
# sentence makes 300-1,300 distinct calls at beam 10
SCORE_MEMO_SIZE = 1 << 12
# a score adds one weight per feature, far fewer than 2**23 of them, so
# weights below this in magnitude give finite scores only
WEIGHT_BOUND = 2.0 ** 1000


@dataclass
class PerceptronModel:
    """Averaged perceptron with hashed sparse features.

    Weights are stored one row per bucket, {bucket: {action idx: w}}, so
    one walk over a configuration's buckets scores every legal action.
    vocab carries the decode-time machine vocabularies (arc labels,
    suffixes, symbol and promote inventories) harvested from training,
    so a saved model parses corpora without gold annotations.

    Every weight is finite and below WEIGHT_BOUND in magnitude, so every
    score is finite.  Weights enter from outside only through from_json,
    which refuses any other.  update moves a weight by 1.0 and finalize
    averages it, which keeps a bounded weight bounded in any run that
    can finish.
    """

    actions: list
    dim: int = 1 << 18
    salt: int = 0
    weights: dict = field(default_factory=dict)   # bucket -> {action idx: w}
    totals: dict = field(default_factory=dict)    # accumulated for averaging
    updates: int = 0
    averaged: bool = False
    vocab: dict = field(default_factory=dict)

    def __post_init__(self):
        self.action_ids = {a: i for i, a in enumerate(self.actions)}
        self._bucket_of = {}  # feature -> bucket, memoized crc32
        self._view = None     # the WeightView decode_view last gave

    def add_action(self, action):
        if action not in self.action_ids:
            self.action_ids[action] = len(self.actions)
            self.actions.append(action)

    def buckets(self, features):
        memo = self._bucket_of
        if len(memo) > BUCKET_MEMO_SIZE:
            memo.clear()
        try:
            return list(map(memo.__getitem__, features))
        except KeyError:
            for f in features:
                if f not in memo:
                    memo[f] = _bucket(f, self.salt, self.dim)
            return list(map(memo.__getitem__, features))

    def score_buckets(self, buckets, action):
        ai = self.action_ids.get(action)
        if ai is None:
            return 0.0
        w = self.weights
        return sum(w.get(b, _NO_ROW).get(ai, 0.0) for b in buckets)

    def score_actions(self, buckets, actions) -> list:
        """score_buckets of every action, looking each bucket's row up once.

        Each action's sum leaves out the buckets without a row, the rows
        without the action and the weights that are zero.  That changes
        no bit: the running sum starts at +0.0 and can never become -0.0,
        and adding a zero to any other value returns it.  The other terms
        are the same weights in the same bucket order.
        """
        rows = list(filter(None, map(self.weights.get, buckets)))
        ids = self.action_ids
        get = dict.get
        return [0.0 if (ai := ids.get(a)) is None
                else sum(filter(None, map(get, rows, repeat(ai))), 0.0)
                for a in actions]

    def decode_view(self) -> "WeightView":
        """The WeightView of the weights as they are now: the last one,
        unless the model was updated or averaged or gained an action
        since it was built."""
        view = self._view
        if view is None or view.version != (self.updates, self.averaged,
                                            len(self.actions)):
            view = self._view = WeightView(self)
        return view

    def update(self, buckets, gold_action, pred_action):
        """One perceptron step on a configuration's bucket ids (buckets)."""
        self.updates += 1
        t = self.updates
        gold, pred = self.action_ids[gold_action], self.action_ids[pred_action]
        for b in buckets:
            wrow = self.weights.setdefault(b, {})
            trow = self.totals.setdefault(b, {})
            wrow[gold] = wrow.get(gold, 0.0) + 1.0
            trow[gold] = trow.get(gold, 0.0) + t
            wrow[pred] = wrow.get(pred, 0.0) - 1.0
            trow[pred] = trow.get(pred, 0.0) - t

    def finalize(self, steps):
        """Average: w <- w - totals/steps, then free the totals, which
        nothing reads after averaging."""
        if self.averaged or steps <= 0:
            return
        for b, trow in self.totals.items():
            wrow = self.weights[b]
            for ai, tot in trow.items():
                wrow[ai] = wrow[ai] - tot / steps
        self.totals = {}
        self.averaged = True

    def to_json(self) -> str:
        """The model as json.dumps(..., sort_keys=True) writes it, with
        weights {"bucket,action": w}, but without building that dict: the
        weights are written row by row in the order of their keys.  A key
        sorts by "bucket," first, since that part holds the key's only
        comma, and then by the action index as a string."""
        head = json.dumps({
            "format": "ulfparse-perceptron-v1",
            "dim": self.dim, "salt": self.salt, "averaged": self.averaged,
            "actions": self.actions,
            "vocab": self.vocab,
        }, sort_keys=True)
        weights = self.weights
        rows = []
        for b in sorted(weights, key=lambda b: "%d," % b):
            row = weights[b]
            if row:
                # json writes a finite number as its repr
                rows.append(", ".join(['"%d,%d": %r' % (b, ai, row[ai])
                                       for ai in sorted(row, key=str)]))
        # "weights" sorts after every other key, so it closes the object
        return '%s, "weights": {%s}}' % (head[:-1], ", ".join(rows))

    @classmethod
    def from_json(cls, text) -> "PerceptronModel":
        """The model to_json wrote.  Text that breaks its schema raises
        ValueError naming the field, as does a weight that is not a
        number strictly inside +-WEIGHT_BOUND: NaN, an infinity or a
        weight no training run writes."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or obj.get("format") != "ulfparse-perceptron-v1":
            raise ValueError("unrecognized model format")
        actions = _model_field(obj, "actions", list)
        if not _strings(actions) or len(set(actions)) < len(actions):
            raise ValueError("model field 'actions' must list distinct strings")
        dim = _model_field(obj, "dim", int)
        if dim < 1:
            raise ValueError("model field 'dim' must be positive")
        vocab = _model_field(obj, "vocab", dict, {})
        for key, words in vocab.items():
            if not isinstance(words, list) or not _strings(words):
                raise ValueError("model field 'vocab' entry %r must list strings" % key)
        model = cls(actions=actions, dim=dim, salt=_model_field(obj, "salt", int),
                    vocab=vocab)
        model.averaged = _model_field(obj, "averaged", bool, False)
        rows, n = model.weights, len(actions)
        for key, v in _model_field(obj, "weights", dict).items():
            b, _, a = key.partition(",")
            try:
                b, a = int(b), int(a)
                # the comparisons are false for NaN and exact for any int
                ok = (0 <= b < dim and 0 <= a < n and type(v) in (float, int)
                      and -WEIGHT_BOUND < v < WEIGHT_BOUND)
            except ValueError:
                ok = False
            if not ok:
                raise ValueError("model field 'weights' has a bad entry %r: %r"
                                 % (key, v))
            rows.setdefault(b, {})[a] = v
        return model

    def make_machine(self) -> tm.Machine:
        """A decode machine over this model's training vocabularies."""
        if not self.vocab:
            raise ValueError("model carries no machine vocabularies")
        return tm.Machine(
            arc_labels=self.vocab.get("arc_labels", []),
            suffixes=self.vocab.get("suffixes", []),
            symgen_vocab=self.vocab.get("symgen", []),
            promote_syms=self.vocab.get("promote", []))


class WeightView:
    """A decode view of a PerceptronModel's weights: a float64 matrix with
    one row per weight row the decoder has read and one column per
    action, plus a last column of zeros for the actions the model lacks.

    Row 0 is all zeros.  A bucket gets its row the first time it is
    read, and a bucket without weights reads row 0.  The matrix is
    allocated zeroed for every row up front, (rows + 1) x (actions + 1) x
    8 bytes, but the pages of rows never written take no memory.  The
    bucket -> row map is never cleared, and holds at most one entry per
    bucket, dim in all.  version is the model's (updates, averaged,
    number of actions) when the view was built: the weights it copies
    change only with the first two, and its columns with the third.

    Training keeps score_actions: its weights change between most calls,
    and a matrix kept in step with each update made training slower
    (README, "What decoding caches").
    """

    def __init__(self, model):
        self.version = (model.updates, model.averaged, len(model.actions))
        self.matrix = np.zeros((len(model.weights) + 1, len(model.actions) + 1))
        self._weights = model.weights
        self._col_of = dict(model.action_ids)
        self._written = 0   # rows written, after row 0
        self._row_of = {}   # bucket -> row

    def _row(self, b):
        weights = self._weights.get(b)
        if not weights:
            return 0
        row = self._written = self._written + 1
        self.matrix[row, list(weights)] = list(weights.values())
        return row

    def scores(self, buckets, legal) -> list:
        """The score of each legal action, as score_actions gives it.

        The block of the buckets' rows, after row 0, and the menu's
        columns is summed down its rows by np.add.accumulate, a running
        sum from top to bottom, so each column's last entry is +0.0 plus
        the action's weights in bucket order, zeros included.  That is
        score_actions' sum bit for bit: row 0 stands for the builtin
        sum's +0.0 start, and the zeros change no bit (score_actions).
        """
        row_of = self._row_of
        try:
            rows = [0, *map(row_of.__getitem__, buckets)]
        except KeyError:
            for b in buckets:
                if b not in row_of:
                    row_of[b] = self._row(b)
            rows = [0, *map(row_of.__getitem__, buckets)]
        col_of, missing = self._col_of, len(self._col_of)
        cols = [col_of.get(a, missing) for a in legal]
        block = self.matrix.take(rows, 0).take(cols, 1)
        return np.add.accumulate(block, axis=0)[-1].tolist()


def _model_field(obj, name, kind, *default):
    """obj[name], which must be a kind (a bool is no int); default, if
    given, stands in for a missing field."""
    if name not in obj:
        if default:
            return default[0]
        raise ValueError("model field %r is missing" % name)
    value = obj[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError("model field %r must be a JSON %s" % (
            name, {list: "list", dict: "object", int: "integer", bool: "boolean"}[kind]))
    return value


def _strings(values):
    return all(isinstance(v, str) for v in values)


def machine_from_actions(action_seqs) -> tm.Machine:
    """Build a decode-time machine whose vocabularies cover the training
    action sequences."""
    arc_labels, suffixes, symgen, promote = set(), set(), set(), set()
    for seq in action_seqs:
        for a in seq:
            kind = tm.action_kind(a)
            if kind == "ARC":
                arc_labels.add(tm.parse_arc_action(a)[2])
            elif kind == "PROMOTE_ARC":
                arc_labels.add(a.split(":", 1)[1])
            elif kind == "SUFFIX":
                suffixes.add(a.split(":", 1)[1])
            elif kind == "SYMGEN":
                symgen.add(a.split(":", 1)[1])
            elif kind == "PROMOTE_SYM":
                promote.add(a.split(":", 1)[1])
    return tm.Machine(
        arc_labels=sorted(arc_labels), suffixes=sorted(suffixes),
        symgen_vocab=sorted(symgen), promote_syms=sorted(promote))


def train_perceptron(items, epochs=5, seed=0, machine=None, dim=1 << 18):
    """Teacher-forced averaged-perceptron training.

    items: list of (sentence, dep, oracle action sequence).  At each
    oracle step the model is updated when its argmax over legal actions
    differs from the gold action.  Deterministic given seed and corpus
    order.  Each step's buckets and menu are extracted once (step_table),
    and every epoch runs over the steps with two or more legal actions;
    the average still counts every step.
    """
    seqs = [seq for _, _, seq in items]
    total_steps = sum(len(s) for s in seqs)
    if total_steps == 0:
        raise ValueError("training corpus has zero oracle steps")
    if machine is None:
        machine = machine_from_actions(seqs)
    actions = sorted({a for seq in seqs for a in seq}, key=tm.action_sort_key)
    model = PerceptronModel(actions=list(actions), salt=seed, dim=dim, vocab={
        "arc_labels": machine.arc_labels or [],
        "suffixes": machine.suffixes or [],
        "symgen": machine.symgen_vocab or [],
        "promote": machine.promote_syms or [],
    })
    menus, table = step_table(model, machine, items)
    rng = np.random.default_rng(seed)
    order = list(range(len(items)))
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            buckets, offsets, menu_ids, golds = table[idx]
            for k, mi in enumerate(menu_ids):
                legal = menus[mi]
                step_buckets = buckets[offsets[k]:offsets[k + 1]]
                scores = model.score_actions(step_buckets, legal)
                # runner-up among the non-gold actions (a stored menu has
                # one), ties broken by the canonical order; update unless
                # gold wins by a margin, so the learned separation
                # survives weight averaging
                gold_score = scores[golds[k]]
                gold_action = legal[golds[k]]
                rival, rival_score = None, None
                for a, s in zip(legal, scores):
                    if a == gold_action:
                        continue
                    if rival_score is None or s > rival_score:
                        rival, rival_score = a, s
                if gold_score - rival_score < 1.0:
                    model.add_action(rival)
                    model.update(step_buckets, gold_action, rival)
    model.finalize(max(epochs * total_steps, 1))
    return model, machine


def step_table(model, machine, items):
    """The teacher-forced steps of every item that can update, (menus,
    table).

    Features, legal menus and configurations do not depend on the
    weights, so training extracts them once per run.  A step's menu is
    the concrete legal actions in canonical order, then the gold action
    if they lack it (where it stands changes no runner-up, as ties go to
    the first of the other actions).  Only steps whose menu holds two or
    more actions are stored: a one-action menu is the gold action alone,
    which has no rival and so never updates, and its features are never
    extracted.  menus holds each distinct stored menu once.  table[i] is
    (buckets, offsets, menu_ids, golds) for items[i], four array('i'):
    stored step k has the bucket ids buckets[offsets[k]:offsets[k + 1]]
    of its features, in feature order, the menu menus[menu_ids[k]], and
    its gold action at index golds[k] of that menu.  A stored step of
    about 52 features takes about 230 bytes.
    """
    menus, menu_ids = [], {}
    table = []
    for sentence, dep, seq in items:
        frags = SentenceFeatures(sentence, dep)
        c = machine.init(sentence)
        buckets, offsets = array("i"), array("i", [0])
        ids, golds = array("i"), array("i")
        for gold_action in seq:
            legal = _concrete_candidates(machine, c)
            if gold_action not in legal:
                legal.append(gold_action)
            if len(legal) > 1:
                buckets.extend(model.buckets(extract_features(c, dep, frags)))
                offsets.append(len(buckets))
                menu = tuple(legal)
                mi = menu_ids.get(menu)
                if mi is None:
                    mi = menu_ids[menu] = len(menus)
                    menus.append(menu)
                ids.append(mi)
                golds.append(legal.index(gold_action))
            c = machine.apply(c, gold_action)
        table.append((buckets, offsets, ids, golds))
    return menus, table


def _concrete_candidates(machine, c):
    """Legal actions with open-vocabulary markers dropped."""
    return [a for a in machine.legal_actions(c) if not a.endswith(":*")]


# ---------------------------------------------------------------------------
# Scorers


class OracleScorer:
    """Follows a fixed target sequence: the gold action is always the
    argmax, and any deviation is penalized enough that beams of any width
    reduce to replay."""

    forced_moves_free = True

    def __init__(self, actions):
        self.actions = list(actions)

    def score(self, c, features, legal):
        target = self.actions[c.steps] if c.steps < len(self.actions) else None
        return [0.0 if a == target else -1e9 for a in legal]


class PerceptronScorer:
    """Scores with a PerceptronModel: the scores of the configuration's
    buckets from the model's decode_view, the bits of score_actions and
    score_buckets for each legal action.

    The model's weights are bounded, so every score is finite, and the
    beam calls the scorer only for menus of two or more actions.  Beam
    items with different histories often reach configurations with the
    same features and the same menu (42% of the calls of a benchmark
    parse pass repeat one), so score lists are memoized per (features,
    legal), up to SCORE_MEMO_SIZE entries before the memo starts over.
    It starts over whenever the model was updated or averaged since the
    last call, since the weights change only then (add_action alone
    changes no score), and with each new sentence, since repeats seldom
    cross sentences.  A returned list is shared with the memo: never
    change one.
    """

    forced_moves_free = True

    def __init__(self, model: PerceptronModel):
        self.model = model
        self._memo = {}      # (features, legal) -> scores
        self._version = None  # (updates, averaged) of the memo
        self._sentence = None

    def score(self, c, features, legal):
        model = self.model
        memo = self._memo
        version = (model.updates, model.averaged)
        if version != self._version or c.sentence is not self._sentence \
                or len(memo) >= SCORE_MEMO_SIZE:
            memo.clear()
            self._version, self._sentence = version, c.sentence
        key = (features, tuple(legal))
        scores = memo.get(key)
        if scores is None:
            scores = memo[key] = model.decode_view().scores(model.buckets(features),
                                                            key[1])
        return scores


class RandomScorer:
    """Deterministic pseudo-random scores: a uniform-random-legal baseline."""

    forced_moves_free = True

    def __init__(self, seed=0):
        self.seed = seed

    def score(self, c, features, legal):
        return [zlib.crc32(("%d|%d|%s" % (self.seed, c.steps, a)).encode())
                / 0xFFFFFFFF
                for a in legal]


class ExternalScorerError(RuntimeError):
    pass


class ExternalScorer:
    """Line-protocol client for an external scorer process.

    Each message is a header line with the decimal byte length of the
    UTF-8 JSON payload, then the payload itself followed by a newline.
    Requests carry {"features": {feature: 1.0}, "legal": [...]};
    responses carry {"scores": {action: weight}} with a finite weight for
    every legal action.  A reply that does not arrive whole within the
    timeout, or breaks the framing, raises ExternalScorerError and stops
    the process; one that leaves out a legal action raises it too.  The
    other process sees every request, so the beam sends one for each
    menu, one-action menus included.
    """

    def __init__(self, argv, timeout=EXTERNAL_TIMEOUT):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.timeout = timeout
        self._buf = b""  # bytes read past the last reply

    def close(self):
        # a scorer that exited before reading leaves the request in the
        # write buffer, and flushing it again would raise BrokenPipeError
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _fail(self, why):
        self.proc.kill()
        self.proc.wait()
        raise ExternalScorerError("external scorer %s" % why)

    def _fill(self, deadline):
        """Append the next chunk of output to the buffer."""
        fd = self.proc.stdout.fileno()
        wait = deadline - time.monotonic()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            self._fail("timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            self._fail("closed its output")
        self._buf += chunk

    def _line(self, deadline) -> bytes:
        while b"\n" not in self._buf:
            self._fill(deadline)
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def _roundtrip(self, payload: str) -> str:
        data = payload.encode()
        try:
            self.proc.stdin.write(b"%d\n%s\n" % (len(data), data))
            self.proc.stdin.flush()
        except OSError as e:
            self._fail("closed its input: %s" % e)
        deadline = time.monotonic() + self.timeout
        header = self._line(deadline)
        if not header.strip().isdigit():
            self._fail("sent a bad header %r" % header[:40])
        n = int(header)
        while len(self._buf) < n:
            self._fill(deadline)
        body, self._buf = self._buf[:n], self._buf[n:]
        self._line(deadline)  # trailing newline
        try:
            return body.decode()
        except UnicodeDecodeError as e:
            self._fail("sent a body that is not UTF-8: %s" % e)

    def score(self, c, features, legal):
        req = json.dumps({"features": dict.fromkeys(features, 1.0),
                          "legal": list(legal)}, sort_keys=True)
        body = self._roundtrip(req)
        try:
            scores = json.loads(body)["scores"]
            if not isinstance(scores, dict):
                raise TypeError("scores is not a map")
            out = [float(scores[a]) for a in legal if a in scores]
        except (ValueError, KeyError, TypeError) as e:
            raise ExternalScorerError("bad external scorer response: %s" % e)
        if len(out) < len(legal):
            missing = next(a for a in legal if a not in scores)
            raise ExternalScorerError(
                "external scorer left out the legal action %r" % missing)
        if not all(map(math.isfinite, out)):
            raise ExternalScorerError("external scorer sent a non-finite score")
        return out


# ---------------------------------------------------------------------------
# Beam search


@dataclass
class BeamItem:
    config: tm.Config
    score: float = 0.0
    history: tuple = ()
    types: tuple = ()      # per-vertex semantic types (type constraint on)
    rank: tuple = ()       # deterministic tie-break


@dataclass
class DecodeResult:
    fragments: list
    actions: list
    score: float
    finished: bool


def _log_softmax(scores: list) -> list:
    """Normalize raw scorer outputs into per-step log-probabilities.

    Cumulative beam scores then decrease monotonically, so loops cannot
    outscore finished parses.
    """
    if not scores:
        return []
    # the ufuncs that vals.max() and .sum() call, without their wrappers
    vals = np.fromiter(scores, float, len(scores))
    vals -= np.maximum.reduce(vals)
    logz = np.log(np.add.reduce(np.exp(vals)))
    return (vals - logz).tolist()


def _vertex_types(item, grammar):
    """item.types extended to every vertex of its configuration."""
    types, verts = item.types, item.config.verts
    if len(types) < len(verts):
        types += tuple(type_of(v.symbol, grammar) for v in verts[len(types):])
    return types


_SUFFIX_PHASES = (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN)
_ARC_PHASES = (tm.ARC, tm.PROMOTEARC)  # the only phases offering arc actions
_LEFT_ARC = tm.arc_action(0, "left", "")    # prefixes of the ARC menus
_RIGHT_ARC = tm.arc_action(0, "right", "")


def _type_filtered(c, types, action, verdicts):
    """Type-composition veto for arc actions; returns the types after
    action, or None when the arc is vetoed.  The veto depends on the
    arc's direction, not its label, so verdicts, {(head, dep): types
    after}, keeps each one given in c.  The machine's menus spell the
    direction in the action's prefix."""
    if action.startswith(_LEFT_ARC):
        ends = c.cache[::-1]
    elif action.startswith(_RIGHT_ARC):
        ends = c.cache
    elif action.startswith("PROMOTE_ARC:"):
        ends = (c.promoted, c.cache[1])
    else:
        return types
    if ends not in verdicts:
        head, dep = ends
        ok, new_type = check_arc(types[head], types[dep])
        verdicts[ends] = types[:head] + (new_type,) + types[head + 1:] if ok else None
    return verdicts[ends]


def _menu(machine, c, lexicon, memo):
    """The concrete legal actions of c that the lexicon keeps, as a tuple,
    from memo, {key: menu}, if it holds c's key.

    The concrete menu depends on the machine's offer only, whose menu
    records and bare tuples are the machine's constants, so their ids and
    the bare actions key it.  The lexicon filter also reads the phase and
    the front words, so in the symbol phases a lexicon adds (phase,
    cursor, merged) to the key.  One memo serves one decode: one machine,
    lexicon and sentence.
    """
    menus, bare = machine.offer(c)
    key = (bare, *map(id, menus))
    if lexicon is not None and c.phase in _SUFFIX_PHASES:
        key += (c.phase, c.cursor, c.merged)
    legal = memo.get(key)
    if legal is None:
        legal = memo[key] = tuple(_lexicon_filtered(
            machine, c, _concrete_candidates(machine, c), lexicon))
    return legal


def _lexicon_filtered(machine, c, actions, lexicon):
    """Restrict SUFFIX candidates by the lexicon entry for the word stem;
    an empty intersection falls back to the unconstrained set.  Only the
    symbol phases offer SUFFIX actions."""
    if lexicon is None or c.phase not in _SUFFIX_PHASES:
        return actions
    suffix_actions = [a for a in actions if tm.action_kind(a) == "SUFFIX"]
    if not suffix_actions:
        return actions
    word = c.sentence.token(c.cursor)
    candidates = {a: machine.make_symbol(c, a.split(":", 1)[1]).render()
                  for a in suffix_actions}
    kept = lexicon_filter(word, set(candidates.values()), lexicon)
    if not kept:
        return actions  # documented fallback: relax rather than dead-end
    return [a for a in actions
            if tm.action_kind(a) != "SUFFIX" or candidates[a] in kept]


_FORCED = (0.0,)  # the log-softmax of one finite score


def _rank_key(item):
    return (-item.score, item.rank)


def beam_decode(sentence, scorer, machine, beam_size=3, lexicon=None,
                grammar=None, cap=None, dep=None) -> DecodeResult:
    """Beam search over action sequences.

    Candidates at each step are the machine's legal actions, restricted
    by the lexicon (word-anchored symbol generation) and vetoed by the
    type-composition check (arc actions) when those constraints are
    supplied.  Every (item, action) pair is scored first, and only the
    beam_size best are applied.  Items ranked by (-score, rank); rank is
    the path of action indices, which breaks ties deterministically.
    Items reaching the cap are finalized as-is.  A finished item has no
    descendants, so its rank is no prefix of another item's: any two
    ranks compared differ before the shorter one ends.

    The search stops once the best finished item ranks before every live
    one.  That is exact: per-step scores are log-probabilities (<= 0), so
    no descendant of a live item scores higher than it, and a
    descendant's rank extends its parent's, so it sorts after it on a
    tie; nothing found later could outrank the best finished item.

    A forced move, an item with one candidate, gets the step score 0.0
    without features or a scorer call when the scorer's
    forced_moves_free is true.  That is exact: the scorer promises that
    its one score would be finite and that the call has no side effect,
    and the log-softmax of one finite score is [0.0].  A scorer without
    forced_moves_free is called for every item.

    Within one decode, the menus are memoized by the machine's offer
    (_menu), and the log-softmax by the tuple of raw scores.  Equal tuples
    normalize to the same bits, although 0.0 == -0.0: an entry's sign of
    zero can reach the result only through an entry that ties the
    maximum, and then two entries do, the log of the sum of exponentials
    is at least log 2, and either zero minus it is the same.
    """
    cap = cap if cap is not None else machine.step_cap
    frags = SentenceFeatures(sentence, dep)
    skip_forced = getattr(scorer, "forced_moves_free", False)
    menus = {}       # see _menu
    normalized = {}  # raw scores -> their log-softmax
    beam = [BeamItem(machine.init(sentence))]
    best = None  # best finished item
    while beam:
        live = []
        for item in beam:
            c = item.config
            if machine.is_terminal(c) or c.steps >= cap:
                if best is None or _rank_key(item) < _rank_key(best):
                    best = item
            else:
                live.append(item)
        if best is not None and all(_rank_key(best) < _rank_key(it) for it in live):
            break
        candidates = []
        for item in live:
            c = item.config
            legal = _menu(machine, c, lexicon, menus)  # in canonical order
            if skip_forced and len(legal) == 1:
                scores = _FORCED
            else:
                feats = extract_features(c, dep, frags)
                raw = scorer.score(c, feats, legal)
                if len(raw) != len(legal):
                    raise ValueError("scorer gave %d scores for %d legal actions"
                                     % (len(raw), len(legal)))
                raw = tuple(raw)
                scores = normalized.get(raw)
                if scores is None:
                    scores = normalized[raw] = _log_softmax(raw)
            types = _vertex_types(item, grammar) if grammar is not None else item.types
            vetoing = grammar is not None and c.phase in _ARC_PHASES
            verdicts = {}
            for ai, (action, step_score) in enumerate(zip(legal, scores)):
                new_types = types
                if vetoing:
                    new_types = _type_filtered(c, types, action, verdicts)
                    if new_types is None:
                        continue  # vetoed: not added to the search beam
                score = item.score + step_score
                candidates.append((-score, item.rank, ai, score, item, action,
                                   new_types))
        if not candidates:
            break
        # (-score, rank, ai) differs between any two candidates, so the
        # tuples compare by those three alone
        top = heapq.nsmallest(beam_size, candidates)
        beam = [BeamItem(machine.apply(item.config, action), score,
                         item.history + (action,), types, item.rank + (ai,))
                for _, _, ai, score, item, action, types in top]
    best = best if best is not None else min(beam, key=_rank_key)
    return DecodeResult(
        fragments=machine.extract_result(best.config),
        actions=list(best.history),
        score=best.score,
        finished=machine.is_terminal(best.config),
    )
