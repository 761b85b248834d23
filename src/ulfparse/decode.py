"""Beam-search decoding with a pluggable scorer.

The scorer interface is ``score(config, features, legal) -> {action:
log-weight}``.  Implementations: an averaged perceptron over sparse
transition-state features, an oracle-following scorer for testing, a
seeded random scorer for baselines, and a line-protocol client for
external scorer processes.

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
from dataclasses import dataclass, field

import numpy as np

from . import machine as tm
from .typesys import check_arc, lexicon_filter, type_of

SENTINEL = 0
EXTERNAL_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# Hard attention and transition-state features


def attention_indices(c: tm.Config):
    """(word index, symbol index) most relevant to the next decision.

    Symbol indices are 1-based over the generation order; 0 is the
    missing-value sentinel for both.
    """
    if c.phase in (tm.ARC, tm.PROMOTE):
        sym = c.cache[1]
    elif c.phase == tm.PROMOTEARC:
        sym = c.promoted
    elif c.phase == tm.PUSH:
        sym = c.pending
    else:
        sym = len(c.verts) - 1 if c.verts else None
    if c.phase in (tm.ARC, tm.PROMOTE, tm.PROMOTEARC, tm.PUSH):
        word = c.verts[sym].alignment if sym is not None else None
    else:
        word = c.cursor if not c.buffer_empty else None
    return (word or SENTINEL, sym + 1 if sym is not None else SENTINEL)


def _token_feats(out, prefix, c, widx):
    if widx is None or widx < 1 or widx > len(c.sentence):
        out["%s.w=<none>" % prefix] = 1.0
        return
    tok = c.sentence.token(widx)
    out["%s.w=%s" % (prefix, tok.surface.lower())] = 1.0
    out["%s.l=%s" % (prefix, tok.lemma.lower())] = 1.0
    out["%s.pos=%s" % (prefix, tok.pos)] = 1.0
    out["%s.ner=%s" % (prefix, tok.ner)] = 1.0


def _symbol_feats(out, prefix, c, vid):
    if vid is None:
        out["%s.sym=<none>" % prefix] = 1.0
        return
    out["%s.sym=%s" % (prefix, c.verts[vid].symbol.render())] = 1.0
    _token_feats(out, prefix, c, c.verts[vid].alignment)


def _dep_children(dep, head_widx):
    return [(j + 1, lab) for j, (h, lab) in enumerate(dep) if h == head_widx]


def _dep_feats(out, prefix, dep, widx):
    if dep is None or widx is None or widx < 1 or widx > len(dep):
        out["%s.dep=<none>" % prefix] = 1.0
        return
    rightward = [(j, lab) for j, lab in _dep_children(dep, widx) if j > widx]
    out["%s.ndep=%d" % (prefix, len(rightward))] = 1.0
    for i, (_, lab) in enumerate(rightward[:3]):
        out["%s.dlab%d=%s" % (prefix, i, lab)] = 1.0


def _ulf_arc_feats(out, prefix, c, vid, n_out=3, n_in=1):
    if vid is None:
        return
    outgoing = [lab for src, _, lab in c.edges if src == vid]
    out["%s.narc=%d" % (prefix, len(outgoing))] = 1.0
    for i, lab in enumerate(outgoing[:n_out]):
        out["%s.alab%d=%s" % (prefix, i, lab)] = 1.0
    if n_in:
        incoming = [lab for _, dst, lab in c.edges if dst == vid]
        if incoming:
            out["%s.inlab=%s" % (prefix, incoming[0])] = 1.0


def _dep_distance(dep, w1, w2):
    if dep is None or w1 is None or w2 is None:
        return None
    n = len(dep)
    if not (1 <= w1 <= n and 1 <= w2 <= n):
        return None

    def ancestors(w):
        path, seen = [w], {w}
        while True:
            h = dep[path[-1] - 1][0]
            if h == 0 or h in seen or not (1 <= h <= n):
                return path
            path.append(h)
            seen.add(h)

    p1, p2 = ancestors(w1), ancestors(w2)
    common = set(p1) & set(p2)
    if not common:
        return None
    return min(p1.index(a) + p2.index(a) for a in common)


def _pair_feats(out, c, dep, left_vid, right_vid):
    _symbol_feats(out, "c0", c, left_vid)
    _symbol_feats(out, "c1", c, right_vid)
    if left_vid is not None and right_vid is not None:
        out["dist.sym=%d" % abs(right_vid - left_vid)] = 1.0
        w1 = c.verts[left_vid].alignment
        w2 = c.verts[right_vid].alignment
        if w1 and w2:
            out["dist.word=%d" % abs(w2 - w1)] = 1.0
        dd = _dep_distance(dep, w1, w2)
        if dd is not None:
            out["dist.dep=%d" % dd] = 1.0
    for prefix, vid in (("c0", left_vid), ("c1", right_vid)):
        widx = c.verts[vid].alignment if vid is not None else None
        _dep_feats(out, prefix, dep, widx)
        _ulf_arc_feats(out, prefix, c, vid, n_out=2, n_in=1)


def extract_features(c: tm.Config, dep=None) -> dict:
    """Sparse transition-state features keyed by phase group, plus
    surrounding state the sequence model would otherwise carry: buffer
    lookahead tokens, stack depth and top slot, the previous action kind,
    and sentence length, with a few conjunctions."""
    out = {"phase=%s" % c.phase: 1.0}
    buf = c.cursor if not c.buffer_empty else None
    if c.phase in (tm.POP, tm.GEN, tm.WORDGEN, tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN):
        _symbol_feats(out, "c1", c, c.cache[1])
        _symbol_feats(out, "c0", c, c.cache[0])
        _token_feats(out, "buf", c, buf)
        widx = c.verts[c.cache[1]].alignment if c.cache[1] is not None else None
        _dep_feats(out, "c1", dep, widx)
        _ulf_arc_feats(out, "c1", c, c.cache[1])
    elif c.phase in (tm.ARC, tm.PROMOTE):
        _pair_feats(out, c, dep, c.cache[0], c.cache[1])
    elif c.phase == tm.PROMOTEARC:
        _pair_feats(out, c, dep, c.cache[0], c.promoted)
    elif c.phase == tm.PUSH:
        _token_feats(out, "buf", c, buf)
        _symbol_feats(out, "c0", c, c.cache[0])
        _symbol_feats(out, "c1", c, c.cache[1])
        _symbol_feats(out, "pend", c, c.pending)
    _state_feats(out, c, buf)
    _conjoin(out, c)
    return out


def _state_feats(out, c, buf):
    n = len(c.sentence)
    out["sent.n=%d" % min(n, 20)] = 1.0
    out["stack.n=%d" % min(len(c.stack), 8)] = 1.0
    if c.stack:
        i, v = c.stack[-1]
        out["stack.top=%d" % i] = 1.0
        out["stack.topsym=%s" % (c.verts[v].symbol.render() if v is not None
                                 else "<nil>")] = 1.0
    if c.last_action is not None:
        out["last=%s" % tm.action_kind(c.last_action)] = 1.0
    if buf is not None:
        for ahead in (1, 2):
            if buf + ahead <= n:
                tok = c.sentence.token(buf + ahead)
                out["buf+%d.w=%s" % (ahead, tok.surface.lower())] = 1.0
                out["buf+%d.pos=%s" % (ahead, tok.pos)] = 1.0
            else:
                out["buf+%d.w=<none>" % ahead] = 1.0
        out["buf.merged=%d" % c.merged] = 1.0


def _conjoin(out, c):
    phase = "phase=%s" % c.phase
    pairs = []
    if c.phase in (tm.POP, tm.GEN):
        pairs = [("buf.pos=", "c1.sym="), ("buf.w=", "c1.sym="),
                 ("c1.narc=", "c1.sym="), ("c1.inlab=", "c1.sym="),
                 ("stack.topsym=", "c1.sym="), ("stack.top=", "c1.sym="),
                 ("c0.sym=", "c1.sym="), ("buf.w=", "buf+1.w=")]
    elif c.phase == tm.PUSH:
        pairs = [("pend.sym=", "c1.sym="), ("pend.sym=", "c0.sym="),
                 ("pend.pos=", "buf.pos="), ("pend.sym=", "buf.pos=")]
    elif c.phase in (tm.ARC, tm.PROMOTE, tm.PROMOTEARC):
        pairs = [("c0.sym=", "c1.sym="), ("stack.topsym=", "c1.sym=")]
    elif c.phase in (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN, tm.WORDGEN):
        pairs = [("buf.pos=", "buf.w="), ("buf.pos=", "c1.sym="),
                 ("buf.w=", "buf+1.w=")]
    # features by the prefix up to their first "=", the form of every
    # prefix above: the same lists as scanning out for each prefix
    by_prefix = {}
    for f in out:
        by_prefix.setdefault(f[:f.find("=") + 1], []).append(f)
    conj = {}
    for p1, p2 in pairs:
        for f1 in by_prefix.get(p1, ()):
            for f2 in by_prefix.get(p2, ()):
                conj["%s&%s&%s" % (phase, f1, f2)] = 1.0
    for f in out:
        conj["%s&%s" % (phase, f)] = 1.0
    out.update(conj)


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


@dataclass
class PerceptronModel:
    """Averaged perceptron with hashed sparse features.

    Weights are stored one row per bucket, {bucket: {action idx: w}}, so
    one walk over a configuration's buckets scores every legal action.
    vocab carries the decode-time machine vocabularies (arc labels,
    suffixes, symbol and promote inventories) harvested from training,
    so a saved model parses corpora without gold annotations.
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

    def add_action(self, action):
        if action not in self.action_ids:
            self.action_ids[action] = len(self.actions)
            self.actions.append(action)

    def buckets(self, features):
        memo = self._bucket_of
        if len(memo) > BUCKET_MEMO_SIZE:
            memo.clear()
        out = []
        for f, v in features.items():
            b = memo.get(f)
            if b is None:
                b = memo[f] = _bucket(f, self.salt, self.dim)
            out.append((b, v))
        return out

    def score_buckets(self, buckets, action):
        ai = self.action_ids.get(action)
        if ai is None:
            return 0.0
        w = self.weights
        return sum(w.get(b, _NO_ROW).get(ai, 0.0) * v for b, v in buckets)

    def score_actions(self, buckets, actions) -> list:
        """score_buckets of every action, looking each bucket's row up once.

        Each action's terms are the same products in the same bucket
        order, added by the same builtin sum, so every score is
        bit-identical to score_buckets'.
        """
        rows = [(self.weights.get(b, _NO_ROW), v) for b, v in buckets]
        ids = self.action_ids
        out = []
        for a in actions:
            ai = ids.get(a)
            out.append(0.0 if ai is None
                       else sum(row.get(ai, 0.0) * v for row, v in rows))
        return out

    def update(self, features, gold_action, pred_action):
        self.updates += 1
        t = self.updates
        for b, v in self.buckets(features):
            wrow = self.weights.setdefault(b, {})
            trow = self.totals.setdefault(b, {})
            for action, delta in ((gold_action, v), (pred_action, -v)):
                ai = self.action_ids[action]
                wrow[ai] = wrow.get(ai, 0.0) + delta
                trow[ai] = trow.get(ai, 0.0) + t * delta

    def finalize(self, steps):
        """Average: w <- w - totals/steps."""
        if self.averaged or steps <= 0:
            return
        for b, trow in self.totals.items():
            wrow = self.weights[b]
            for ai, tot in trow.items():
                wrow[ai] = wrow[ai] - tot / steps
        self.averaged = True

    def to_json(self) -> str:
        return json.dumps({
            "format": "ulfparse-perceptron-v1",
            "dim": self.dim, "salt": self.salt, "averaged": self.averaged,
            "actions": self.actions,
            "vocab": self.vocab,
            "weights": {"%d,%d" % (b, ai): w for b, row in self.weights.items()
                        for ai, w in row.items()},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "PerceptronModel":
        obj = json.loads(text)
        if obj.get("format") != "ulfparse-perceptron-v1":
            raise ValueError("unrecognized model format")
        model = cls(actions=list(obj["actions"]), dim=obj["dim"], salt=obj["salt"],
                    vocab=obj.get("vocab", {}))
        model.averaged = obj.get("averaged", False)
        for key, v in obj["weights"].items():
            b, a = key.split(",")
            model.weights.setdefault(int(b), {})[int(a)] = v
        return model

    def make_machine(self, step_cap=tm.DEFAULT_STEP_CAP) -> tm.Machine:
        """A decode machine over this model's training vocabularies."""
        if not self.vocab:
            raise ValueError("model carries no machine vocabularies")
        return tm.Machine(
            arc_labels=self.vocab.get("arc_labels", []),
            suffixes=self.vocab.get("suffixes", []),
            symgen_vocab=self.vocab.get("symgen", []),
            promote_syms=self.vocab.get("promote", []),
            step_cap=step_cap)


def machine_from_actions(action_seqs, step_cap=tm.DEFAULT_STEP_CAP) -> tm.Machine:
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
        symgen_vocab=sorted(symgen), promote_syms=sorted(promote),
        step_cap=step_cap)


def train_perceptron(items, epochs=5, seed=0, machine=None, dim=1 << 18):
    """Teacher-forced averaged-perceptron training.

    items: list of (sentence, dep, oracle action sequence).  At each
    oracle step the model is updated when its argmax over legal actions
    differs from the gold action.  Deterministic given seed and corpus
    order.
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
    rng = np.random.default_rng(seed)
    order = list(range(len(items)))
    step = 0
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            sentence, dep, seq = items[idx]
            c = machine.init(sentence)
            for gold_action in seq:
                step += 1
                feats = extract_features(c, dep)
                legal = _concrete_candidates(machine, c)
                if gold_action not in legal:
                    legal.append(gold_action)
                legal.sort(key=tm.action_sort_key)
                scores = model.score_actions(model.buckets(feats), legal)
                # runner-up among the non-gold actions, ties broken by the
                # canonical order; update unless gold wins by a margin,
                # so the learned separation survives weight averaging
                gold_score = scores[legal.index(gold_action)]
                rival, rival_score = None, None
                for a, s in zip(legal, scores):
                    if a == gold_action:
                        continue
                    if rival_score is None or s > rival_score:
                        rival, rival_score = a, s
                if rival is not None and gold_score - rival_score < 1.0:
                    model.add_action(rival)
                    model.update(feats, gold_action, rival)
                c = machine.apply(c, gold_action)
    model.finalize(max(step, 1))
    return model, machine


def _concrete_candidates(machine, c):
    """Legal actions with open-vocabulary markers dropped."""
    return [a for a in machine.legal_actions(c) if not a.endswith(":*")]


# ---------------------------------------------------------------------------
# Scorers


class OracleScorer:
    """Follows a fixed target sequence: the gold action is always the
    argmax, and any deviation is penalized enough that beams of any width
    reduce to replay."""

    def __init__(self, actions):
        self.actions = list(actions)

    def score(self, c, features, legal):
        target = self.actions[c.steps] if c.steps < len(self.actions) else None
        return {a: (0.0 if a == target else -1e9) for a in legal}


class PerceptronScorer:
    def __init__(self, model: PerceptronModel):
        self.model = model

    def score(self, c, features, legal):
        buckets = self.model.buckets(features)
        return dict(zip(legal, self.model.score_actions(buckets, legal)))


class RandomScorer:
    """Deterministic pseudo-random scores: a uniform-random-legal baseline."""

    def __init__(self, seed=0):
        self.seed = seed

    def score(self, c, features, legal):
        return {
            a: zlib.crc32(("%d|%d|%s" % (self.seed, c.steps, a)).encode())
            / 0xFFFFFFFF
            for a in legal
        }


class ExternalScorerError(RuntimeError):
    pass


class ExternalScorer:
    """Line-protocol client for an external scorer process.

    Each message is a header line with the decimal byte length of the
    UTF-8 JSON payload, then the payload itself followed by a newline.
    Requests carry {"features": ..., "legal": [...]}; responses carry
    {"scores": {action: weight}} with finite weights.  A reply that does
    not arrive whole within the timeout, or breaks the framing, raises
    ExternalScorerError and stops the process.
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
        req = json.dumps({"features": features, "legal": list(legal)},
                         sort_keys=True)
        body = self._roundtrip(req)
        try:
            scores = json.loads(body)["scores"]
            out = {a: float(scores.get(a, 0.0)) for a in legal}
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ExternalScorerError("bad external scorer response: %s" % e)
        if not all(math.isfinite(v) for v in out.values()):
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


def _log_softmax(scores: dict) -> dict:
    """Normalize raw scorer outputs into per-step log-probabilities.

    Cumulative beam scores then decrease monotonically, so loops cannot
    outscore finished parses.
    """
    if not scores:
        return scores
    vals = np.array(list(scores.values()), dtype=float)
    vals -= vals.max()
    logz = np.log(np.exp(vals).sum())
    return {a: float(v - logz) for a, v in zip(scores.keys(), vals)}


def _vertex_types(item, grammar):
    """item.types extended to every vertex of its configuration."""
    types, verts = item.types, item.config.verts
    if len(types) < len(verts):
        types += tuple(type_of(v.symbol, grammar) for v in verts[len(types):])
    return types


def _type_filtered(c, types, action):
    """Type-composition veto for arc actions; returns the types after
    action, or None when the arc is vetoed."""
    kind = tm.action_kind(action)
    if kind == "ARC":
        _, direction, _ = tm.parse_arc_action(action)
        l, r = c.cache
        head, dep = (r, l) if direction == "left" else (l, r)
    elif kind == "PROMOTE_ARC":
        head, dep = c.promoted, c.cache[1]
    else:
        return types
    ok, new_type = check_arc(types[head], types[dep])
    if not ok:
        return None
    return types[:head] + (new_type,) + types[head + 1:]


def _lexicon_filtered(machine, c, actions, lexicon):
    """Restrict SUFFIX candidates by the lexicon entry for the word stem;
    an empty intersection falls back to the unconstrained set."""
    suffix_actions = [a for a in actions if tm.action_kind(a) == "SUFFIX"]
    if not suffix_actions or lexicon is None:
        return actions
    word = c.front_tokens()[0]
    candidates = {a: machine.make_symbol(c, a.split(":", 1)[1]).render()
                  for a in suffix_actions}
    kept = lexicon_filter(word, set(candidates.values()), lexicon)
    if not kept:
        return actions  # documented fallback: relax rather than dead-end
    return [a for a in actions
            if tm.action_kind(a) != "SUFFIX" or candidates[a] in kept]


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
    Items reaching the cap are finalized as-is.

    The search stops once the best finished item ranks before every live
    one.  That is exact: per-step scores are log-probabilities (<= 0), so
    no descendant of a live item scores higher than it, and a
    descendant's rank extends its parent's, so it sorts after it on a
    tie; nothing found later could outrank the best finished item.
    """
    cap = cap if cap is not None else machine.step_cap
    beam = [BeamItem(machine.init(sentence))]
    best = None  # best finished item
    while beam:
        live = []
        for item in beam:
            c = item.config
            terminal = machine.is_terminal(c)
            if terminal or c.steps >= cap:
                done = BeamItem(c, item.score, item.history, item.types,
                                item.rank + ((0,) if terminal else (1,)))
                if best is None or _rank_key(done) < _rank_key(best):
                    best = done
            else:
                live.append(item)
        if best is not None and all(_rank_key(best) < _rank_key(it) for it in live):
            break
        candidates = []
        for item in live:
            c = item.config
            legal = _concrete_candidates(machine, c)  # in canonical order
            legal = _lexicon_filtered(machine, c, legal, lexicon)
            feats = extract_features(c, dep)
            scores = _log_softmax(scorer.score(c, feats, legal))
            types = _vertex_types(item, grammar) if grammar is not None else item.types
            for ai, action in enumerate(legal):
                new_types = types
                if grammar is not None:
                    new_types = _type_filtered(c, types, action)
                    if new_types is None:
                        continue  # vetoed: not added to the search beam
                score = item.score + scores.get(action, 0.0)
                candidates.append((-score, item.rank, ai, score, item, action,
                                   new_types))
        if not candidates:
            break
        top = heapq.nsmallest(beam_size, candidates, key=lambda t: t[:3])
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
