"""Gold action-sequence extraction.

Given a sentence, its gold graph, and a word/vertex alignment, produce an
action sequence whose replay through the transition machine reconstructs
the gold graph exactly.

The extractor statically designates how each gold vertex will enter the
graph: unary operators in the promote vocabulary arrive by promotion over
their completed argument; everything else is generated in preorder
sequence, anchored to a word (NAME/TOKEN/LEMMA paths) when one spells the
stem and through SYMGEN otherwise.

Extraction is a deterministic greedy policy: in every state exactly one
per-phase rule picks the next action (including the PUSHIDX slot and the
POP/NOPOP timing), with no lookahead or backtracking.  It fails loudly,
carrying the offending configuration, when the sequence would exceed the
action cap, when a rule action is illegal, or when no rule fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import machine as tm
from .align import AlignmentMap, align
from .core import Sentence, UlfGraph, graphs_equal

# Operators that never align to English words and may be generated through
# promotion.  Editable; COMPLEX is the reserved non-atomic marker.
DEFAULT_PROMOTE_SYMBOLS = (
    "pres", "past", "plur", "k", "ka", "to", "that", "tht",
    "adv-a", "adv-e", "adv-s", "sub", "rep", "n+preds", "np+preds",
    "=", "!", "?", "multi-sent", "pasv", "perf", "prog", "COMPLEX",
)


class OracleError(RuntimeError):
    """Extraction got stuck; carries the offending configuration."""

    def __init__(self, message, config=None):
        super().__init__(message)
        self.config = config


@dataclass
class GoldIndex:
    """Precomputed views of the gold graph used by the oracle rules."""

    graph: UlfGraph
    parent: list
    children: list          # list of (child vid, label) per vid, ordered
    subtree_size: list      # including self
    edge_labels: dict       # (src, dst) -> label
    promoted: set = field(default_factory=set)
    trigger: dict = field(default_factory=dict)   # promoted vid -> child vid
    n_edges: int = 0

    @classmethod
    def build(cls, gold: UlfGraph, promote_syms) -> "GoldIndex":
        m = len(gold.vertices)
        children = [gold.children(v) for v in range(m)]
        parent = [None] * m
        for src, dst, _ in gold.edges:
            parent[dst] = src
        size = [1] * m
        for v in reversed(range(m)):  # preorder: children have larger ids
            for c, _ in children[v]:
                size[v] += size[c]
        idx = cls(
            graph=gold,
            parent=parent,
            children=children,
            subtree_size=size,
            edge_labels={(s, d): lab for s, d, lab in gold.edges},
            n_edges=len(gold.edges),
        )
        idx._designate(set(promote_syms))
        return idx

    def label(self, vid):
        return self.graph.vertices[vid].symbol.render()

    def _designate(self, promote_syms):
        # Only unary operators are promotion-designated.  A promoted vertex
        # materializes in the rightmost cache slot and gets exactly one
        # arc opportunity there (the arc test after its PROMOTE_ARC), which
        # covers its parent edge; a multi-child operator would need several
        # and deadlocks the two-slot cache, so those are generated in
        # sequence instead.  Chains of unary operators promote bottom-up
        # with only the chain top needing the single regular arc.
        for v in range(len(self.graph.vertices)):
            kids = self.children[v]
            if self.label(v) in promote_syms and len(kids) == 1:
                self.promoted.add(v)
                self.trigger[v] = kids[0][0]


@dataclass(frozen=True)
class OracleState:
    config: tm.Config
    hyp2gold: tuple  # machine vid -> gold vid


class Oracle:
    def __init__(self, sentence: Sentence, gold: UlfGraph, alignment: AlignmentMap,
                 promote_syms=DEFAULT_PROMOTE_SYMBOLS, inseq_syms=frozenset(),
                 step_cap=tm.DEFAULT_STEP_CAP):
        self.sentence = sentence
        self.gold = gold
        self.alignment = alignment
        self.s_p = tuple(promote_syms)
        self.s_s = frozenset(inseq_syms)
        self.idx = GoldIndex.build(gold, self.s_p)
        self.machine = tm.Machine(step_cap=step_cap)  # open vocabularies
        self.step_cap = step_cap
        # word index -> gold vids it aligns to
        self.word_verts = {}
        for w, v in alignment.token_pairs:
            self.word_verts.setdefault(w, set()).add(v)
        # gold vid -> first aligned word
        self.vert_word = {v: alignment.vertex_alignment(v)
                          for _, v in alignment.token_pairs}

    # -- bookkeeping ---------------------------------------------------------

    def initial(self) -> OracleState:
        return OracleState(self.machine.init(self.sentence), ())

    def gold_of(self, st: OracleState, vid):
        return st.hyp2gold[vid] if vid is not None else None

    def generated(self, st: OracleState) -> set:
        return set(st.hyp2gold)

    def next_gen_target(self, st: OracleState):
        done = self.generated(st)
        for v in range(len(self.gold.vertices)):
            if v not in done and v not in self.idx.promoted:
                return v
        return None

    def fully_formed(self, st: OracleState, vid) -> bool:
        g = st.hyp2gold[vid]
        return len(st.config.descendants(vid)) == self.idx.subtree_size[g] - 1

    def attached(self, st: OracleState, vid) -> bool:
        return st.config.parent_of(vid) is not None

    def all_done(self, st: OracleState) -> bool:
        return (len(st.hyp2gold) == len(self.gold.vertices)
                and len(st.config.edges) == self.idx.n_edges)

    # -- per-phase rules ------------------------------------------------------

    def next_action(self, st: OracleState) -> str:
        """The rule action in this state (no lookahead)."""
        c = st.config
        phase = c.phase
        action = None
        if phase == tm.GEN:
            action = self._gen_action(st)
        elif phase == tm.WORDGEN:
            action = self._wordgen_action(st)
        elif phase in (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN):
            target = self.next_gen_target(st)
            tag = self.gold.vertices[target].symbol.tag if target is not None else ""
            action = "SUFFIX:%s" % tag
        elif phase == tm.PUSH:
            action = self._push_action(st)
        elif phase == tm.ARC:
            action = self._arc_action(st)
        elif phase == tm.PROMOTE:
            action = self._promote_action(st)
        elif phase == tm.PROMOTEARC:
            g_par = st.hyp2gold[c.promoted]
            g_child = st.hyp2gold[c.cache[1]]
            action = "PROMOTE_ARC:%s" % self.idx.edge_labels[(g_par, g_child)]
        elif phase == tm.POP:
            action = self._pop_action(st)
        if action is None:
            raise OracleError("no oracle rule fires", c)
        return action

    # GEN: the ordered generation steps.
    def _gen_action(self, st: OracleState):
        c = st.config
        target = self.next_gen_target(st)
        if target is not None and not c.buffer_empty:
            atom = self.gold.vertices[target].symbol
            b, is_name = atom.stem, atom.is_name
            toks = c.front_tokens()
            name_join = " ".join(t.surface for t in toks)
            tok_join = "_".join(t.surface.lower() for t in toks)
            lem_join = "_".join(t.lemma.lower() for t in toks)
            # 1-3: the word at the front spells the target stem
            if is_name and name_join == b:
                return "WORDGEN"
            if not is_name and (tok_join == b or lem_join == b):
                return "WORDGEN"
            # 4: the front group extends toward a multi-word stem
            if c.cursor + c.merged <= len(c.sentence):
                nxt = self.sentence.token(c.cursor + c.merged)
                if is_name and b.startswith(name_join + " " + nxt.surface):
                    return "MERGEBUF"
                if not is_name and (
                    b.lower().startswith(lem_join + "_" + nxt.lemma.lower())
                    or b.lower().startswith(tok_join + "_" + nxt.surface.lower())
                ):
                    return "MERGEBUF"
        # 5: generate the target without a word
        if target is not None and self._symgen_now(st, target):
            return "SYMGEN:%s" % self.idx.label(target)
        # 6: discard a front word that cannot feed the target
        if not c.buffer_empty and self._skip_now(st, target):
            return "SKIP"
        # 7: fallback
        if target is not None:
            return "SYMGEN:%s" % self.idx.label(target)
        return None

    def _symgen_now(self, st, target) -> bool:
        word = self.vert_word.get(target)
        if word is None:
            return True  # never alignable: only SYMGEN can produce it
        if word < st.config.cursor:
            return True  # its word is already consumed
        return self.idx.label(target) in self.s_s

    def _skip_now(self, st, target) -> bool:
        w = st.config.cursor
        aligned = self.word_verts.get(w)
        if not aligned:
            return True  # word aligns to nothing
        done = self.generated(st)
        return all(v in done or (target is not None and v > target) for v in aligned)

    def _wordgen_action(self, st: OracleState):
        c = st.config
        target = self.next_gen_target(st)
        atom = self.gold.vertices[target].symbol
        toks = c.front_tokens()
        if atom.is_name:
            return "NAME"
        if "_".join(t.surface.lower() for t in toks) == atom.stem:
            return "TOKEN"
        return "LEMMA"

    def _push_action(self, st: OracleState):
        c = st.config
        g = st.hyp2gold[c.pending]
        if self.idx.children[g]:
            return "PUSHIDX:0"  # a constituent head builds at the left slot
        p = self.idx.parent[g]
        r_gold = self.gold_of(st, c.cache[1])
        return "PUSHIDX:%d" % (0 if (p is not None and p == r_gold) else 1)

    def _arc_action(self, st: OracleState):
        c = st.config
        l, r = c.cache
        if l is None or r is None:
            return "NOARC"
        gl, gr = st.hyp2gold[l], st.hyp2gold[r]
        built = set(c.edges)
        if (gl, gr) in self.idx.edge_labels and (l, r, self.idx.edge_labels[(gl, gr)]) not in built:
            if self.fully_formed(st, r):
                return tm.arc_action(0, "right", self.idx.edge_labels[(gl, gr)])
        if (gr, gl) in self.idx.edge_labels and (r, l, self.idx.edge_labels[(gr, gl)]) not in built:
            if self.fully_formed(st, l):
                return tm.arc_action(0, "left", self.idx.edge_labels[(gr, gl)])
        return "NOARC"

    def _promote_action(self, st: OracleState):
        c = st.config
        r = c.cache[1]
        if r is None or self.attached(st, r) or not self.fully_formed(st, r):
            return "NOPROMOTE"
        g = st.hyp2gold[r]
        p = self.idx.parent[g]
        if (p is not None and p not in self.generated(st)
                and p in self.idx.promoted and self.idx.trigger[p] == g):
            return "PROMOTE_SYM:%s" % self.idx.label(p)
        return "NOPROMOTE"

    def _pop_action(self, st: OracleState):
        c = st.config
        if not c.stack:
            return "NOPOP"
        r = c.cache[1]
        retire_ok = r is None or (
            self.fully_formed(st, r)
            and (self.attached(st, r) or st.hyp2gold[r] == self.gold.root)
        )
        if not retire_ok:
            return "NOPOP"
        i, v = c.stack[-1]
        left = c.cache[0]
        if i == 1 or left is None or self.all_done(st):
            return "POP"
        if self.fully_formed(st, left):
            gl = st.hyp2gold[left]
            v_gold = self.gold_of(st, v)
            p = self.idx.parent[gl]
            pending_trigger = (
                p is not None and p not in self.generated(st)
                and p in self.idx.promoted and self.idx.trigger[p] == gl
            )
            if (v_gold is not None and v_gold == p) or pending_trigger:
                return "POP"
        return "NOPOP"

    # -- state transition ------------------------------------------------------

    def step(self, st: OracleState, action: str) -> OracleState:
        c2 = self.machine.apply(st.config, action)
        kind = tm.action_kind(action)
        h2g = st.hyp2gold
        if kind in ("SUFFIX", "SYMGEN"):
            h2g = h2g + (self.next_gen_target(st),)
        elif kind == "PROMOTE_SYM":
            g = st.hyp2gold[st.config.cache[1]]
            h2g = h2g + (self.idx.parent[g],)
        return OracleState(c2, h2g)

    def is_goal(self, st: OracleState) -> bool:
        return self.machine.is_terminal(st.config) and self.all_done(st)

    # -- extraction ------------------------------------------------------------

    def extract(self) -> list:
        """Follow the rule policy from the initial state to the goal."""
        st = self.initial()
        actions = []
        while not self.is_goal(st):
            if len(actions) == self.step_cap:
                raise OracleError(
                    "oracle sequence exceeds the %d-action cap" % self.step_cap,
                    st.config)
            action = self.next_action(st)
            try:
                st = self.step(st, action)
            except tm.IllegalAction as e:
                raise OracleError("oracle rule action %s is illegal: %s"
                                  % (action, e), st.config) from e
            actions.append(action)
        return actions


def extract(sentence: Sentence, gold: UlfGraph, alignment: AlignmentMap,
            promote_syms=DEFAULT_PROMOTE_SYMBOLS, inseq_syms=frozenset(),
            step_cap=tm.DEFAULT_STEP_CAP) -> list:
    """Extract the gold action sequence and verify it replays to gold."""
    oracle = Oracle(sentence, gold, alignment, promote_syms, inseq_syms, step_cap)
    actions = oracle.extract()
    final = tm.Machine(step_cap=step_cap).replay(sentence, actions)
    frags = oracle.machine.extract_result(final)
    if len(frags) != 1 or not graphs_equal(frags[0], gold):
        raise OracleError("replay does not reconstruct the gold graph", final)
    return actions


def extract_with_alignment(sentence: Sentence, gold: UlfGraph,
                           promote_syms=DEFAULT_PROMOTE_SYMBOLS,
                           inseq_syms=frozenset(),
                           step_cap=tm.DEFAULT_STEP_CAP):
    """Align, then extract.  Returns (actions, alignment)."""
    amap = align(sentence, gold, never_align=frozenset(promote_syms))
    return extract(sentence, gold, amap, promote_syms, inseq_syms, step_cap), amap


def build_symbol_sets(aligned, promote_syms=DEFAULT_PROMOTE_SYMBOLS):
    """Harvest (S_p, S_s) from an aligned training corpus.

    aligned: iterable of (Sentence, UlfGraph, AlignmentMap), each map
    made with never_align=promote_syms.  S_p is the configured promote
    vocabulary; S_s collects atoms that appear in gold graphs, are never
    aligned by the aligner, and are not in S_p.
    """
    s_p = tuple(promote_syms)
    never = frozenset(s_p)
    s_s = set()
    for _, gold, amap in aligned:
        aligned_vids = {v for _, v in amap.token_pairs}
        for vid, vert in enumerate(gold.vertices):
            r = vert.symbol.render()
            if vid not in aligned_vids and r not in never:
                s_s.add(r)
    return s_p, frozenset(s_s)
