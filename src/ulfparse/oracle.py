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
            n_edges=len(gold.edges),
        )
        idx._designate(set(promote_syms))
        return idx

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
            if self.graph.label(v) in promote_syms and len(kids) == 1:
                self.promoted.add(v)
                self.trigger[v] = kids[0][0]


class Oracle:
    def __init__(self, sentence: Sentence, gold: UlfGraph, alignment: AlignmentMap,
                 promote_syms=DEFAULT_PROMOTE_SYMBOLS, inseq_syms=frozenset(),
                 step_cap=tm.DEFAULT_STEP_CAP):
        self.sentence = sentence
        self.gold = gold
        self.s_s = frozenset(inseq_syms)
        self.idx = GoldIndex.build(gold, promote_syms)
        self.machine = tm.Machine()  # open vocabularies
        self.step_cap = step_cap
        self.hyp2gold = []  # machine vid -> gold vid, filled by extract
        # word index -> gold vids it aligns to
        self.word_verts = {}
        for w, v in alignment.token_pairs:
            self.word_verts.setdefault(w, set()).add(v)
        # gold vid -> first aligned word
        self.vert_word = {v: alignment.vertex_alignment(v)
                          for _, v in alignment.token_pairs}

    # -- bookkeeping ---------------------------------------------------------

    def gold_of(self, vid):
        return self.hyp2gold[vid] if vid is not None else None

    def next_gen_target(self):
        done = set(self.hyp2gold)
        for v in range(len(self.gold.vertices)):
            if v not in done and v not in self.idx.promoted:
                return v
        return None

    def fully_formed(self, c: tm.Config, vid) -> bool:
        g = self.hyp2gold[vid]
        return len(c.descendants(vid)) == self.idx.subtree_size[g] - 1

    def all_done(self, c: tm.Config) -> bool:
        return (len(self.hyp2gold) == len(self.gold.vertices)
                and len(c.edges) == self.idx.n_edges)

    def _promotes_next(self, g) -> bool:
        """Whether gold vertex g triggers its parent's promotion, which is
        still to come."""
        p = self.idx.parent[g]
        return (p is not None and p not in self.hyp2gold
                and p in self.idx.promoted and self.idx.trigger[p] == g)

    # -- per-phase rules ------------------------------------------------------

    def next_action(self, c: tm.Config) -> str:
        """The rule action in configuration c (no lookahead)."""
        phase = c.phase
        action = None
        if phase == tm.GEN:
            action = self._gen_action(c)
        elif phase == tm.WORDGEN:
            action = self._wordgen_action(c)
        elif phase in (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN):
            target = self.next_gen_target()
            tag = self.gold.vertices[target].symbol.tag if target is not None else ""
            action = "SUFFIX:%s" % tag
        elif phase == tm.PUSH:
            action = self._push_action(c)
        elif phase == tm.ARC:
            action = self._arc_action(c)
        elif phase == tm.PROMOTE:
            action = self._promote_action(c)
        elif phase == tm.PROMOTEARC:
            action = tm.PROMOTE_ARC
        elif phase == tm.POP:
            action = self._pop_action(c)
        if action is None:
            raise OracleError("no oracle rule fires", c)
        return action

    # GEN: the ordered generation steps.
    def _gen_action(self, c):
        target = self.next_gen_target()
        if target is not None and not c.buffer_empty:
            atom = self.gold.vertices[target].symbol
            b, is_name = atom.stem, atom.is_name
            # 1-3: the word at the front spells the target stem
            name, token, lemma = tm.front_stems(self.sentence, c.cursor, c.merged)
            if b in ((name,) if is_name else (token, lemma)):
                return "WORDGEN"
            # 4: the front group and the next word begin a multi-word stem
            if c.cursor + c.merged <= len(c.sentence):
                name, token, lemma = tm.front_stems(self.sentence, c.cursor,
                                                    c.merged + 1)
                if (b.startswith(name) if is_name
                        else b.lower().startswith((lemma, token))):
                    return "MERGEBUF"
        # 5: generate the target without a word
        if target is not None and self._symgen_now(c, target):
            return "SYMGEN:%s" % self.gold.label(target)
        # 6: discard a front word that cannot feed the target
        if not c.buffer_empty and self._skip_now(c, target):
            return "SKIP"
        # 7: fallback
        if target is not None:
            return "SYMGEN:%s" % self.gold.label(target)
        return None

    def _symgen_now(self, c, target) -> bool:
        word = self.vert_word.get(target)
        if word is None:
            return True  # never alignable: only SYMGEN can produce it
        if word < c.cursor:
            return True  # its word is already consumed
        return self.gold.label(target) in self.s_s

    def _skip_now(self, c, target) -> bool:
        aligned = self.word_verts.get(c.cursor)
        if not aligned:
            return True  # word aligns to nothing
        done = set(self.hyp2gold)
        return all(v in done or (target is not None and v > target) for v in aligned)

    def _wordgen_action(self, c):
        atom = self.gold.vertices[self.next_gen_target()].symbol
        if atom.is_name:
            return "NAME"
        _, token, _ = tm.front_stems(self.sentence, c.cursor, c.merged)
        return "TOKEN" if token == atom.stem else "LEMMA"

    def _push_action(self, c):
        g = self.hyp2gold[c.pending]
        if self.idx.children[g]:
            return "PUSHIDX:0"  # a constituent head builds at the left slot
        p = self.idx.parent[g]
        r_gold = self.gold_of(c.cache[1])
        return "PUSHIDX:%d" % (0 if (p is not None and p == r_gold) else 1)

    def _arc_action(self, c):
        l, r = c.cache
        if l is None or r is None:
            return "NOARC"
        gl, gr = self.hyp2gold[l], self.hyp2gold[r]
        gold_parent, parents = self.idx.parent, c.parents
        if gold_parent[gr] == gl and parents[r] != l and self.fully_formed(c, r):
            return tm.RIGHT_ARC
        if gold_parent[gl] == gr and parents[l] != r and self.fully_formed(c, l):
            return tm.LEFT_ARC
        return "NOARC"

    def _promote_action(self, c):
        r = c.cache[1]
        if r is None or c.parent_of(r) is not None or not self.fully_formed(c, r):
            return "NOPROMOTE"
        g = self.hyp2gold[r]
        if self._promotes_next(g):
            return "PROMOTE_SYM:%s" % self.gold.label(self.idx.parent[g])
        return "NOPROMOTE"

    def _pop_action(self, c):
        if not c.stack:
            return "NOPOP"
        r = c.cache[1]
        retire_ok = r is None or (
            self.fully_formed(c, r)
            and (c.parent_of(r) is not None or self.hyp2gold[r] == self.gold.root)
        )
        if not retire_ok:
            return "NOPOP"
        i, v = c.stack[-1]
        left = c.cache[0]
        if i == 1 or left is None or self.all_done(c):
            return "POP"
        if self.fully_formed(c, left):
            gl = self.hyp2gold[left]
            v_gold = self.gold_of(v)
            if (v_gold is not None and v_gold == self.idx.parent[gl]) \
                    or self._promotes_next(gl):
                return "POP"
        return "NOPOP"

    # -- extraction ------------------------------------------------------------

    def extract(self) -> list:
        """Follow the rule policy from the initial configuration to the
        goal, and check that the final configuration holds the gold graph.

        Every action goes through Machine.apply, so the final
        configuration is the sequence's replay from Machine.init.
        """
        machine = self.machine
        c = machine.init(self.sentence)
        self.hyp2gold = []
        actions = []
        while not (machine.is_terminal(c) and self.all_done(c)):
            if len(actions) == self.step_cap:
                raise OracleError(
                    "oracle sequence exceeds the %d-action cap" % self.step_cap, c)
            action = self.next_action(c)
            try:
                c = machine.apply(c, action)
            except tm.IllegalAction as e:
                raise OracleError("oracle rule action %s is illegal: %s"
                                  % (action, e), c) from e
            kind = tm.action_kind(action)
            if kind in ("SUFFIX", "SYMGEN"):
                self.hyp2gold.append(self.next_gen_target())
            elif kind == "PROMOTE_SYM":  # over the child at the right slot
                self.hyp2gold.append(self.idx.parent[self.hyp2gold[c.cache[1]]])
            actions.append(action)
        frags = machine.extract_result(c)
        if len(frags) != 1 or not graphs_equal(frags[0], self.gold):
            raise OracleError("replay does not reconstruct the gold graph", c)
        return actions


def extract(sentence: Sentence, gold: UlfGraph, alignment: AlignmentMap,
            promote_syms=DEFAULT_PROMOTE_SYMBOLS, inseq_syms=frozenset(),
            step_cap=tm.DEFAULT_STEP_CAP) -> list:
    """Extract the gold action sequence, verified to replay to gold."""
    return Oracle(sentence, gold, alignment, promote_syms, inseq_syms,
                  step_cap).extract()


def extract_with_alignment(sentence: Sentence, gold: UlfGraph,
                           promote_syms=DEFAULT_PROMOTE_SYMBOLS,
                           inseq_syms=frozenset(),
                           step_cap=tm.DEFAULT_STEP_CAP):
    """Align, then extract.  Returns (actions, alignment)."""
    amap = align(sentence, gold, never_align=frozenset(promote_syms))
    return extract(sentence, gold, amap, promote_syms, inseq_syms, step_cap), amap


def build_symbol_sets(aligned, promote_syms=DEFAULT_PROMOTE_SYMBOLS) -> frozenset:
    """Harvest S_s from an aligned training corpus.

    aligned: iterable of (Sentence, UlfGraph, AlignmentMap), each map
    made with never_align=promote_syms.  S_s collects atoms that appear
    in gold graphs, are never aligned by the aligner, and are not in the
    promote vocabulary S_p.
    """
    never = frozenset(promote_syms)
    s_s = set()
    for _, gold, amap in aligned:
        aligned_vids = {v for _, v in amap.token_pairs}
        for vid, vert in enumerate(gold.vertices):
            r = vert.symbol.render()
            if vid not in aligned_vids and r not in never:
                s_s.add(r)
    return frozenset(s_s)
