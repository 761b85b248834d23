"""The node-generative cache transition system.

State is a configuration of four structures: a stack, a two-slot cache,
a buffer cursor over the input words, and the partial graph under
construction.  Parsing proceeds through phases; each phase offers a small
menu of actions, and actions move between phases:

    GEN --WORDGEN--> WORDGEN --NAME/LEMMA/TOKEN--> {NAMEGEN,LEMMAGEN,TOKENGEN}
    {NAMEGEN,LEMMAGEN,TOKENGEN} --SUFFIX:e--> PUSH
    GEN --SYMGEN:s--> PUSH          GEN --SKIP / MERGEBUF--> GEN
    PUSH --PUSHIDX:i--> ARC
    ARC --ARC:0:d:l / NOARC--> PROMOTE
    PROMOTE --PROMOTE_SYM:s--> PROMOTEARC --PROMOTE_ARC:l--> ARC
    PROMOTE --NOPROMOTE--> POP
    POP --POP--> ARC                POP --NOPOP--> GEN

A parse terminates in GEN, after a NOPOP (or trailing SKIP), with the
buffer exhausted and the stack empty.  Graph vertices live in exactly one
of: the cache, the stack, the pending slot (generated but not yet
pushed), or retired (present only in the partial graph).

Action wire format, one action per line (bit-exact):

    WORDGEN | NAME | LEMMA | TOKEN | SUFFIX:<ext> | SYMGEN:<atom> |
    SKIP | MERGEBUF | PUSHIDX:<0|1> | ARC:0:<left|right>:<label> |
    NOARC | PROMOTE_SYM:<atom> | PROMOTE_ARC:<label> | NOPROMOTE |
    POP | NOPOP

where <label> carries its leading colon, e.g. ``ARC:0:left::ARG0`` and
``PROMOTE_ARC::ARG0``; ``SUFFIX:`` with an empty extension generates a
bare operator from the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Atom,
    NAME,
    OPERATOR,
    SUFFIXED,
    Sentence,
    UlfGraph,
    UlfSyntaxError,
    Vertex,
    _SEXPR_TOKEN,
    graph_fragments,
    parse_atom,
)

# Phases
GEN = "GEN"
WORDGEN = "WORDGEN"
NAMEGEN = "NAMEGEN"
LEMMAGEN = "LEMMAGEN"
TOKENGEN = "TOKENGEN"
PUSH = "PUSH"
ARC = "ARC"
PROMOTE = "PROMOTE"
PROMOTEARC = "PROMOTEARC"
POP = "POP"

PHASES = (GEN, WORDGEN, NAMEGEN, LEMMAGEN, TOKENGEN, PUSH, ARC, PROMOTE, PROMOTEARC, POP)

CACHE_SIZE = 2  # fixed; only tree structures are parsed
# the oracle's bound on a gold sequence; those of 31 synthetic corpora
# (bench/corpus.py) run to 981 actions
DEFAULT_STEP_CAP = 2000
# the decoder's bound on a hypothesis, Machine.step_cap
DEFAULT_DECODE_CAP = 800

# Canonical action-kind order, used for deterministic tie-breaking.
_KIND_ORDER = [
    "PUSHIDX", "ARC", "SUFFIX", "SYMGEN", "MERGEBUF", "PROMOTE_SYM",
    "PROMOTE_ARC", "NOARC", "NOPROMOTE", "POP", "NOPOP", "SKIP",
    "WORDGEN", "NAME", "LEMMA", "TOKEN",
]
_KIND_RANK = {k: i for i, k in enumerate(_KIND_ORDER)}


class IllegalAction(ValueError):
    pass


def action_kind(action: str) -> str:
    return action.split(":", 1)[0]


def action_sort_key(action: str):
    kind = action_kind(action)
    return (_KIND_RANK.get(kind, len(_KIND_ORDER)), action)


def parse_arc_action(action: str):
    """ARC:<i>:<dir>:<label> -> (i, dir, label)."""
    parts = action.split(":", 3)
    if len(parts) != 4 or parts[0] != "ARC":
        raise IllegalAction("malformed arc action %r" % action)
    return int(parts[1]), parts[2], parts[3]


def arc_action(i: int, direction: str, label: str) -> str:
    return "ARC:%d:%s:%s" % (i, direction, label)


def format_actions(actions) -> str:
    return "\n".join(actions) + "\n"


def parse_action_file(text: str):
    """Parse the oracle dump format: '# id: ...' headers start a record."""
    records = []
    cur_id, cur = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# id:"):
            if cur_id is not None or cur:
                records.append((cur_id, cur))
            cur_id, cur = line[5:].strip(), []
        elif line.startswith("#"):
            continue
        else:
            cur.append(line)
    if cur_id is not None or cur:
        records.append((cur_id, cur))
    return records


def _spells_atom(param: str) -> bool:
    """Whether a SYMGEN or PROMOTE_SYM parameter spells an atom."""
    try:
        parse_atom(param)
    except UlfSyntaxError:
        return False
    return True


def _any_param(param: str) -> bool:
    return True


def _menu(prefix, vocab, applies=_any_param):
    """One kind's menu record: (its actions in canonical order, the prefix
    they share, the test a parameter must pass).  applies accepts the
    parameters that apply can take, and only those are legal: a closed
    vocabulary lists its parameters that pass, and an open one (None)
    lists the "*" marker."""
    if vocab is None:
        return ((prefix + "*",), prefix, applies)
    params = [v for v in vocab if applies(v)]
    return (tuple(sorted(prefix + v for v in params)), prefix,
            frozenset(params).__contains__)


# the bare (parameterless) actions a phase can offer, in canonical order
_MERGE_SKIP_WORDGEN = ("MERGEBUF", "SKIP", "WORDGEN")
_SKIP_WORDGEN = ("SKIP", "WORDGEN")
_PUSHES = ("PUSHIDX:0", "PUSHIDX:1")
_NOARC = ("NOARC",)
_NOPROMOTE = ("NOPROMOTE",)
_POP_NOPOP = ("POP", "NOPOP")
_NOPOP = ("NOPOP",)
_NOTHING = ((), ())
# the WORDGEN offers, indexed [lemma reads back][token reads back]
_WORDGEN_BARE = ((("NAME",), ("NAME", "TOKEN")),
                 (("NAME", "LEMMA"), ("NAME", "LEMMA", "TOKEN")))


def front_stems(sentence: Sentence, cursor: int, merged: int):
    """(name, token, lemma): the stems that NAME, TOKEN and LEMMA spell
    from the merged words cursor .. cursor + merged - 1.  A name joins
    the surfaces with spaces; a token stem joins the lowercased surfaces
    and a lemma stem the lowercased lemmas with underscores."""
    if merged == 1:  # most fronts: the same stems without the joins
        t = sentence.tokens[cursor - 1]
        return t.surface, t.surface.lower(), t.lemma.lower()
    toks = sentence.tokens[cursor - 1:cursor - 1 + merged]
    return (" ".join([t.surface for t in toks]),
            "_".join([t.surface.lower() for t in toks]),
            "_".join([t.lemma.lower() for t in toks]))


def _reads_back(stem: str) -> bool:
    """Whether the atoms built on a TOKEN or LEMMA stem read back as
    themselves: the reader's tokenizer gives the stem as one atom token
    (not a delimiter, a comment, several tokens or a name in pipes), and
    it holds no dot, where the reader would split stem from tag.  So "(",
    ";x", "a b" and "u.s" fail, and "a;b" passes."""
    return ("." not in stem and stem[:1] not in "()|"
            and _SEXPR_TOKEN.findall(stem) == [stem])


def _set_parent(parents, vid, parent):
    return parents[:vid] + (parent,) + parents[vid + 1:]


def _next(c, action, **changes):
    """c after action: its fields with changes, action as last_action and
    one more step.  Built by copying c's field dict, not through
    dataclasses.replace, which would run the frozen __init__'s
    object.__setattr__ once per field."""
    nxt = object.__new__(type(c))
    fields = nxt.__dict__
    fields.update(c.__dict__)
    fields.update(changes)
    fields["last_action"] = action
    fields["steps"] = c.steps + 1
    return nxt


@dataclass(frozen=True)
class Config:
    """Immutable transition state; apply() returns a new value."""

    sentence: Sentence
    stack: tuple = ()           # (slot index, vertex id or None) entries
    cache: tuple = (None, None)
    cursor: int = 1             # 1-based index of the next word
    merged: int = 1             # how many words are fused at the front
    verts: tuple = ()           # Vertex, in creation order
    edges: tuple = ()           # (src vid, dst vid, label)
    parents: tuple = ()         # per vertex: parent vid, or None
    phase: str = GEN
    pending: Optional[int] = None   # generated vertex awaiting PUSHIDX
    promoted: Optional[int] = None  # PROMOTE_SYM vertex awaiting PROMOTE_ARC
    last_action: Optional[str] = None
    steps: int = 0

    @property
    def buffer_empty(self) -> bool:
        return self.cursor > len(self.sentence)

    def parent_of(self, vid: int) -> Optional[int]:
        return self.parents[vid]

    def descendants(self, vid: int) -> set:
        out, todo = set(), [vid]
        while todo:
            v = todo.pop()
            for src, dst, _ in self.edges:
                if src == v and dst not in out:
                    out.add(dst)
                    todo.append(dst)
        return out


class Machine:
    """Applies actions to configurations.

    Vocabularies bound here: arc labels, suffix extensions, the SYMGEN
    symbol vocabulary (None = unrestricted), and the PROMOTE_SYM
    vocabulary.
    """

    def __init__(self, arc_labels=None, suffixes=None, symgen_vocab=None,
                 promote_syms=None, step_cap=DEFAULT_DECODE_CAP):
        self.arc_labels = list(arc_labels) if arc_labels is not None else None
        self.suffixes = list(suffixes) if suffixes is not None else None
        self.symgen_vocab = list(symgen_vocab) if symgen_vocab is not None else None
        self.promote_syms = list(promote_syms) if promote_syms is not None else None
        self.step_cap = step_cap
        # the per-kind menu records; the vocabularies are fixed from here on
        self._symgen = (_menu("SYMGEN:", self.symgen_vocab, _spells_atom),)
        self._promote_sym = (_menu("PROMOTE_SYM:", self.promote_syms, _spells_atom),)
        self._left = _menu(arc_action(0, "left", ""), self.arc_labels)
        self._right = _menu(arc_action(0, "right", ""), self.arc_labels)
        # (menus, bare actions) of the phases whose offer is constant
        suffix = ((_menu("SUFFIX:", self.suffixes),), ())
        self._fixed = {
            NAMEGEN: suffix,
            LEMMAGEN: suffix,
            TOKENGEN: suffix,
            PROMOTEARC: ((_menu("PROMOTE_ARC:", self.arc_labels),), ()),
        }

    # -- lifecycle ---------------------------------------------------------

    def init(self, sentence: Sentence) -> Config:
        if len(sentence) == 0:
            raise ValueError("cannot initialize on an empty sentence")
        return Config(sentence=sentence)

    def is_terminal(self, c: Config) -> bool:
        return (
            c.phase == GEN
            and c.buffer_empty
            and not c.stack
            and c.last_action is not None
            and action_kind(c.last_action) in ("NOPOP", "SKIP")
        )

    def extract_result(self, c: Config) -> list[UlfGraph]:
        return graph_fragments(list(c.verts), list(c.edges))

    # -- legality ----------------------------------------------------------

    def offer(self, c: Config):
        """(menus, bare): the menu records and the bare actions legal in c,
        each in canonical order (action_sort_key), menus first.  The
        records and the bare tuples are this machine's constants, so two
        offers that hold the same objects offer the same actions."""
        phase = c.phase
        if phase == ARC:
            l, r = c.cache
            if l is None or r is None:
                return (), _NOARC
            menus = (self._left,) if self._arc_ok(c, r, l) else ()
            if self._arc_ok(c, l, r):
                menus += (self._right,)
            return menus, _NOARC
        if phase == PROMOTE:
            r = c.cache[1]
            if r is not None and c.parents[r] is None:
                return self._promote_sym, _NOPROMOTE
            return (), _NOPROMOTE
        if phase == POP:
            return (), (_POP_NOPOP if c.stack else _NOPOP)
        if phase == PUSH:
            return (), (_PUSHES if c.pending is not None else ())
        if phase == GEN:
            if c.cursor + c.merged <= len(c.sentence):
                return self._symgen, _MERGE_SKIP_WORDGEN
            return self._symgen, (() if c.buffer_empty else _SKIP_WORDGEN)
        if phase == WORDGEN:
            _, token, lemma = front_stems(c.sentence, c.cursor, c.merged)
            return (), _WORDGEN_BARE[_reads_back(lemma)][_reads_back(token)]
        return self._fixed.get(phase, _NOTHING)

    def legal_actions(self, c: Config) -> list[str]:
        """All actions permitted in c, in canonical order (action_sort_key)."""
        menus, bare = self.offer(c)
        out = []
        for menu in menus:
            out += menu[0]
        out += bare
        return out

    def is_legal(self, c: Config, action: str) -> bool:
        """Whether action is one of legal_actions(c), where an open
        vocabulary's "*" marker admits any concrete parameter that apply
        can take: for SYMGEN and PROMOTE_SYM, one that spells an atom."""
        menus, bare = self.offer(c)
        if action in bare:
            return True
        for _, prefix, allows in menus:
            if action.startswith(prefix):
                return allows(action[len(prefix):])
        return False

    def _arc_ok(self, c: Config, src: int, dst: int) -> bool:
        # keep the partial graph a forest: one parent per vertex, and no
        # arc into src itself or one of its ancestors (that closes a cycle)
        parents = c.parents
        if parents[dst] is not None:
            return False
        v = src
        while v is not None:
            if v == dst:
                return False
            v = parents[v]
        return True

    # -- application -------------------------------------------------------

    def apply(self, c: Config, action: str) -> Config:
        if not self.is_legal(c, action):
            raise IllegalAction("action %r illegal in phase %s" % (action, c.phase))
        kind, _, arg = action.partition(":")

        if kind == "WORDGEN":
            return _next(c, action, phase=WORDGEN)
        if kind == "NAME":
            return _next(c, action, phase=NAMEGEN)
        if kind == "LEMMA":
            return _next(c, action, phase=LEMMAGEN)
        if kind == "TOKEN":
            return _next(c, action, phase=TOKENGEN)

        if kind == "SUFFIX":
            atom = self.make_symbol(c, arg)
            verts = c.verts + (Vertex(atom, c.cursor),)
            return _next(c, action, verts=verts, parents=c.parents + (None,),
                         pending=len(verts) - 1, cursor=c.cursor + c.merged,
                         merged=1, phase=PUSH)

        if kind == "SYMGEN":
            verts = c.verts + (Vertex(parse_atom(arg), None),)
            return _next(c, action, verts=verts, parents=c.parents + (None,),
                         pending=len(verts) - 1, phase=PUSH)

        if kind == "SKIP":
            return _next(c, action, cursor=c.cursor + 1, merged=1, phase=GEN)

        if kind == "MERGEBUF":
            return _next(c, action, merged=c.merged + 1, phase=GEN)

        if kind == "PUSHIDX":
            i = int(arg)
            stack = c.stack + ((i, c.cache[i]),)
            cache = (c.pending, c.cache[1]) if i == 0 else (c.cache[0], c.pending)
            return _next(c, action, stack=stack, cache=cache, pending=None, phase=ARC)

        if kind == "ARC":
            _, direction, label = parse_arc_action(action)
            l, r = c.cache
            src, dst = (r, l) if direction == "left" else (l, r)
            return _next(c, action, edges=c.edges + ((src, dst, label),),
                         parents=_set_parent(c.parents, dst, src), phase=PROMOTE)

        if kind == "NOARC":
            return _next(c, action, phase=PROMOTE)

        if kind == "PROMOTE_SYM":
            verts = c.verts + (Vertex(parse_atom(arg), None),)
            return _next(c, action, verts=verts, parents=c.parents + (None,),
                         promoted=len(verts) - 1, phase=PROMOTEARC)

        if kind == "PROMOTE_ARC":
            r = c.cache[1]
            edges = c.edges + ((c.promoted, r, arg),)
            cache = (c.cache[0], c.promoted)  # old rightmost retires
            return _next(c, action, edges=edges,
                         parents=_set_parent(c.parents, r, c.promoted),
                         cache=cache, promoted=None, phase=ARC)

        if kind == "NOPROMOTE":
            return _next(c, action, phase=POP)

        if kind == "POP":
            i, v = c.stack[-1]
            # rightmost retires, restored entry lands at its slot, shifting right
            cache = (v, c.cache[0]) if i == 0 else (c.cache[0], v)
            return _next(c, action, stack=c.stack[:-1], cache=cache, phase=ARC)

        if kind == "NOPOP":
            return _next(c, action, phase=GEN)

        raise IllegalAction("unknown action %r" % action)

    def make_symbol(self, c: Config, ext: str) -> Atom:
        name, token, lemma = front_stems(c.sentence, c.cursor, c.merged)
        if c.phase == NAMEGEN:
            return Atom(name, NAME, ext)
        stem = token if c.phase == TOKENGEN else lemma
        return Atom(stem, SUFFIXED, ext) if ext else Atom(stem, OPERATOR)

    def replay(self, sentence: Sentence, actions) -> Config:
        c = self.init(sentence)
        for a in actions:
            c = self.apply(c, a)
        return c
