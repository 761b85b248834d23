"""Core data types for ULF parsing: tokens, atoms, s-expression trees,
and the rooted edge-labeled graph representation with penman conversion.

A ULF formula is a tree written as an s-expression, e.g.::

    (i.pro ((pres want.v) (to dance.v)))

Leaves are atoms.  An atom is either a suffixed symbol (``want.v``: stem
``want``, type tag ``v``), a name in pipes (``|New York|``), or a bare
logical operator (``pres``, ``plur``).  The graph form introduces one
vertex per atom; for each application the leftmost constituent is the
parent.  When the leftmost constituent is itself a non-atomic expression,
a reserved COMPLEX vertex stands in for it, with an :INSTANCE edge to the
expression's own root and :ARGk edges to the remaining siblings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern
from typing import Optional, Union

COMPLEX_LABEL = "COMPLEX"
INSTANCE_EDGE = ":INSTANCE"


class UlfSyntaxError(ValueError):
    """Raised on malformed s-expression or penman input."""


# ---------------------------------------------------------------------------
# Tokens and sentences


@dataclass(frozen=True, slots=True)
class Token:
    """One input word with its annotations. ``index`` is 1-based."""

    surface: str
    lemma: str
    pos: str
    index: int
    ner: str = "O"

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be nonempty")
        if self.index < 1:
            raise ValueError("token index is 1-based")


@dataclass(frozen=True)
class Sentence:
    raw: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        for i, tok in enumerate(self.tokens):
            if tok.index != i + 1:
                raise ValueError("token indices must be contiguous from 1")

    def __len__(self):
        return len(self.tokens)

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    @classmethod
    def make(cls, surfaces, lemmas=None, pos=None, ner=None, raw=None) -> "Sentence":
        """Convenience constructor from parallel lists of strings.

        The strings are interned: a corpus repeats most words, and nearly
        every lemma, POS tag and NER tag, so each is stored once.
        """
        n = len(surfaces)
        lemmas = lemmas if lemmas is not None else [s.lower() for s in surfaces]
        pos = pos if pos is not None else ["X"] * n
        ner = ner if ner is not None else ["O"] * n
        toks = tuple(
            Token(intern(surfaces[i]), intern(lemmas[i]), intern(pos[i]), i + 1,
                  intern(ner[i]))
            for i in range(n)
        )
        return cls(raw if raw is not None else " ".join(surfaces), toks)


# ---------------------------------------------------------------------------
# Atoms

NAME = "name"
SUFFIXED = "suffixed"
OPERATOR = "operator"


@dataclass(frozen=True)
class Atom:
    """A ULF symbol.

    kind is one of ``suffixed`` (stem + "." + tag), ``name`` (|stem|,
    optionally with a tag), or ``operator`` (bare stem).
    """

    stem: str
    kind: str
    tag: str = ""

    def render(self) -> str:
        if self.kind == NAME:
            base = "|%s|" % self.stem
            return base + "." + self.tag if self.tag else base
        if self.kind == SUFFIXED:
            return self.stem + "." + self.tag
        return self.stem

    def __str__(self):
        return self.render()

    @property
    def is_name(self) -> bool:
        return self.kind == NAME


# distinct spellings parse_atom memoizes before starting over; a corpus
# repeats most of its symbols (a synthetic one of 1,738 ULFs spells 127)
ATOM_MEMO_SIZE = 1 << 14
# spelling -> Atom.  An Atom is frozen and compared by value, so every
# reader in the process may share one.
_atoms: dict[str, Atom] = {}


def parse_atom(text: str) -> Atom:
    """Parse one atom spelling.  Inverse of :meth:`Atom.render`.  Atoms
    are memoized by spelling; a spelling that fails raises on every call."""
    atom = _atoms.get(text)
    if atom is None:
        atom = _read_atom(text)
        if len(_atoms) >= ATOM_MEMO_SIZE:
            _atoms.clear()
        _atoms[text] = atom
    return atom


def _read_atom(text: str) -> Atom:
    if not text:
        raise UlfSyntaxError("empty atom")
    if text.startswith("|"):
        end = text.find("|", 1)
        if end < 0:
            raise UlfSyntaxError("unterminated pipe in %r" % text)
        stem = text[1:end]
        rest = text[end + 1 :]
        if rest.startswith("."):
            return Atom(stem, NAME, rest[1:])
        if rest:
            raise UlfSyntaxError("trailing characters after name: %r" % text)
        return Atom(stem, NAME)
    dot = text.find(".")
    if dot > 0 and dot < len(text) - 1:
        return Atom(text[:dot], SUFFIXED, text[dot + 1 :])
    return Atom(text, OPERATOR)


# ---------------------------------------------------------------------------
# S-expression trees

# A UlfTree is either an Atom or a list of UlfTree.
UlfTree = Union[Atom, list]


def parse_sexpr(text: str) -> UlfTree:
    """Parse a balanced s-expression into a tree of atoms and lists.

    Whitespace-insensitive.  Pipes group a single name atom even when the
    name contains spaces: ``(|New York| big.a)`` has two children.
    """
    toks = _tokenize(text, _SEXPR_TOKEN)
    if not toks:
        raise UlfSyntaxError("empty input")
    tree, pos = _parse_tokens(toks, 0)
    if pos != len(toks):
        raise UlfSyntaxError("trailing tokens after expression")
    return tree


# A token is a delimiter alone or an atom, which runs to whitespace or a
# delimiter and takes each |...| group whole, spaces and delimiters
# included.  A lone | is a pipe that never closes.  An s-expression
# comment runs from ; to the end of its line and matches outside the
# group, so findall gives it as "".  \s matches exactly the characters
# str.isspace() accepts.
_SEXPR_TOKEN = re.compile(r";[^\n]*|([()]|(?:[^\s()|]+|\|[^|]*\|)+|\|)")
_PENMAN_TOKEN = re.compile(r"[()/]|(?:[^\s()/|]+|\|[^|]*\|)+|\|")


def _tokenize(text: str, token_re) -> list[str]:
    toks = token_re.findall(text)
    if "|" in toks:
        raise UlfSyntaxError("unterminated pipe")
    if "" in toks:
        toks = [t for t in toks if t]
    return toks


def _parse_tokens(toks, pos):
    """The tree that starts at toks[pos], and the position after it."""
    stack = []  # the lists still open, innermost last
    for pos in range(pos, len(toks)):
        tok = toks[pos]
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise UlfSyntaxError("unbalanced parentheses: unexpected )")
            tree = stack.pop()
            if not tree:
                raise UlfSyntaxError("empty list")
        else:
            tree = parse_atom(tok)
        if not stack:
            return tree, pos + 1
        stack[-1].append(tree)
    raise UlfSyntaxError("unbalanced parentheses: missing )")


def parse_sexpr_stream(text: str) -> list:
    """Parse consecutive s-expressions (one per line or blank-separated)."""
    toks = _tokenize(text, _SEXPR_TOKEN)
    out, pos = [], 0
    while pos < len(toks):
        tree, pos = _parse_tokens(toks, pos)
        out.append(tree)
    return out


def render_sexpr(tree: UlfTree) -> str:
    if isinstance(tree, Atom):
        return tree.render()
    return "(" + " ".join(render_sexpr(c) for c in tree) + ")"


def tree_atoms(tree: UlfTree) -> list[Atom]:
    """All atoms of a tree in left-to-right order."""
    if isinstance(tree, Atom):
        return [tree]
    out = []
    for c in tree:
        out.extend(tree_atoms(c))
    return out


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class Vertex:
    symbol: Atom
    alignment: Optional[int] = None  # 1-based word index, None when unaligned


@dataclass
class UlfGraph:
    """Rooted, ordered, edge-labeled tree over vertices.

    ``vertices`` are in preorder of the source tree.  ``edges`` is a list
    of (src, dst, label) with vertex ids as indices into ``vertices``.
    Sibling order is carried by the labels: :INSTANCE first, then :ARG0,
    :ARG1, ... consecutively.
    """

    vertices: list[Vertex] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    root: int = 0

    def children(self, vid: int) -> list[tuple[int, str]]:
        """Children of vid ordered :INSTANCE first then :ARG0, :ARG1, ..."""
        out = [(dst, lab) for src, dst, lab in self.edges if src == vid]
        out.sort(key=lambda e: _edge_sort_key(e[1]))
        return out

    def label(self, vid: int) -> str:
        return self.vertices[vid].symbol.render()

    def validate(self):
        n = len(self.vertices)
        indeg = [0] * n
        for src, dst, lab in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("edge endpoint out of range")
            indeg[dst] += 1
        roots = [v for v in range(n) if indeg[v] == 0]
        if any(d > 1 for d in indeg):
            raise ValueError("vertex with multiple parents")
        if n and len(roots) != 1:
            raise ValueError("graph must have exactly one root, found %d" % len(roots))
        if n and roots[0] != self.root:
            raise ValueError("root designation does not match the parentless vertex")
        # acyclic + connected follows from |E| = n-1 with unique root
        if n and len(self.edges) != n - 1:
            raise ValueError("edge count does not form a tree")
        for vid in range(n):
            labs = [lab for _, lab in self.children(vid)]
            args = [lab for lab in labs if lab != INSTANCE_EDGE]
            want = [":ARG%d" % i for i in range(len(args))]
            if args != want:
                raise ValueError(":ARGk labels not consecutive at vertex %d" % vid)
        return self


def _edge_sort_key(label: str):
    if label == INSTANCE_EDGE:
        return (0, 0)
    if label.startswith(":ARG"):
        try:
            return (1, int(label[4:]))
        except ValueError:
            pass
    return (2, label)


def tree_to_graph(tree: UlfTree) -> UlfGraph:
    """Convert a ULF tree to graph form.

    Each atom becomes one vertex.  For a list, the leftmost constituent is
    the parent; when the leftmost constituent is itself a list, a COMPLEX
    vertex is created whose :INSTANCE edge points at that sub-expression's
    root and whose :ARGk edges point at the remaining siblings.  Vertex
    order is preorder.  Single-child lists are collapsed.
    """
    if isinstance(tree, list) and not tree:
        raise ValueError("empty tree")
    g = UlfGraph()
    g.root = _build_graph(tree, g)
    return g


def _build_graph(tree: UlfTree, g: UlfGraph) -> int:
    if isinstance(tree, Atom):
        g.vertices.append(Vertex(tree))
        return len(g.vertices) - 1
    if len(tree) == 1:
        return _build_graph(tree[0], g)
    head, rest = tree[0], tree[1:]
    if isinstance(head, Atom):
        head_id = _build_graph(head, g)
        arg_heads = rest
    else:
        g.vertices.append(Vertex(Atom(COMPLEX_LABEL, OPERATOR)))
        head_id = len(g.vertices) - 1
        inst_id = _build_graph(head, g)
        g.edges.append((head_id, inst_id, INSTANCE_EDGE))
        arg_heads = rest
    for k, child in enumerate(arg_heads):
        child_id = _build_graph(child, g)
        g.edges.append((head_id, child_id, ":ARG%d" % k))
    return head_id


def graph_to_tree(g: UlfGraph, strict: bool = True) -> UlfTree:
    """Inverse of :func:`tree_to_graph` for complete tree-shaped graphs.

    strict=False renders best-effort (decoder fragments may carry
    non-consecutive :ARGk labels or COMPLEX nodes missing :INSTANCE).
    """
    if strict:
        g.validate()
    return _subtree(g, g.root, strict)


def _subtree(g: UlfGraph, vid: int, strict: bool = True) -> UlfTree:
    kids = g.children(vid)
    sym = g.vertices[vid].symbol
    if not kids:
        if sym.render() == COMPLEX_LABEL and strict:
            raise ValueError("COMPLEX vertex without :INSTANCE edge")
        return sym
    if sym.render() == COMPLEX_LABEL:
        if kids[0][1] != INSTANCE_EDGE:
            if strict:
                raise ValueError("COMPLEX vertex without :INSTANCE edge")
            return [sym] + [_subtree(g, c, strict) for c, _ in kids]
        head = _subtree(g, kids[0][0], strict)
        if isinstance(head, Atom):
            head = [head]  # COMPLEX stands for a non-atomic operator
        return [head] + [_subtree(g, c, strict) for c, _ in kids[1:]]
    return [sym] + [_subtree(g, c, strict) for c, _ in kids]


def graph_fragments(vertices, edges) -> list[UlfGraph]:
    """Split a vertex/edge soup into connected components, each a UlfGraph
    rooted at its local root, ordered by root creation."""
    n = len(vertices)
    parent = {dst: src for src, dst, _ in edges}
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for src, dst, _ in edges:
        comp[find(src)] = find(dst)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    frags = []
    for members in groups.values():
        members.sort()
        roots = [v for v in members if v not in parent]
        remap = {v: i for i, v in enumerate(members)}
        sub = UlfGraph(
            vertices=[vertices[v] for v in members],
            edges=[
                (remap[s], remap[d], lab)
                for s, d, lab in edges
                if s in remap and d in remap
            ],
            root=remap[roots[0]] if roots else 0,
        )
        frags.append((min(members), sub))
    frags.sort(key=lambda p: p[0])
    return [g for _, g in frags]


# ---------------------------------------------------------------------------
# Penman

def emit_penman(g: UlfGraph) -> str:
    """Serialize to penman notation with positional variable names v0, v1,
    ... assigned in vertex order.  Node labels are atom renderings."""
    g.validate()
    if not g.vertices:
        raise ValueError("empty graph")

    def emit(vid: int) -> str:
        parts = ["v%d / %s" % (vid, g.label(vid))]
        for child, lab in g.children(vid):
            parts.append("%s %s" % (lab, emit(child)))
        return "(" + " ".join(parts) + ")"

    return emit(g.root)


def parse_penman(text: str) -> UlfGraph:
    """Parse penman notation back into a UlfGraph.  Inverts emit_penman.

    Node labels may contain |...| groups with internal spaces.
    """
    toks = _tokenize(text, _PENMAN_TOKEN)
    if not toks:
        raise UlfSyntaxError("empty penman input")
    pos = [0]

    vertices: list[tuple[str, Atom]] = []  # (var, atom) in appearance order
    edges: list[tuple[str, str, str]] = []

    def expect(tok):
        if pos[0] >= len(toks) or toks[pos[0]] != tok:
            raise UlfSyntaxError("expected %r in penman input" % tok)
        pos[0] += 1

    def parse_node() -> str:
        expect("(")
        if pos[0] + 2 > len(toks):
            raise UlfSyntaxError("truncated penman node")
        var = toks[pos[0]]
        pos[0] += 1
        expect("/")
        label = toks[pos[0]]
        pos[0] += 1
        vertices.append((var, parse_atom(label)))
        while pos[0] < len(toks) and toks[pos[0]] != ")":
            role = toks[pos[0]]
            if not role.startswith(":"):
                raise UlfSyntaxError("expected edge role, got %r" % role)
            pos[0] += 1
            child_var = parse_node()
            edges.append((var, child_var, role))
        expect(")")
        return var

    root_var = parse_node()
    if pos[0] != len(toks):
        raise UlfSyntaxError("trailing tokens after penman expression")
    var_ids = {var: i for i, (var, _) in enumerate(vertices)}
    if len(var_ids) != len(vertices):
        raise UlfSyntaxError("duplicate penman variable")
    g = UlfGraph(
        vertices=[Vertex(atom) for _, atom in vertices],
        edges=[(var_ids[s], var_ids[d], lab) for s, d, lab in edges],
        root=var_ids[root_var],
    )
    return g.validate()


def graphs_equal(a: UlfGraph, b: UlfGraph) -> bool:
    """Structural equality: same rooted ordered tree with same labels."""
    try:
        ta = render_sexpr(graph_to_tree(a))
        tb = render_sexpr(graph_to_tree(b))
    except ValueError:
        return False
    return ta == tb
