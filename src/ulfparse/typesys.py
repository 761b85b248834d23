"""ULF semantic types and the function-application composition check.

Types are atomic names, function types ``(A -> B)``, the placeholder
``?`` which unifies with everything, and variadic functions ``(A* -> B)``
which may consume any number of A arguments before collapsing to B.
Composition tries function application in both operand orders, since ULF
operators may take first or second position.

Macros (sub, rep, ...) are typed as placeholder-consuming functions in
the grammar table: each application consumes one marked argument and the
result stays composable, which approximates their staged processing.

The grammar is loaded from a small line-oriented file::

    # comment
    alias V = (? -> (?* -> T))
    suffix v = V
    op plur = (N -> N)
    name = D

Type expressions: NAME | ? | ( EXPR -> EXPR ) with a ``*`` directly after
the argument of a function making it variadic.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .core import Atom, Token


@dataclass(frozen=True)
class SemType:
    pass


@dataclass(frozen=True)
class Atomic(SemType):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Func(SemType):
    arg: SemType
    result: SemType
    variadic: bool = False

    def __repr__(self):
        return render_type(self)


ANY = Atomic("?")


def render_type(t: SemType) -> str:
    if isinstance(t, Atomic):
        return t.name
    star = "*" if t.variadic else ""
    return "(%s%s -> %s)" % (render_type(t.arg), star, render_type(t.result))


def parse_type(text: str, aliases=None) -> SemType:
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    t, star, pos = _parse_type(toks, 0, aliases or {})
    if pos != len(toks):
        raise ValueError("trailing tokens in type %r" % text)
    if star:
        raise ValueError("variadic marker outside a function argument in %r" % text)
    return t


def _parse_type(toks, pos, aliases):
    """Returns (type, star_marked, next_pos)."""
    if pos >= len(toks):
        raise ValueError("truncated type expression")
    tok = toks[pos]
    if tok == "(":
        arg, variadic, pos = _parse_type(toks, pos + 1, aliases)
        if pos < len(toks) and toks[pos] == "*":
            variadic, pos = True, pos + 1
        if pos >= len(toks) or toks[pos] != "->":
            raise ValueError("expected -> in function type")
        res, res_star, pos = _parse_type(toks, pos + 1, aliases)
        if res_star:
            raise ValueError("variadic marker on a function result")
        if pos >= len(toks) or toks[pos] != ")":
            raise ValueError("missing ) in type")
        return Func(arg, res, variadic), False, pos + 1
    star = tok.endswith("*") and len(tok) > 1
    name = tok[:-1] if star else tok
    if name == "?":
        base = ANY
    elif name in aliases:
        base = aliases[name]
    else:
        base = Atomic(name)
    return base, star, pos + 1


def unify(a: SemType, b: SemType) -> bool:
    if a == ANY or b == ANY:
        return True
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        return a.name == b.name
    if (isinstance(a, Func) and isinstance(b, Func)
            and unify(a.arg, b.arg) and unify(a.result, b.result)):
        return True
    # a variadic function may collapse (zero further arguments) to its result
    if isinstance(a, Func) and a.variadic and unify(a.result, b):
        return True
    if isinstance(b, Func) and b.variadic and unify(a, b.result):
        return True
    return False


def _apply_fn(f: SemType, x: SemType) -> Optional[SemType]:
    if f == ANY:
        return ANY
    if isinstance(f, Func):
        if unify(x, f.arg):
            return f if f.variadic else f.result
        # collapse a variadic function and keep applying its result
        if f.variadic:
            return _apply_fn(f.result, x)
    return None


def compose(t_s: SemType, t_t: SemType) -> Optional[SemType]:
    """Function application with the operator in either position.

    Returns the composed type, or None when the types cannot compose.
    """
    r = _apply_fn(t_s, t_t)
    if r is not None:
        return r
    return _apply_fn(t_t, t_s)


# ---------------------------------------------------------------------------
# Grammar


class TypeGrammar:
    def __init__(self, suffixes=None, operators=None, name_type=None):
        self.suffixes = dict(suffixes or {})
        self.operators = dict(operators or {})
        self.name_type = name_type if name_type is not None else Atomic("D")

    @classmethod
    def loads(cls, text: str) -> "TypeGrammar":
        import re

        decl = re.compile(r"^(alias|suffix|op)\s+(\S+)\s*=\s*(.+)$")
        name_decl = re.compile(r"^name\s*=\s*(.+)$")
        aliases, suffixes, operators = {}, {}, {}
        name_type = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = decl.match(line)
            if m:
                kind, key, expr = m.groups()
                t = parse_type(expr, aliases)
                {"alias": aliases, "suffix": suffixes, "op": operators}[kind][key] = t
                continue
            m = name_decl.match(line)
            if m:
                name_type = parse_type(m.group(1), aliases)
                continue
            raise ValueError("line %d: bad declaration %r" % (lineno, raw))
        return cls(suffixes, operators, name_type)

    @classmethod
    def load(cls, path) -> "TypeGrammar":
        with open(path) as fh:
            return cls.loads(fh.read())

    @classmethod
    def default(cls) -> "TypeGrammar":
        text = resources.files("ulfparse.data").joinpath("default_types.grammar").read_text()
        return cls.loads(text)


def type_of(atom: Atom, grammar: TypeGrammar) -> SemType:
    if atom.is_name and not atom.tag:
        return grammar.name_type
    if atom.tag:
        return grammar.suffixes.get(atom.tag, ANY)
    return grammar.operators.get(atom.stem, ANY)


def check_arc(head_type: SemType, dep_type: SemType):
    """Type filter for an arc: (accepted, updated head type)."""
    composed = compose(head_type, dep_type)
    if composed is None:
        return False, head_type
    return True, composed


def tree_type(tree, grammar: TypeGrammar, violations=None, path=()):
    """Bottom-up composition over a ULF tree.

    Returns the composed type or None; when a list is supplied through
    ``violations``, each failing node path is appended to it.
    """
    if isinstance(tree, Atom):
        return type_of(tree, grammar)
    if len(tree) == 1:
        return tree_type(tree[0], grammar, violations, path + (0,))
    t = tree_type(tree[0], grammar, violations, path + (0,))
    for i, child in enumerate(tree[1:], 1):
        ct = tree_type(child, grammar, violations, path + (i,))
        if t is None or ct is None:
            return None
        nt = compose(t, ct)
        if nt is None:
            if violations is not None:
                violations.append(path + (i,))
            return None
        t = nt
    return t


def check_graph(graph, grammar: TypeGrammar) -> list:
    """Zero-violation check over a gold graph or a decoder fragment, read
    as graph_to_tree(strict=False) reads it; returns failing node paths."""
    from .core import graph_to_tree

    violations = []
    tree_type(graph_to_tree(graph, strict=False), grammar, violations)
    return violations


# ---------------------------------------------------------------------------
# Lexicon


class Lexicon:
    """Case-folded stem -> set of allowed atom renderings.

    Missing stems are unconstrained.  File format: TSV lines
    ``stem<TAB>atom1 atom2 ...``.
    """

    def __init__(self, table=None):
        self.table = {k.lower(): frozenset(v) for k, v in (table or {}).items()}

    @classmethod
    def load(cls, path) -> "Lexicon":
        table = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                stem, _, atoms = line.partition("\t")
                table.setdefault(stem.strip(), set()).update(atoms.split())
        return cls(table)

    def __contains__(self, stem: str) -> bool:
        return stem.lower() in self.table

    def allowed(self, stem: str):
        return self.table.get(stem.lower())


def lexicon_filter(word: Token, candidates: set, lex: Lexicon) -> set:
    """Restrict candidate atom renderings by the lexicon entry of the word
    stem; words absent from the lexicon pass candidates through.  The
    lemma is looked up only when the surface has no entry: an empty entry
    allows nothing."""
    allowed = lex.allowed(word.surface)
    if allowed is None:
        allowed = lex.allowed(word.lemma)
    if allowed is None:
        return set(candidates)
    return {c for c in candidates if c in allowed}
