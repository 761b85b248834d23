"""The s-expression reader as first written: a tokenizer that walks each
character, a parser that recurses once per list, and a fresh Atom for
every leaf.  ``core`` reads with one regex, a loop over a stack of open
lists and an atom memo, and must give the same tokens, trees and errors,
except that it refuses an empty list."""

from ulfparse.core import NAME, OPERATOR, SUFFIXED, Atom, UlfSyntaxError


def parse_atom(text: str) -> Atom:
    """Parse one atom spelling.  Inverse of :meth:`Atom.render`."""
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


def parse_sexpr(text: str):
    toks = _tokenize(text, "()", ";")
    if not toks:
        raise UlfSyntaxError("empty input")
    tree, pos = _parse_tokens(toks, 0)
    if pos != len(toks):
        raise UlfSyntaxError("trailing tokens after expression")
    return tree


def parse_sexpr_stream(text: str) -> list:
    toks = _tokenize(text, "()", ";")
    out, pos = [], 0
    while pos < len(toks):
        tree, pos = _parse_tokens(toks, pos)
        out.append(tree)
    return out


def _tokenize(text: str, delims, comment):
    """The tokens of text: each delimiter character alone, and atoms,
    which run to whitespace or a delimiter and take a |...| group whole,
    spaces and delimiters included.  A comment runs to the end of its
    line and gives no token; comment=None allows none."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in delims:
            toks.append(c)
            i += 1
        elif c == comment:
            while i < n and text[i] != "\n":
                i += 1
        else:
            buf = []
            while i < n:
                ch = text[i]
                if ch == "|":
                    end = text.find("|", i + 1)
                    if end < 0:
                        raise UlfSyntaxError("unterminated pipe")
                    buf.append(text[i : end + 1])
                    i = end + 1
                elif ch.isspace() or ch in delims:
                    break
                else:
                    buf.append(ch)
                    i += 1
            toks.append("".join(buf))
    return toks


def _parse_tokens(toks, pos):
    tok = toks[pos]
    if tok == "(":
        children = []
        pos += 1
        while pos < len(toks) and toks[pos] != ")":
            child, pos = _parse_tokens(toks, pos)
            children.append(child)
        if pos >= len(toks):
            raise UlfSyntaxError("unbalanced parentheses: missing )")
        return children, pos + 1
    if tok == ")":
        raise UlfSyntaxError("unbalanced parentheses: unexpected )")
    return parse_atom(tok), pos + 1
