"""The cache-transition legality rules as first written, kept as the
reference the table-driven ``Machine.legal_actions`` and
``Machine.is_legal`` must equal: the same menus, in the same order, and
the same verdict on every action.  Each phase's menu is written out in
``legal_actions`` and derived again, action by action, in ``is_legal``.

WORDGEN offers ``LEMMA`` or ``TOKEN`` only over a front whose stem reads
back: the atoms that ``SUFFIX`` would build on it, with a tag or bare,
come back from the s-expression reader as themselves.  Arc actions carry
no label, and a machine with ``max_wordless_run`` set offers ``SYMGEN``
and ``PROMOTE_SYM`` only while the configuration's word-less run is
shorter."""

from ulfparse import machine as tm
from ulfparse.core import OPERATOR, SUFFIXED, Atom, UlfSyntaxError, parse_sexpr


def _vocab_set(vocab):
    return frozenset(vocab) if vocab is not None else None


def _menu(fmt, vocab):
    if vocab is None:
        return [fmt % "*"]
    return sorted(fmt % v for v in vocab)


def _stems(c):
    """The front words' (token, lemma) stems: lowercased and joined by _."""
    words = [c.sentence.token(c.cursor + k) for k in range(c.merged)]
    return ("_".join(w.surface.lower() for w in words),
            "_".join(w.lemma.lower() for w in words))


def _reads_back(stem):
    for atom in (Atom(stem, SUFFIXED, "n"), Atom(stem, OPERATOR)):
        try:
            if parse_sexpr(atom.render()) != atom:
                return False
        except UlfSyntaxError:
            return False
    return True


def _wordgen_menu(c):
    token, lemma = _stems(c)
    return (["NAME"] + (["LEMMA"] if _reads_back(lemma) else [])
            + (["TOKEN"] if _reads_back(token) else []))


class ReferenceLegality:
    """Legality over the vocabularies of a ``Machine``."""

    def __init__(self, machine):
        self._params = {
            "SYMGEN": _vocab_set(machine.symgen_vocab),
            "SUFFIX": _vocab_set(machine.suffixes),
            "PROMOTE_SYM": _vocab_set(machine.promote_syms),
        }
        self._menus = {
            "SYMGEN": _menu("SYMGEN:%s", machine.symgen_vocab),
            "SUFFIX": _menu("SUFFIX:%s", machine.suffixes),
            "PROMOTE_SYM": _menu("PROMOTE_SYM:%s", machine.promote_syms),
        }
        self._max_run = machine.max_wordless_run

    def _wordless_ok(self, c):
        return self._max_run is None or c.wordless_run < self._max_run

    def legal_actions(self, c):
        menus = self._menus
        phase = c.phase
        if phase == tm.GEN:
            out = list(menus["SYMGEN"]) if self._wordless_ok(c) else []
            if c.cursor + c.merged <= len(c.sentence):
                out.append("MERGEBUF")
            if not c.buffer_empty:
                out += ["SKIP", "WORDGEN"]
            return out
        if phase == tm.WORDGEN:
            return _wordgen_menu(c)
        if phase in (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN):
            return list(menus["SUFFIX"])
        if phase == tm.PUSH:
            return ["PUSHIDX:0", "PUSHIDX:1"] if c.pending is not None else []
        if phase == tm.ARC:
            out = []
            l, r = c.cache
            if l is not None and r is not None:
                if self._arc_ok(c, r, l):
                    out.append("ARC:0:left")
                if self._arc_ok(c, l, r):
                    out.append("ARC:0:right")
            out.append("NOARC")
            return out
        if phase == tm.PROMOTE:
            r = c.cache[1]
            out = list(menus["PROMOTE_SYM"]) \
                if r is not None and c.parents[r] is None and self._wordless_ok(c) \
                else []
            out.append("NOPROMOTE")
            return out
        if phase == tm.PROMOTEARC:
            return ["PROMOTE_ARC"]
        if phase == tm.POP:
            return ["POP", "NOPOP"] if c.stack else ["NOPOP"]
        return []

    def _arc_ok(self, c, src, dst):
        parents = c.parents
        if parents[dst] is not None:
            return False
        v = src
        while v is not None:
            if v == dst:
                return False
            v = parents[v]
        return True

    def _param_ok(self, kind, arg):
        vocab = self._params[kind]
        return vocab is None or arg in vocab

    def is_legal(self, c, action):
        kind, colon, arg = action.partition(":")
        phase = c.phase
        if phase == tm.GEN:
            if kind == "SYMGEN":
                return bool(colon) and self._param_ok(kind, arg) \
                    and self._wordless_ok(c)
            if action == "MERGEBUF":
                return c.cursor + c.merged <= len(c.sentence)
            return action in ("SKIP", "WORDGEN") and not c.buffer_empty
        if phase == tm.WORDGEN:
            token, lemma = _stems(c)
            return action == "NAME" or (action == "LEMMA" and _reads_back(lemma)) \
                or (action == "TOKEN" and _reads_back(token))
        if phase in (tm.NAMEGEN, tm.LEMMAGEN, tm.TOKENGEN):
            return kind == "SUFFIX" and bool(colon) and self._param_ok(kind, arg)
        if phase == tm.PUSH:
            return c.pending is not None and action in ("PUSHIDX:0", "PUSHIDX:1")
        if phase == tm.ARC:
            if action == "NOARC":
                return True
            l, r = c.cache
            if l is None or r is None:
                return False
            if action == "ARC:0:left":
                return self._arc_ok(c, r, l)
            return action == "ARC:0:right" and self._arc_ok(c, l, r)
        if phase == tm.PROMOTE:
            if action == "NOPROMOTE":
                return True
            r = c.cache[1]
            return (kind == "PROMOTE_SYM" and bool(colon)
                    and self._param_ok(kind, arg) and self._wordless_ok(c)
                    and r is not None and c.parents[r] is None)
        if phase == tm.PROMOTEARC:
            return action == "PROMOTE_ARC"
        if phase == tm.POP:
            return action == "NOPOP" or (action == "POP" and bool(c.stack))
        return False
