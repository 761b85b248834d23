"""The transition-state feature extractor as first written, kept as the
reference the cached extractor in ``ulfparse.decode`` must equal: the
same keys, in the same order, with the same values.  It rebuilds every
string on every call and rescans the dependency tree for each word."""

from ulfparse import machine as tm


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
