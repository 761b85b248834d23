"""Greedy English-word / ULF-atom alignment.

Scores every (word, atom) pair with a string-similarity heuristic built
from token overlap, suffix/POS overlap, and relative position, then
accepts pairs greedily in descending score order subject to connectivity
constraints: the atoms aligned to one word must form a connected subgraph
of the gold graph, and the words aligned to one atom must form a
contiguous span.  Token pairs are then merged into span/subgraph pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Sentence, UlfGraph

MIN_SIM = 1.0


def olap(x: str, y: str) -> float:
    """2*L / (|x|+|y|) where L is the longest common contiguous substring.

    The overlap is computed both case-exact and case-folded and the max
    is taken.
    """
    if not x or not y:
        return 0.0
    best = max(_lcs_len(x, y), _lcs_len(x.lower(), y.lower()))
    return 2.0 * best / (len(x) + len(y))


def _lcs_len(x: str, y: str) -> int:
    """Length of the longest common substring (contiguous, not a
    subsequence).  For each start in the shorter string, only lengths
    above the best so far are tried, with `in`: a substring that occurs
    in y has every prefix in y too, so growing one character at a time
    finds the longest match from that start once it beats the best."""
    if len(x) > len(y):
        x, y = y, x
    n = len(x)
    best = i = 0
    while i + best < n:
        while i + best < n and x[i:i + best + 1] in y:
            best += 1
        i += 1
    return best


def rl(index: int, n: int) -> float:
    """Relative location of a 1-based index in a sequence of length n."""
    if not (1 <= index <= n):
        raise ValueError("index %d out of range 1..%d" % (index, n))
    return index / n


def sim(token, n: int, atom, atom_pos: int, m: int, overlap=olap) -> float:
    """Similarity of a word to an atom.

    token carries (surface, lemma, pos, index); atom contributes its stem
    and suffix extension; atom_pos is its 1-based preorder position among
    m atoms.  overlap is olap or a memo of it.
    """
    b = atom.stem
    e = atom.tag
    base = max(overlap(token.surface, b), overlap(token.lemma, b))
    loc = 1.0 - abs(rl(token.index, n) - rl(atom_pos, m))
    return base + 0.5 * (overlap(token.pos, e) + loc)


@dataclass
class AlignmentMap:
    """Token-level pairs plus merged span/subgraph pairs.

    token_pairs: set of (word index, vertex id).
    span_pairs: list of ((start, end) inclusive word span, frozenset of
    vertex ids), spans disjoint.
    """

    token_pairs: set[tuple[int, int]] = field(default_factory=set)
    span_pairs: list[tuple[tuple[int, int], frozenset]] = field(default_factory=list)

    def words_of(self, vid: int) -> list[int]:
        return sorted(w for w, v in self.token_pairs if v == vid)

    def vertex_alignment(self, vid: int):
        """First aligned word of a vertex, or None."""
        words = self.words_of(vid)
        return words[0] if words else None

    def to_record(self) -> dict:
        return {
            "pairs": sorted([w, v] for w, v in self.token_pairs),
            "spans": [
                {"span": [s, e], "vertices": sorted(vs)}
                for (s, e), vs in self.span_pairs
            ],
        }


def align(sentence: Sentence, gold: UlfGraph, never_align=frozenset()) -> AlignmentMap:
    """Greedy alignment between sentence words and gold graph vertices.

    never_align is a set of atom renderings (typically the promote
    operator vocabulary) whose vertices are never aligned.
    """
    n = len(sentence)
    m = len(gold.vertices)
    if n == 0 or m == 0:
        return AlignmentMap()
    neighbors = _adjacency(gold)
    # olap of each distinct string pair, for this call only: a sentence
    # repeats its POS tags and atom tags, and most pairs recur; a memo
    # kept across calls would grow with the vocabulary
    overlaps = {}

    def overlap(x, y):
        s = overlaps.get((x, y))
        if s is None:
            s = overlaps[x, y] = olap(x, y)
        return s

    scored = []
    for tok in sentence.tokens:
        for vid, vert in enumerate(gold.vertices):
            if vert.symbol.render() in never_align:
                continue
            s = sim(tok, n, vert.symbol, vid + 1, m, overlap)
            if s >= MIN_SIM:
                # sort: score desc, then word index asc, vertex preorder asc
                scored.append((-s, tok.index, vid))
    scored.sort()

    amap = AlignmentMap()
    word_to_verts: dict[int, set[int]] = {}
    vert_to_words: dict[int, set[int]] = {}
    for _negs, widx, vid in scored:
        ok_word = widx not in word_to_verts or any(
            u in neighbors[vid] for u in word_to_verts[widx]
        )
        ok_vert = vid not in vert_to_words or any(
            abs(w - widx) == 1 for w in vert_to_words[vid]
        )
        if ok_word and ok_vert:
            amap.token_pairs.add((widx, vid))
            word_to_verts.setdefault(widx, set()).add(vid)
            vert_to_words.setdefault(vid, set()).add(widx)

    amap.span_pairs = _merge_spans(vert_to_words)
    return amap


def _adjacency(g: UlfGraph) -> list[set[int]]:
    adj = [set() for _ in g.vertices]
    for src, dst, _ in g.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    return adj


def _merge_spans(vert_to_words: dict[int, set[int]]):
    # step 1: per-atom word spans (contiguity was enforced on acceptance)
    spans = []
    for vid, words in vert_to_words.items():
        spans.append((min(words), max(words), vid))
    spans.sort()
    # step 2: single pass merging overlapping spans, pooling their atoms
    merged = []
    for s, e, vid in spans:
        if merged and s <= merged[-1][1]:
            ps, pe, vs = merged[-1]
            merged[-1] = (ps, max(pe, e), vs | {vid})
        else:
            merged.append((s, e, {vid}))
    return [((s, e), frozenset(vs)) for s, e, vs in merged]
