"""Graph comparison metrics over penman-style triples and label n-grams.

EL-Smatch: precision/recall/F1 over instance and relation triples under
the best variable mapping found by hill-climbing with random restarts.
SemBLEU: BLEU over node- and edge-label n-grams extracted by following
edge direction through the graph.

Both metrics accept a single graph or a list of graph fragments; a
fragment list is treated as a multi-rooted triple set (EL-Smatch) and the
union of per-fragment n-grams (SemBLEU).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import UlfGraph


def _as_fragments(g) -> list[UlfGraph]:
    if isinstance(g, UlfGraph):
        return [g]
    return list(g)


# ---------------------------------------------------------------------------
# Triples


@dataclass
class TripleSet:
    instances: list          # (var, label)
    relations: list          # (role, var, var)

    @property
    def size(self) -> int:
        return len(self.instances) + len(self.relations)

    @classmethod
    def from_graph(cls, g, prefix="a") -> "TripleSet":
        instances, relations = [], []
        for fi, frag in enumerate(_as_fragments(g)):
            var = lambda v: "%s%d_%d" % (prefix, fi, v)
            for vid, vert in enumerate(frag.vertices):
                instances.append((var(vid), vert.symbol.render()))
            for src, dst, lab in frag.edges:
                relations.append((lab, var(src), var(dst)))
        return cls(instances, relations)


def best_mapping(cand: TripleSet, gold: TripleSet, restarts=4, seed=0):
    """Best candidate-to-gold variable mapping via hill-climbing.

    Returns (matched triple count, mapping list).  Deterministic given
    the seed; restart 0 uses a label-greedy initialization and the rest
    are random over the candidate pools.  Each climb step takes the best
    move with a positive gain: setting a variable to a free gold node, or
    swapping the values of two variables (first found on ties, scanning
    set moves by variable and node, then swaps by variable pair).

    Gains come from only the triples a move touches, as in Cai & Knight's
    smatch.  `contrib[i, j]` is the weight of the triples on variable i if
    it maps to j while the others keep their mapping (column gn: unmapped);
    moving a variable updates only the entries of the variables that share
    a relation triple with it.  A set move gains `contrib[i, j] -
    contrib[i, mapping[i]]`.  A swap gains the sum of its two set moves,
    plus, for two variables that share relation triples, a correction
    for those triples (the set moves count them at the values before the
    swap), recomputed whenever either variable moves.

    Why this is exact: gains are integers; the table entries that are not
    moves (taken nodes, unmapping, pairs not above the diagonal, two
    unmapped variables) are at most 0, while a move must gain more than 0;
    and `argmax` returns the first maximum in row-major order, which is
    the scan order above with its strict `>` test.  So each step takes the
    move that re-counting every trial mapping in full would take.
    """
    cvars = {v: i for i, (v, _) in enumerate(cand.instances)}
    gvars = {v: j for j, (v, _) in enumerate(gold.instances)}
    cn, gn = len(cand.instances), len(gold.instances)
    if not cn or not gn:
        return 0, [-1] * cn

    # candidate pools: gold nodes with equal instance labels, plus nodes
    # reachable through same-role relation triples (a mapping without an
    # instance match can still earn relation matches)
    pool_sets = [set() for _ in range(cn)]
    # node_w[i, j]: triples matched by i -> j alone (its instance triple
    # and self-loops); column gn stands for "unmapped"
    node_w = np.zeros((cn, gn + 1), dtype=np.int64)
    for i, (_, cl) in enumerate(cand.instances):
        for j, (_, gl) in enumerate(gold.instances):
            if gl == cl:
                pool_sets[i].add(j)
                node_w[i, j] = 1

    # pair_w[(i, j)][(x, y)]: relation triples between variables i != x,
    # in either direction, matched when i -> j and x -> y
    pair_w: dict = {}
    gold_rels: dict = {}
    for lab, gv1, gv2 in gold.relations:
        gold_rels.setdefault(lab, []).append((gvars[gv1], gvars[gv2]))
    for lab, cv1, cv2 in cand.relations:
        i1, i2 = cvars[cv1], cvars[cv2]
        for j1, j2 in gold_rels.get(lab, []):
            pool_sets[i1].add(j1)
            pool_sets[i2].add(j2)
            if i1 == i2:
                if j1 == j2:
                    node_w[i1, j1] += 1
                continue
            for end, other in (((i1, j1), (i2, j2)), ((i2, j2), (i1, j1))):
                row = pair_w.setdefault(end, {})
                row[other] = row.get(other, 0) + 1
    pools = [sorted(s) for s in pool_sets]
    # related variable pairs (i < k) and, per variable, the pairs it is in
    related = sorted({(min(i, x), max(i, x))
                      for (i, _), row in pair_w.items() for x, _ in row})
    rel_i = np.array([i for i, _ in related], dtype=np.intp)
    rel_k = np.array([k for _, k in related], dtype=np.intp)
    pairs_of = [[] for _ in range(cn)]
    for p, (i, k) in enumerate(related):
        pairs_of[i].append(p)
        pairs_of[k].append(p)

    def assign(contrib, mapping, i, j):
        """Move i from its node to j (-1: unmapped), updating `contrib` of
        the variables that share a relation triple with i."""
        for node, sign in ((mapping[i], -1), (j, 1)):
            for (x, y), w in pair_w.get((i, node), {}).items():
                contrib[x, y] += sign * w
        mapping[i] = j

    def swap_fix(mapping, p):
        """What swapping related pair p adds to its two set-move gains:
        the triples between them at the swapped values less those at the
        values each set move assumes."""
        i, k = related[p]
        a, b = mapping[i], mapping[k]
        at_a, at_b = pair_w.get((i, a), {}), pair_w.get((i, b), {})
        return (at_b.get((k, a), 0) + at_a.get((k, b), 0)
                - at_a.get((k, a), 0) - at_b.get((k, b), 0))

    rng = np.random.default_rng(seed)
    best_num, best_map = -1, [-1] * cn
    for restart in range(max(1, restarts + 1)):
        contrib = node_w.copy()
        mapping = [-1] * cn
        num = 0
        used = set()
        order = list(range(cn))
        if restart > 0:
            order = list(rng.permutation(cn))
        for i in order:
            choices = [j for j in pools[i] if j not in used]
            if not choices:
                continue
            j = choices[0] if restart == 0 else int(rng.choice(choices))
            used.add(j)
            num += int(contrib[i, j])
            assign(contrib, mapping, i, j)
        fix = np.array([swap_fix(mapping, p) for p in range(len(related))],
                       dtype=np.int64)
        while True:
            col = np.array(mapping)
            col[col < 0] = gn
            gain = contrib - contrib[np.arange(cn), col][:, None]
            # swaps[i, k], i < k: gain[i, col[k]] is i taking k's value;
            # two unmapped variables gain 0
            swaps = gain[:, col]
            swaps = np.triu(swaps + swaps.T, 1)
            swaps[rel_i, rel_k] += fix
            # taken nodes are no set moves; unmapping (column gn) never
            # gains, so it is left out
            sets = gain[:, :gn]
            sets[:, col[col < gn]] = 0
            s, w = int(sets.argmax()), int(swaps.argmax())
            set_gain, swap_gain = int(sets.flat[s]), int(swaps.flat[w])
            if swap_gain > max(set_gain, 0):
                i, k = divmod(w, cn)
                a, b = mapping[i], mapping[k]
                assign(contrib, mapping, i, b)
                assign(contrib, mapping, k, a)
                num += swap_gain
                moved = pairs_of[i] + pairs_of[k]
            elif set_gain > 0:
                i, j = divmod(s, gn)
                assign(contrib, mapping, i, j)
                num += set_gain
                moved = pairs_of[i]
            else:
                break
            for p in moved:
                fix[p] = swap_fix(mapping, p)
        if num > best_num:
            best_num, best_map = num, list(mapping)
    return best_num, best_map


def _check_options(k=1, restarts=0):
    """Reject an n-gram order below 1 or a negative restart count."""
    if k < 1:
        raise ValueError("k must be at least 1, got %d" % k)
    if restarts < 0:
        raise ValueError("restarts must be at least 0, got %d" % restarts)


def _triple_counts(candidate, gold, restarts, seed):
    """(matched triples, candidate triples, gold triples) under the best
    mapping."""
    cand_t = TripleSet.from_graph(candidate, "a")
    gold_t = TripleSet.from_graph(gold, "b")
    matched, _ = best_mapping(cand_t, gold_t, restarts, seed)
    return max(matched, 0), cand_t.size, gold_t.size


def _prf(matched, cand_size, gold_size):
    """(F1, precision, recall) from triple counts."""
    p = matched / cand_size if cand_size else 0.0
    r = matched / gold_size if gold_size else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return f1, p, r


def el_smatch(candidate, gold, restarts=4, seed=0):
    """(F1, precision, recall) over instance+relation triples."""
    _check_options(restarts=restarts)
    return _prf(*_triple_counts(candidate, gold, restarts, seed))


# ---------------------------------------------------------------------------
# SemBLEU


def graph_ngrams(g, k=3) -> Counter:
    """Multiset of label-path n-grams for n = 1..k.

    Unigrams are node labels; longer n-grams follow edge direction and
    interleave node and edge labels.
    """
    bag: Counter = Counter()
    for frag in _as_fragments(g):
        labels = [v.symbol.render() for v in frag.vertices]
        out = {}
        for src, dst, lab in frag.edges:
            out.setdefault(src, []).append((dst, lab))
        for start in range(len(labels)):
            stack = [(start, (labels[start],), 1)]
            bag[(labels[start],)] += 1
            while stack:
                v, gram, depth = stack.pop()
                if depth >= k:
                    continue
                for dst, lab in sorted(out.get(v, []), key=lambda e: (e[1], e[0])):
                    g2 = gram + (lab, labels[dst])
                    bag[g2] += 1
                    stack.append((dst, g2, depth + 1))
    return bag


def _ngram_stats(cand_bag: Counter, gold_bag: Counter, k=3):
    """Per-order (clipped match, candidate total) counts."""
    stats = []
    for n in range(1, k + 1):
        cn = {g: c for g, c in cand_bag.items() if (len(g) + 1) // 2 == n}
        gn = {g: c for g, c in gold_bag.items() if (len(g) + 1) // 2 == n}
        match = sum(min(c, gn.get(g, 0)) for g, c in cn.items())
        total = sum(cn.values())
        stats.append((match, total))
    return stats


def _bleu_from_stats(stats, cand_len, gold_len):
    if cand_len == 0:
        return 0.0
    logs = []
    for match, total in stats:
        if total == 0 or match == 0:
            return 0.0
        logs.append(math.log(match / total))
    bp = 1.0 if cand_len >= gold_len else math.exp(1.0 - gold_len / cand_len)
    return bp * math.exp(sum(logs) / len(logs))


def _sembleu_counts(candidate, gold, k):
    """(per-order n-gram stats, candidate length, gold length), where a
    length counts node labels (unigrams)."""
    cand_bag = graph_ngrams(candidate, k)
    gold_bag = graph_ngrams(gold, k)
    cand_len = sum(c for g, c in cand_bag.items() if len(g) == 1)
    gold_len = sum(c for g, c in gold_bag.items() if len(g) == 1)
    return _ngram_stats(cand_bag, gold_bag, k), cand_len, gold_len


def sembleu(candidate, gold, k=3) -> float:
    _check_options(k=k)
    return _bleu_from_stats(*_sembleu_counts(candidate, gold, k))


# ---------------------------------------------------------------------------
# Corpus evaluation


@dataclass
class EvalReport:
    rows: list
    aggregate: dict
    config: dict

    def to_json(self) -> str:
        return json.dumps(
            {"config": self.config, "rows": self.rows, "aggregate": self.aggregate},
            sort_keys=True, indent=2) + "\n"

    def to_tsv(self) -> str:
        cols = ["id", "sembleu", "elsmatch_f1", "elsmatch_p", "elsmatch_r", "fragments"]
        lines = ["\t".join(cols)]
        for row in self.rows:
            lines.append("\t".join(_fmt(row.get(c)) for c in cols))
        agg = self.aggregate
        lines.append("\t".join(
            ["#corpus"] + [_fmt(agg.get(c)) for c in cols[1:]]))
        return "\n".join(lines) + "\n"


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.6f" % v
    return str(v)


def corpus_eval(pairs, k=3, restarts=4, seed=0, ids=None) -> EvalReport:
    """Evaluate candidate/gold pairs.

    pairs: list of (candidate, gold) where each side is a UlfGraph or a
    list of fragments.  SemBLEU aggregates corpus-level with pooled
    n-gram counts; EL-Smatch pools triple counts.  Per-pair RNG is
    derived from (seed, pair index).
    """
    _check_options(k, restarts)
    rows = []
    pooled_stats = [(0, 0)] * k
    pooled_clen = pooled_glen = 0
    pooled_match = pooled_cand = pooled_gold = 0
    frag_total = 0
    for i, (cand, gold) in enumerate(pairs):
        matched, csize, gsize = _triple_counts(
            cand, gold, restarts, hash((seed, i)) % (2**32))
        f1, p, r = _prf(matched, csize, gsize)
        stats, clen, glen = _sembleu_counts(cand, gold, k)
        sb = _bleu_from_stats(stats, clen, glen)
        nfrag = len(_as_fragments(cand))
        rows.append({
            "id": ids[i] if ids else str(i),
            "sembleu": sb, "elsmatch_f1": f1, "elsmatch_p": p, "elsmatch_r": r,
            "fragments": nfrag,
        })
        pooled_stats = [(m + dm, t + dt) for (m, t), (dm, dt) in zip(pooled_stats, stats)]
        pooled_clen += clen
        pooled_glen += glen
        pooled_match += matched
        pooled_cand += csize
        pooled_gold += gsize
        frag_total += nfrag
    n = len(rows)
    pf1, pp, pr = _prf(pooled_match, pooled_cand, pooled_gold)
    aggregate = {
        "sembleu": _bleu_from_stats(pooled_stats, pooled_clen, pooled_glen),
        "elsmatch_f1": pf1, "elsmatch_p": pp, "elsmatch_r": pr,
        "fragments": frag_total / n if n else 0.0,
        "pairs": n,
    }
    config = {"k": k, "restarts": restarts, "seed": seed}
    return EvalReport(rows, aggregate, config)
