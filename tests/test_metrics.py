import numpy as np
import pytest

from ulfparse.core import parse_penman, parse_sexpr, tree_to_graph
from ulfparse.metrics import (
    TripleSet,
    best_mapping,
    corpus_eval,
    el_smatch,
    graph_ngrams,
    sembleu,
)

from goldens import MC002_ULF


def g(ulf):
    return tree_to_graph(parse_sexpr(ulf))


# -- independent brute-force matcher (test-only oracle) ------------------------

def brute_force_best(cand: TripleSet, gold: TripleSet) -> int:
    """Exhaustive search over injective partial variable mappings."""
    cvars = [v for v, _ in cand.instances]
    gvars = [v for v, _ in gold.instances]
    clabel = dict(cand.instances)
    glabel = dict(gold.instances)
    grels = set(gold.relations)

    best = 0
    options = [g_ for g_ in gvars] + [None]

    def count(mapping):
        n = 0
        for cv, gv in mapping.items():
            if gv is not None and clabel[cv] == glabel[gv]:
                n += 1
        for role, a, b in cand.relations:
            ga, gb = mapping.get(a), mapping.get(b)
            if ga is not None and gb is not None and (role, ga, gb) in grels:
                n += 1
        return n

    def rec(i, mapping, used):
        nonlocal best
        if i == len(cvars):
            best = max(best, count(mapping))
            return
        cv = cvars[i]
        for gv in options:
            if gv is not None and gv in used:
                continue
            mapping[cv] = gv
            rec(i + 1, mapping, used | ({gv} if gv is not None else set()))
        del mapping[cv]

    rec(0, {}, set())
    return best


# -- full-recount hill-climb (test-only reference) -----------------------------

def _reference_match_count(mapping, inst_w, rel_w):
    total = 0
    for i, j in enumerate(mapping):
        if j < 0:
            continue
        total += inst_w.get((i, j), 0)
        for (i2, j2), w in rel_w.get((i, j), {}).items():
            if i2 < len(mapping) and mapping[i2] == j2:
                total += w
    return total


def _reference_best_mapping(cand: TripleSet, gold: TripleSet, restarts=4, seed=0):
    """The climb `best_mapping` must reproduce: every trial move and swap
    is scored by re-counting the whole mapping."""
    cvars = {v: i for i, (v, _) in enumerate(cand.instances)}
    gvars = {v: j for j, (v, _) in enumerate(gold.instances)}
    cn = len(cand.instances)
    pool_sets = [set() for _ in range(cn)]
    inst_w = {}
    for i, (_, cl) in enumerate(cand.instances):
        for j, (_, gl) in enumerate(gold.instances):
            if gl == cl:
                pool_sets[i].add(j)
                inst_w[(i, j)] = 1
    rel_w: dict = {}
    gold_rels: dict = {}
    for lab, gv1, gv2 in gold.relations:
        gold_rels.setdefault(lab, []).append((gvars[gv1], gvars[gv2]))
    for lab, cv1, cv2 in cand.relations:
        i1, i2 = cvars[cv1], cvars[cv2]
        for j1, j2 in gold_rels.get(lab, []):
            pool_sets[i1].add(j1)
            pool_sets[i2].add(j2)
            row = rel_w.setdefault((i1, j1), {})
            row[(i2, j2)] = row.get((i2, j2), 0) + 1
    pools = [sorted(s) for s in pool_sets]

    rng = np.random.default_rng(seed)
    best_num, best_map = -1, [-1] * cn
    for restart in range(max(1, restarts + 1)):
        mapping = [-1] * cn
        used = set()
        order = list(range(cn))
        if restart > 0:
            order = list(rng.permutation(cn))
        for i in order:
            choices = [j for j in pools[i] if j not in used]
            if not choices:
                continue
            j = choices[0] if restart == 0 else int(rng.choice(choices))
            mapping[i] = j
            used.add(j)
        num = _reference_match_count(mapping, inst_w, rel_w)
        improved = True
        while improved:
            improved = False
            base = num
            best_move, best_gain = None, 0
            for i in range(cn):
                cur = mapping[i]
                for j in pools[i] + [-1]:
                    if j == cur or (j >= 0 and j in used and j != cur):
                        continue
                    trial = list(mapping)
                    trial[i] = j
                    gain = _reference_match_count(trial, inst_w, rel_w) - base
                    if gain > best_gain:
                        best_gain, best_move = gain, ("set", i, j)
            for i in range(cn):
                for k in range(i + 1, cn):
                    if mapping[i] == mapping[k] == -1:
                        continue
                    trial = list(mapping)
                    trial[i], trial[k] = trial[k], trial[i]
                    gain = _reference_match_count(trial, inst_w, rel_w) - base
                    if gain > best_gain:
                        best_gain, best_move = gain, ("swap", i, k)
            if best_move:
                kind, a, b = best_move
                if kind == "set":
                    if mapping[a] >= 0:
                        used.discard(mapping[a])
                    mapping[a] = b
                    if b >= 0:
                        used.add(b)
                else:
                    mapping[a], mapping[b] = mapping[b], mapping[a]
                num = base + best_gain
                improved = True
        if num > best_num:
            best_num, best_map = num, list(mapping)
    return best_num, best_map


# -- EL-Smatch -----------------------------------------------------------------

def test_elsmatch_identity():
    graph = g(MC002_ULF)
    f1, p, r = el_smatch(graph, graph)
    assert f1 == pytest.approx(1.0, abs=1e-9)
    assert p == pytest.approx(1.0) and r == pytest.approx(1.0)


def test_elsmatch_minus_leaf():
    gold = g("(a.v b.n c.d)")       # 3 instances + 2 relations = 5 triples
    cand = g("(a.v b.n)")           # 2 instances + 1 relation = 3 triples
    f1, p, r = el_smatch(cand, gold)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(3 / 5)
    assert f1 == pytest.approx(0.75)


def test_elsmatch_disjoint():
    # disjoint node AND edge labels: no triple of either kind can match
    from ulfparse.core import Atom, UlfGraph, Vertex

    cand = UlfGraph([Vertex(Atom("x", "suffixed", "v")),
                     Vertex(Atom("y", "suffixed", "n"))],
                    [(0, 1, ":MOD")], 0)
    f1, p, r = el_smatch(cand, g("(a.v b.n)"))
    assert f1 == 0.0
    # same node labels under a shared role still match relations
    f1_rel, _, _ = el_smatch(g("(x.v y.n)"), g("(a.v b.n)"))
    assert f1_rel == pytest.approx(1 / 3)


def test_elsmatch_empty_candidate():
    f1, p, r = el_smatch([], g("(a.v b.n)"))
    assert (f1, p, r) == (0.0, 0.0, 0.0)


def test_elsmatch_symmetric_f1():
    a, b = g("(a.v b.n (c.d x.pro))"), g("(a.v (c.d b.n))")
    f1_ab, p_ab, r_ab = el_smatch(a, b)
    f1_ba, p_ba, r_ba = el_smatch(b, a)
    assert f1_ab == pytest.approx(f1_ba)
    assert p_ab == pytest.approx(r_ba) and r_ab == pytest.approx(p_ba)


def _random_graph(rng, max_n=6):
    n = int(rng.integers(1, max_n + 1))
    labels = [str(rng.choice(["a.v", "b.n", "c.d", "x.pro"])) for _ in range(n)]
    # random tree shape over n vertices
    tree = "(%s)" % " ".join(labels) if n > 1 else labels[0]
    graph = tree_to_graph(parse_sexpr(tree))
    if n > 2 and rng.random() < 0.5:
        # nest instead of a flat application
        mid = n // 2
        inner = "(%s)" % " ".join(labels[mid:])
        tree = "(%s %s)" % (" ".join(labels[:mid]), inner)
        graph = tree_to_graph(parse_sexpr(tree))
    return graph


def test_hillclimb_equals_bruteforce_on_small_graphs():
    rng = np.random.default_rng(20240817)
    for i in range(100):
        cand = _random_graph(rng)
        gold = _random_graph(rng)
        cand_t = TripleSet.from_graph(cand, "a")
        gold_t = TripleSet.from_graph(gold, "b")
        got, _ = best_mapping(cand_t, gold_t, restarts=4, seed=i)
        want = brute_force_best(cand_t, gold_t)
        assert got == want, "pair %d: hill-climb %d != brute force %d" % (i, got, want)


_LABELS = ["a.v", "b.n", "c.d", "x.pro", "COMPLEX", "pres"]


def _random_fragment(rng, n, roles):
    """A random tree over n labelled vertices plus up to two extra edges
    (self-loops and repeated edges included)."""
    from ulfparse.core import Atom, UlfGraph, Vertex

    pick = lambda xs: xs[int(rng.integers(len(xs)))]
    verts = [Vertex(Atom(pick(_LABELS), "operator")) for _ in range(n)]
    edges = [(int(rng.integers(v)), v, pick(roles)) for v in range(1, n)]
    for _ in range(int(rng.integers(3))):
        edges.append((int(rng.integers(n)), int(rng.integers(n)), pick(roles)))
    return UlfGraph(verts, edges, 0)


def _perturbed(rng, frag, rate, roles):
    """frag with a share `rate` of labels redrawn and of edges dropped or
    relabelled."""
    from ulfparse.core import Atom, UlfGraph, Vertex

    pick = lambda xs: xs[int(rng.integers(len(xs)))]
    verts = [Vertex(Atom(pick(_LABELS), "operator")) if rng.random() < rate
             else v for v in frag.vertices]
    edges = []
    for src, dst, lab in frag.edges:
        r = rng.random()
        if r < rate / 2:
            continue
        edges.append((src, dst, pick(roles) if r < rate else lab))
    return UlfGraph(verts, edges, 0)


def _random_side(rng, n, roles):
    """0..3 fragments holding n vertices in all ([] when n is 0)."""
    sizes = np.array_split(np.arange(n), int(rng.integers(1, 4))) if n else []
    return [_random_fragment(rng, len(s), roles) for s in sizes if len(s)]


def test_hillclimb_equals_full_recount_reference():
    # 2-3 edge labels keep the candidate pools dense, so most variable
    # pairs swap through the gain table and related ones through the
    # per-pair correction; fragments, empty sides and seeds >= 2**31 too
    rng = np.random.default_rng(4)
    for t in range(60):
        roles = [":ARG0", ":ARG1", ":INSTANCE"][: int(rng.integers(2, 4))]
        gold = _random_side(rng, int(rng.integers(0, 31)), roles)
        if gold and t % 3:
            cand = [_perturbed(rng, f, (0.0, 0.15, 0.4)[t % 3], roles)
                    for f in gold]
        else:
            cand = _random_side(rng, int(rng.integers(0, 31)), roles)
        cand_t = TripleSet.from_graph(cand, "a")
        gold_t = TripleSet.from_graph(gold, "b")
        restarts = int(rng.integers(0, 5))
        seed = (1, 12345, 2**31 + 7, 2**32 - 1)[t % 4]
        got = best_mapping(cand_t, gold_t, restarts, seed)
        want = _reference_best_mapping(cand_t, gold_t, restarts, seed)
        assert got == want, "pair %d: %r != reference %r" % (t, got, want)


def test_options_out_of_range_are_rejected():
    graph = g("(a.v b.n)")
    with pytest.raises(ValueError, match="k must be"):
        sembleu(graph, graph, k=0)
    with pytest.raises(ValueError, match="restarts must be"):
        el_smatch(graph, graph, restarts=-1)
    with pytest.raises(ValueError, match="k must be"):
        corpus_eval([(graph, graph)], k=0)


# -- SemBLEU -------------------------------------------------------------------

def test_sembleu_identity():
    graph = g(MC002_ULF)
    assert sembleu(graph, graph) == pytest.approx(1.0, abs=1e-9)


def test_sembleu_empty_candidate():
    assert sembleu([], g("(a.v b.n)")) == 0.0


def test_sembleu_single_node_vs_chain():
    # candidate = one correct node; gold = 3-node chain.  With n-grams up
    # to 3 and no smoothing, the candidate has zero bigrams, so the
    # geometric mean (and the score) is 0.
    gold = g("(a.v (b.n c.d))")
    cand = g("a.v")
    assert sembleu(cand, gold) == 0.0
    # with k=1 only unigram precision and the brevity penalty remain
    import math
    assert sembleu(cand, gold, k=1) == pytest.approx(1.0 * math.exp(1 - 3 / 1))


def test_sembleu_variable_renaming_invariant():
    a = g("(a.v (b.n c.d))")
    renamed = parse_penman("(z9 / a.v :ARG0 (q7 / b.n :ARG0 (k3 / c.d)))")
    assert sembleu(renamed, a) == pytest.approx(1.0)


def test_ngram_extraction():
    bag = graph_ngrams(g("(a.v (b.n c.d))"), k=3)
    assert bag[("a.v",)] == 1 and bag[("b.n",)] == 1
    assert bag[("a.v", ":ARG0", "b.n")] == 1
    assert bag[("b.n", ":ARG0", "c.d")] == 1
    assert bag[("a.v", ":ARG0", "b.n", ":ARG0", "c.d")] == 1
    assert sum(1 for k_ in bag if len(k_) == 5) == 1


def test_fragments_pool_ngrams_and_triples():
    gold = g("(a.v b.n)")
    frags = [g("a.v"), g("b.n")]
    f1, p, r = el_smatch(frags, gold)
    assert p == pytest.approx(1.0)          # both instance triples match
    assert r == pytest.approx(2 / 3)
    assert sembleu(frags, gold) == 0.0      # no bigrams in the fragments


# -- corpus evaluation ----------------------------------------------------------

def test_corpus_eval_identity():
    graphs = [g("(a.v b.n)"), g(MC002_ULF)]
    report = corpus_eval([(x, x) for x in graphs], seed=0)
    agg = report.aggregate
    assert agg["sembleu"] == pytest.approx(1.0)
    assert agg["elsmatch_f1"] == pytest.approx(1.0)
    assert agg["fragments"] == pytest.approx(1.0)


def test_corpus_eval_all_empty():
    report = corpus_eval([([], g("(a.v b.n)")), ([], g("(c.d x.pro)"))], seed=0)
    assert report.aggregate["sembleu"] == 0.0
    assert report.aggregate["elsmatch_f1"] == 0.0


def test_corpus_eval_half_perfect_pooled():
    gold = g("(a.v (b.n c.d))")  # 5 triples; 3 uni, 2 bi, 1 trigram
    report = corpus_eval([(gold, gold), ([], gold)], seed=0)
    agg = report.aggregate
    # pooled EL-Smatch: matched 5 of candidate 5 (P=1), of gold 10 (R=.5)
    assert agg["elsmatch_p"] == pytest.approx(1.0)
    assert agg["elsmatch_r"] == pytest.approx(0.5)
    assert agg["elsmatch_f1"] == pytest.approx(2 / 3)
    # pooled SemBLEU: precisions 3/3, 2/2, 1/1; brevity exp(1 - 6/3)
    import math
    assert agg["sembleu"] == pytest.approx(math.exp(-1.0))
    assert agg["fragments"] == pytest.approx(0.5)


def test_corpus_eval_report_formats():
    gold = g("(a.v b.n)")
    report = corpus_eval([(gold, gold)], seed=0, ids=["s1"])
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("id\tsembleu")
    assert "s1" in tsv
    js = report.to_json()
    assert '"aggregate"' in js and '"config"' in js
