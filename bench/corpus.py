"""Seeded synthetic ULF corpus and seeded perturbations of gold graphs.

Each record follows ``docs/corpus.schema.json``: tokens, lemmas, POS,
NER, a dependency tree built from the same phrase structure as the ULF,
and the gold ULF.  The phrase grammar covers what the oracle has to
handle in the released corpus: single and multi-word pipe names (the
latter need MERGEBUF), promoted operators (pres, past, plur, k, to, tht,
adv-a, ?, !), SYMGEN-only atoms (mod-n, n+preds, {you}.pro), multi-token
atoms (had_better.aux-s) and skipped words (punctuation, "to", "that").

Nested clauses, prepositional chains and adjective stacks give the
length distribution a tail to about 65 words and 100 vertices.  Only
``random.Random`` seeded with an int is used, so a seed gives the same
corpus on every Python 3 version.
"""

from __future__ import annotations

import json
import random

from ulfparse.core import UlfGraph, Vertex, parse_atom

CORPUS_SIZE = 1738

NOUNS = ["dog", "cat", "house", "book", "river", "city", "car", "tree",
         "letter", "friend", "teacher", "garden", "window", "table", "song",
         "idea", "student", "doctor", "shoe", "bird", "door", "road", "farmer",
         "painter", "boat", "hill", "lamp", "flower", "story", "kitchen"]
ADJECTIVES = ["big", "small", "new", "old", "red", "happy", "quiet", "tall",
              "green", "bright", "young", "cold", "dark", "kind", "strange"]
# (lemma, 3rd person singular present, past)
INTRANS = [("run", "runs", "ran"), ("sleep", "sleeps", "slept"),
           ("dance", "dances", "danced"), ("walk", "walks", "walked"),
           ("laugh", "laughs", "laughed"), ("wait", "waits", "waited"),
           ("work", "works", "worked"), ("arrive", "arrives", "arrived"),
           ("smile", "smiles", "smiled"), ("bark", "barks", "barked")]
TRANS = [("see", "sees", "saw"), ("like", "likes", "liked"),
         ("find", "finds", "found"), ("read", "reads", "read"),
         ("open", "opens", "opened"), ("watch", "watches", "watched"),
         ("help", "helps", "helped"), ("visit", "visits", "visited"),
         ("paint", "paints", "painted"), ("clean", "cleans", "cleaned"),
         ("love", "loves", "loved"), ("buy", "buys", "bought")]
CLAUSAL = [("say", "says", "said"), ("think", "thinks", "thought"),
           ("know", "knows", "knew"), ("hope", "hopes", "hoped")]
CONTROL = [("want", "wants", "wanted"), ("try", "tries", "tried"),
           ("need", "needs", "needed")]
ADVERBS = ["carefully", "quickly", "quietly", "slowly", "happily"]
PREPS = ["in", "on", "near", "under", "with", "from", "behind"]
DETS = ["the", "a", "every", "some", "my"]
# (subject form, object form)
PRONOUNS = [("I", "me"), ("you", "you"), ("he", "him"), ("she", "her"),
            ("we", "us"), ("they", "them")]
NAMES = [(["Tom"], "PERSON"), (["Mary"], "PERSON"), (["Alice"], "PERSON"),
         (["John"], "PERSON"), (["Boston"], "LOCATION"), (["Paris"], "LOCATION"),
         (["New", "York"], "LOCATION"), (["San", "Francisco"], "LOCATION"),
         (["Mary", "Ann", "Smith"], "PERSON"), (["Tom", "Hanks"], "PERSON")]


class Phrase:
    """A ULF constituent with its words and their dependency arcs.

    Each word is [surface, lemma, POS, NER, head, label]; head is an
    index into this phrase's words, or None for the phrase head.
    """

    def __init__(self, ulf, words, head=0):
        self.ulf = ulf
        self.words = words
        self.head = head


def word(surface, lemma, pos, ner="O", ulf=None):
    return Phrase(ulf, [[surface, lemma, pos, ner, None, None]])


def combine(ulf, parts, head_part, labels):
    """Concatenate parts in word order; the head of part i attaches to the
    head of part head_part with labels[i]."""
    words, offsets = [], []
    for p in parts:
        offsets.append(len(words))
        for w in p.words:
            w = list(w)
            if w[4] is not None:
                w[4] += offsets[-1]
            words.append(w)
    head = offsets[head_part] + parts[head_part].head
    for i, p in enumerate(parts):
        if i != head_part:
            w = words[offsets[i] + p.head]
            w[4], w[5] = head, labels[i]
    return Phrase(ulf, words, head)


class Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def chance(self, p):
        return self.rng.random() < p

    def pick(self, seq):
        return seq[self.rng.randrange(len(seq))]

    # -- nominals ---------------------------------------------------------

    def noun_bar(self, depth):
        noun = self.pick(NOUNS)
        if self.chance(0.35):
            plural = noun[:-1] + "ies" if noun.endswith("y") else noun + "s"
            base = word(plural, noun, "NNS", ulf="(plur %s.n)" % noun)
        else:
            base = word(noun, noun, "NN", ulf="%s.n" % noun)
        for _ in range(self.adjective_count(depth)):
            adj = self.pick(ADJECTIVES)
            a = word(adj, adj, "JJ")
            base = combine("((mod-n %s.a) %s)" % (adj, base.ulf),
                           [a, base], 1, ["amod", None])
        if depth > 0 and self.chance(0.3):
            pp = self.prep_phrase(depth - 1)
            base = combine("(n+preds %s %s)" % (base.ulf, pp.ulf),
                           [base, pp], 0, [None, "nmod"])
        return base

    def adjective_count(self, depth):
        n = 0
        while n < 3 and self.chance(0.35 if depth > 0 else 0.2):
            n += 1
        return n

    def prep_phrase(self, depth):
        prep = self.pick(PREPS)
        obj = self.noun_phrase(depth, subject=False)
        p = word(prep, prep, "IN")
        return combine("(%s.p %s)" % (prep, obj.ulf), [p, obj], 1, ["case", None])

    def noun_phrase(self, depth, subject=True):
        r = self.rng.random()
        if r < 0.2:
            form = self.pick(PRONOUNS)[0 if subject else 1]
            return word(form, form.lower(), "PRP", ulf="%s.pro" % form.lower())
        if r < 0.38:
            parts, ner = self.pick(NAMES)
            ws = [word(t, t, "NNP", ner) for t in parts]
            return combine("|%s|" % " ".join(parts), ws, len(ws) - 1,
                           ["compound"] * len(ws))
        bar = self.noun_bar(depth)
        if r < 0.46 and bar.ulf.startswith("(plur"):
            return combine("(k %s)" % bar.ulf, [bar], 0, [None])
        det = self.pick(DETS)
        d = word(det, det, "PRP$" if det == "my" else "DT")
        return combine("(%s.d %s)" % (det, bar.ulf), [d, bar], 1, ["det", None])

    # -- verbal -----------------------------------------------------------

    def verb_word(self, entry, tense, third):
        lemma, sg3, past = entry
        if tense == "past":
            return word(past, lemma, "VBD")
        if tense == "pres" and third:
            return word(sg3, lemma, "VBZ")
        if tense == "pres":
            return word(lemma, lemma, "VBP")
        return word(lemma, lemma, "VB")

    def verb_phrase(self, depth, tense, third):
        """One predicate with its arguments and modifiers; tense None
        gives a bare infinitive."""
        r = self.rng.random()
        if depth > 0 and r < 0.26:
            entry = self.pick(CLAUSAL)
            v = self.verb_word(entry, tense, third)
            that = word("that", "that", "IN")
            inner = self.clause(depth - 1)
            comp = combine("(tht %s)" % inner.ulf, [that, inner], 1, ["mark", None])
            head, args = "%s.v" % entry[0], [comp]
            parts, labels = [v, comp], [None, "ccomp"]
        elif depth > 0 and r < 0.38:
            entry = self.pick(CONTROL)
            v = self.verb_word(entry, tense, third)
            to = word("to", "to", "TO")
            inner = self.verb_phrase(depth - 1, None, third)
            comp = combine("(to %s)" % inner.ulf, [to, inner], 1, ["mark", None])
            head, args = "%s.v" % entry[0], [comp]
            parts, labels = [v, comp], [None, "xcomp"]
        elif r < 0.65:
            entry = self.pick(TRANS)
            v = self.verb_word(entry, tense, third)
            obj = self.noun_phrase(depth, subject=False)
            head, args = "%s.v" % entry[0], [obj]
            parts, labels = [v, obj], [None, "obj"]
        else:
            entry = self.pick(INTRANS)
            v = self.verb_word(entry, tense, third)
            head, args, parts, labels = "%s.v" % entry[0], [], [v], [None]
        if self.chance(0.2):
            adv = self.pick(ADVERBS)
            a = word(adv, adv, "RB", ulf="%s.adv-a" % adv)
            args, parts, labels = args + [a], parts + [a], labels + ["advmod"]
        for _ in range(2):
            if depth == 0 or not self.chance(0.5):
                break
            pp = self.prep_phrase(depth - 1)
            mod = combine("(adv-a %s)" % pp.ulf, [pp], 0, [None])
            args, parts, labels = args + [mod], parts + [mod], labels + ["obl"]
        op = "(%s %s)" % (tense, head) if tense else head
        ulf = "(%s)" % " ".join([op] + [a.ulf for a in args]) if args else op
        return combine(ulf, parts, 0, labels)

    def clause(self, depth):
        subj = self.noun_phrase(depth, subject=True)
        head = subj.words[subj.head]
        third = head[2] != "NNS" and head[0] not in ("I", "you", "we", "they")
        tense = "past" if self.chance(0.5) else "pres"
        if self.chance(0.1):
            aux = word("can", "can", "MD")
            vp = self.verb_phrase(depth, None, third)
            pred = combine("((%s can.aux-v) %s)" % (tense, vp.ulf),
                           [aux, vp], 1, ["aux", None])
        elif self.chance(0.04):
            aux = combine(None, [word("had", "have", "VBD"),
                                 word("better", "better", "RBR")], 0,
                          [None, "fixed"])
            vp = self.verb_phrase(depth, None, third)
            pred = combine("((pres had_better.aux-s) %s)" % vp.ulf,
                           [aux, vp], 1, ["aux", None])
        else:
            pred = self.verb_phrase(depth, tense, third)
            if not pred.ulf.startswith("(("):
                pred.ulf = "(%s)" % pred.ulf
        return combine("(%s %s)" % (subj.ulf, pred.ulf), [subj, pred], 1,
                       ["nsubj", None])

    def sentence(self, depth):
        r = self.rng.random()
        if r < 0.06:
            vp = self.verb_phrase(depth, "pres", False)
            bang = word("!", "!", ".")
            body = vp.ulf if vp.ulf.startswith("((") else "(%s)" % vp.ulf
            return combine("(({you}.pro %s) !)" % body, [vp, bang], 0,
                           [None, "punct"])
        if r < 0.12:
            tense = self.pick(["pres", "past"])
            aux = word("Do" if tense == "pres" else "Did", "do",
                       "VBP" if tense == "pres" else "VBD")
            subj = self.noun_phrase(0, subject=True)
            vp = self.verb_phrase(depth, None, False)
            q = word("?", "?", ".")
            return combine("(((%s do.aux-s) %s %s) ?)" % (tense, subj.ulf, vp.ulf),
                           [aux, subj, vp, q], 2, ["aux", "nsubj", None, "punct"])
        body = self.clause(depth)
        stop = word(".", ".", ".")
        return combine(body.ulf, [body, stop], 0, [None, "punct"])


def draw_depth(rng: random.Random) -> int:
    """Recursion budget per sentence: mostly 1-2, with a geometric tail
    that makes the long sentences."""
    depth = 2
    while depth < 9 and rng.random() < 0.6:
        depth += 1
    return depth


def make_record(rng: random.Random, rid: str) -> dict:
    phrase = Generator(rng).sentence(draw_depth(rng))
    words = phrase.words
    words[0][0] = words[0][0][0].upper() + words[0][0][1:]
    tokens = [w[0] for w in words]
    deps = [[0 if w[4] is None else w[4] + 1, "root" if w[4] is None else w[5]]
            for w in words]
    return {
        "id": rid,
        "text": " ".join(tokens),
        "tokens": tokens,
        "lemmas": [w[1] for w in words],
        "pos": [w[2] for w in words],
        "ner": [w[3] for w in words],
        "deps": deps,
        "ulf": phrase.ulf,
    }


def generate(seed: int, n: int = CORPUS_SIZE) -> list[dict]:
    rng = random.Random(seed)
    return [make_record(rng, "syn-%d-%04d" % (seed, i)) for i in range(n)]


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for obj in records:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Perturbed candidates for the eval workload

PERTURB_LABELS = [":ARG0", ":ARG1", ":ARG2", ":INSTANCE"]


def perturb(graph, rng: random.Random, rate=0.15):
    """A copy of a gold tree with about rate * |V| edits: relabelled atoms,
    changed edge labels and subtrees moved under another vertex.  The
    result stays a rooted tree, as a decoded fragment is."""
    verts = list(graph.vertices)
    parent = {dst: [src, lab] for src, dst, lab in graph.edges}
    atoms = [v.symbol.render() for v in verts]
    for _ in range(max(1, round(rate * len(verts)))):
        kind = rng.randrange(3)
        if kind == 0 or not parent:
            i = rng.randrange(len(verts))
            verts[i] = Vertex(parse_atom(atoms[rng.randrange(len(atoms))]))
        elif kind == 1:
            dst = rng.choice(sorted(parent))
            parent[dst][1] = rng.choice(PERTURB_LABELS)
        else:
            dst = rng.choice(sorted(parent))
            below = _subtree_of(parent, dst)
            targets = [u for u in range(len(verts)) if u not in below]
            parent[dst][0] = rng.choice(targets)
    edges = [(src, dst, lab) for dst, (src, lab) in sorted(parent.items())]
    return UlfGraph(verts, edges, graph.root)


def _subtree_of(parent, vid):
    kids = {}
    for dst, (src, _) in parent.items():
        kids.setdefault(src, []).append(dst)
    out, todo = {vid}, [vid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.add(k)
            todo.append(k)
    return out
