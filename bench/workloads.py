"""The three workloads: train, parse and eval.

Each workload draws from one synthetic corpus generated from the seed and
split with ``cli.split_round_robin``.  ``setup()`` builds everything the
timed region needs; ``units()`` yields the work units of the closed loop
in order, cycling if a fast program gets through all of them;
``run(unit)`` does one unit the way the matching ``ulfparse`` subcommand
does it; ``check(done)`` verifies the outputs afterwards.

Draws are stratified so that every round of units has the same size
profile: the pool is sorted by size, cut into equal strata, and each
round takes one member of every stratum (seeded shuffle within strata).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import statistics
from dataclasses import dataclass, field

from ulfparse import cli, metrics, oracle
from ulfparse import decode as dec
from ulfparse import machine as tm
from ulfparse.core import graphs_equal
from ulfparse.typesys import Lexicon, TypeGrammar

import corpus

PROMOTE = oracle.DEFAULT_PROMOTE_SYMBOLS
NEVER = frozenset(PROMOTE)
CAP = tm.DEFAULT_STEP_CAP

TRAIN_ROUND = 10          # records per training round, one per size decile
TRAIN_EPOCHS = 3

PARSE_BEAM = 10
PARSE_CORPUS_SEED = 0       # the parse workload's reference corpus (see ParseWorkload)
# train-split draw the parse model is built from; small because set-up runs
# three times per run (a 300-sentence model takes 37 s); its decode time lies
# within the range of larger models' (bench/README.md, "Workloads")
PARSE_MODEL_SENTENCES = 20
PARSE_MODEL_EPOCHS = 3
PARSE_ROUND = 4             # held-out sentences per round, one per length quartile
PARSE_SAMPLE = 8            # sentences of the fixed sample decoded in each pass

EVAL_SIZES = (10, 20, 30, 40, 48)  # gold vertex counts of one round of pairs
EVAL_ROUNDS = 12           # rounds set up; the loop cycles through them
EVAL_K = 3
EVAL_RESTARTS = 4


@dataclass
class Unit:
    id: str
    payload: object
    items: int                 # sentences or pairs in this unit
    ends_round: bool = True    # a run may stop after this unit


@dataclass
class Done:
    """What run() returned for one unit."""

    unit: Unit
    output: str                # bytes that go to the workload's output file
    failed: int = 0            # items that raised or hit an oracle error
    extra: object = None       # what check() needs; None when run() raised
    cpu_s: float = 0.0         # CPU time of run(), less the speed probes'
    ref_s: float = 0.0         # cpu_s in reference seconds


@dataclass
class Outcome:
    """Results of check(): failed checks and quality figures."""

    problems: list = field(default_factory=list)
    fail_share: float = 0.0
    fail_note: str = ""
    scores: dict = field(default_factory=dict)
    oracle_actions: int = 0


def stratified_rounds(pool, key, per_round, rng):
    """Rounds of per_round members, one from each of per_round equal-count
    strata of pool ordered by key."""
    ordered = sorted(pool, key=key)
    n = len(ordered)
    strata = [ordered[i * n // per_round:(i + 1) * n // per_round]
              for i in range(per_round)]
    for s in strata:
        rng.shuffle(s)
    return [[s[r] for s in strata] for r in range(min(len(s) for s in strata))]


def extract_each(records):
    """(kept (record, actions) pairs, oracle error count), extracting per
    record as `ulfparse oracle` does: `ulfparse train` would stop at the
    first record the oracle cannot extract."""
    inseq = cli._harvest_inseq(records, PROMOTE)
    kept, failed = [], 0
    for rec in records:
        gold = rec.gold_graph
        amap = cli.align(rec.sentence, gold, never_align=NEVER)
        try:
            kept.append((rec, oracle.extract(rec.sentence, gold, amap, PROMOTE,
                                             inseq, CAP)))
        except oracle.OracleError:
            failed += 1
    return kept, failed


def completed(done):
    """The units that ran without raising."""
    return [d for d in done if d.extra is not None]


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random("%s-%d" % (self.name, seed))

    def path(self, name):
        return os.path.join(self.workdir, name)

    def load_corpus(self):
        """Generate the corpus, write it as JSONL and read it back through
        the CLI's ingest, then split it as `ulfparse split` does."""
        path = self.path("corpus.jsonl")
        corpus.write_jsonl(corpus.generate(self.seed), path)
        self.records = cli.ingest(path)
        return cli.split_round_robin(self.records)


class TrainWorkload(Workload):
    """Align, extract oracle sequences and train, one round at a time,
    as `ulfparse train` does for a round's corpus file."""

    name = "train"

    def setup(self):
        train, _, _ = self.load_corpus()
        # oracle length, and so training time, tracks the vertex count
        rounds = stratified_rounds(train, lambda r: len(r.gold_graph.vertices),
                                   TRAIN_ROUND, self.rng)
        self.rounds = []
        for i, recs in enumerate(rounds):
            path = self.path("train-round-%03d.jsonl" % i)
            with open(path, "w") as fh:
                for rec in recs:
                    fh.write(rec.to_json() + "\n")
            self.rounds.append(Unit("round-%03d" % i, path, len(recs)))

    def units(self):
        return itertools.cycle(self.rounds)

    def run(self, unit) -> Done:
        records = cli.ingest(unit.payload)
        kept, failed = extract_each(records)
        model, _ = dec.train_perceptron(
            [(rec.sentence, rec.deps, seq) for rec, seq in kept],
            epochs=TRAIN_EPOCHS, seed=self.seed)
        text = model.to_json() + "\n"
        with open(self.path("model.json"), "w") as fh:
            fh.write(text)
        return Done(unit, text, failed, kept)

    def check(self, done) -> Outcome:
        out = Outcome()
        machine = tm.Machine(step_cap=CAP)
        attempted = sum(d.unit.items for d in done)
        failures = sum(d.failed for d in done)
        mismatches = actions = 0
        for d in completed(done):
            for rec, seq in d.extra:
                actions += len(seq)
                frags = machine.extract_result(machine.replay(rec.sentence, seq))
                if len(frags) != 1 or not graphs_equal(frags[0], rec.gold_graph):
                    mismatches += 1
                    out.problems.append("%s: replay differs from gold" % rec.id)
            if dec.PerceptronModel.from_json(d.output).to_json() + "\n" != d.output:
                out.problems.append("%s: model JSON does not reload" % d.unit.id)
        out.fail_share = (failures + mismatches) / attempted
        out.fail_note = "%d oracle errors or exceptions + %d replay mismatches" \
            " / %d records" % (failures, mismatches, attempted)
        out.oracle_actions = actions
        return out


class ParseWorkload(Workload):
    """Beam 10 decoding with the type constraint and a lexicon, as
    `ulfparse parse --beam 10 --types --lexicon L --model M` does.

    The model and a fixed sample of held-out sentences come from the
    reference corpus PARSE_CORPUS_SEED, whatever the run's seed, and the
    sample is decoded in whole passes.  Whether some beam hypothesis runs on to the 800-action cap
    (2-5 s) or the beam ends with the best parse (0.1-1 s) flips from
    sentence to sentence and from model to model, so with models and
    sentences drawn per seed, sentences/s varied from 0.41 to 1.17 across
    four seeds: no bound could hold that.
    """

    name = "parse"

    def __init__(self, seed, workdir):
        super().__init__(PARSE_CORPUS_SEED, workdir)

    def setup(self):
        train, dev, test = self.load_corpus()
        draw = [r for rnd in stratified_rounds(
            train, lambda r: len(r.sentence), 10, self.rng)
            for r in rnd][:PARSE_MODEL_SENTENCES]
        kept, _ = extract_each(draw)
        model, _ = dec.train_perceptron(
            [(rec.sentence, rec.deps, seq) for rec, seq in kept],
            epochs=PARSE_MODEL_EPOCHS, seed=self.seed)
        with open(self.path("model.json"), "w") as fh:
            fh.write(model.to_json() + "\n")
        # corpus-derived lexicon, as in acceptance criterion 7
        table = {}
        for rec in draw:
            for v in rec.gold_graph.vertices:
                table.setdefault(v.symbol.stem.lower(), set()).add(v.symbol.render())
        with open(self.path("lexicon.tsv"), "w") as fh:
            for stem in sorted(table):
                fh.write("%s\t%s\n" % (stem, " ".join(sorted(table[stem]))))
        # load both back as the parse subcommand does
        with open(self.path("model.json")) as fh:
            self.model = dec.PerceptronModel.from_json(fh.read())
        self.machine = self.model.make_machine()
        self.machine.step_cap = CAP
        self.lexicon = Lexicon.load(self.path("lexicon.tsv"))
        self.grammar = TypeGrammar.default()
        rounds = stratified_rounds(dev + test, lambda r: len(r.sentence),
                                   PARSE_ROUND, self.rng)
        sample = [rec for rnd in rounds for rec in rnd][:PARSE_SAMPLE]
        # a run stops only after a whole pass, so every run decodes the
        # same sentences however the deadline falls
        self.schedule = [Unit(rec.id, rec, 1, i == len(sample) - 1)
                         for i, rec in enumerate(sample)]

    def units(self):
        return itertools.cycle(self.schedule)

    def run(self, unit) -> Done:
        rec = unit.payload
        result = dec.beam_decode(
            rec.sentence, dec.PerceptronScorer(self.model), self.machine,
            beam_size=PARSE_BEAM, lexicon=self.lexicon, grammar=self.grammar,
            cap=CAP, dep=rec.deps)
        lines = ["# id: %s fragments: %d score: %.4f\n"
                 % (rec.id, len(result.fragments), result.score)]
        for g in result.fragments:
            lines.append(cli.render_sexpr(cli.graph_to_tree(g, strict=False)) + "\n")
        lines.append("\n")
        return Done(unit, "".join(lines), 0, result)

    def check(self, done) -> Outcome:
        out = Outcome()
        ok = completed(done)
        path = self.path("parsed.txt")
        with open(path, "w") as fh:
            for d in ok:
                fh.write(d.output)
        blocks = cli._read_parse_file(path)
        if len(blocks) != len(ok):
            out.problems.append("%d output blocks for %d sentences"
                                % (len(blocks), len(ok)))
        for d, frags in zip(ok, blocks):
            if len(frags) != len(d.extra.fragments):
                out.problems.append("%s: %d fragments re-parsed, %d decoded"
                                    % (d.unit.id, len(frags), len(d.extra.fragments)))
        capped = sum(not d.extra.finished for d in ok)
        failures = len(done) - len(ok) + capped
        out.fail_share = failures / len(done)
        out.fail_note = "%d exceptions + %d capped best hypotheses / %d sentences" % (
            len(done) - len(ok), capped, len(done))
        pairs = [(d.extra.fragments, d.unit.payload.gold_graph) for d in ok]
        report = metrics.corpus_eval(pairs, k=EVAL_K, restarts=EVAL_RESTARTS, seed=0)
        out.scores = {"sembleu": report.aggregate["sembleu"],
                      "elsmatch_f1": report.aggregate["elsmatch_f1"]}
        return out


class EvalWorkload(Workload):
    """`ulfparse eval both` over gold graphs and seeded perturbations of
    them, one pair per call; a round holds one pair per size in
    EVAL_SIZES, smallest first, and a run stops only at a round's end."""

    name = "eval"

    def setup(self):
        self.load_corpus()
        by_size = {}
        for rec in self.records:
            g = rec.gold_graph
            by_size.setdefault(len(g.vertices), []).append(rec)
        sizes = sorted(by_size)
        self.pairs = []
        for i in range(EVAL_ROUNDS):
            for j, target in enumerate(EVAL_SIZES):
                n = min(sizes, key=lambda s: (abs(s - target), s))
                rec = self.rng.choice(by_size[n])
                cand = corpus.perturb(rec.gold_graph, self.rng)
                cpath = self.path("eval-cand-%03d-%d.txt" % (i, j))
                gpath = self.path("eval-gold-%03d-%d.ulf" % (i, j))
                with open(cpath, "w") as fh:
                    fh.write("# id: %s fragments: 1\n%s\n\n" % (
                        rec.id, cli.render_sexpr(cli.graph_to_tree(cand, strict=False))))
                with open(gpath, "w") as fh:
                    fh.write(rec.ulf + "\n")
                self.pairs.append(Unit("pair-%03d-%d" % (i, j), (cpath, gpath, [rec.id]),
                                       1, j == len(EVAL_SIZES) - 1))

    def units(self):
        return itertools.cycle(self.pairs)

    def run(self, unit) -> Done:
        cpath, gpath, ids = unit.payload
        cands = cli._read_parse_file(cpath)
        golds = cli._read_graph_file(gpath, "ulf")
        report = metrics.corpus_eval(list(zip(cands, golds)), k=EVAL_K,
                                     restarts=EVAL_RESTARTS, seed=0, ids=ids)
        text = report.to_tsv()
        with open(self.path("report.tsv"), "w") as fh:
            fh.write(text)
        return Done(unit, text, 0, report)

    def check(self, done) -> Outcome:
        out = Outcome()
        ok = completed(done)
        for d in ok:
            if len(d.extra.rows) != d.unit.items:
                out.problems.append("%s: %d report rows for %d pairs"
                                    % (d.unit.id, len(d.extra.rows), d.unit.items))
        small = sorted((r for r in self.records if len(r.sentence) <= 8),
                       key=lambda r: r.id)
        for rec in self.rng.sample(small, 3):
            g = rec.gold_graph
            f1, p, r = metrics.el_smatch(g, g)
            if abs(f1 - 1.0) > 1e-9 or abs(metrics.sembleu(g, g) - 1.0) > 1e-9:
                out.problems.append("%s: metric(g, g) != 1" % rec.id)
        pairs = sum(d.unit.items for d in done)
        failures = sum(d.failed for d in done)
        out.fail_share = failures / pairs
        out.fail_note = "%d pairs that raised / %d pairs" % (failures, pairs)
        if ok:
            out.scores = {
                k: statistics.fmean(d.extra.aggregate[k] for d in ok)
                for k in ("sembleu", "elsmatch_f1")}
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, ParseWorkload, EvalWorkload)}
