"""Corpus handling and the command-line interface.

Corpus files are JSON lines, one record per line::

    {"id": "mc-001", "text": "I run .",
     "tokens": ["I", "run", "."], "lemmas": ["i", "run", "."],
     "pos": ["PRP", "VBP", "."], "ner": ["O", "O", "O"],
     "deps": [[2, "nsubj"], [0, "root"], [2, "punct"]],
     "ulf": "(i.pro ((pres run.v)))"}

``ner``, ``deps``, and ``ulf`` are optional (``ulf`` is required for
oracle extraction and training).  Dependency heads are 1-based word
indices with 0 for the root.  Annotations are inputs; nothing here runs
a tagger or parser.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from dataclasses import dataclass
from importlib import resources

from . import decode as dec
from . import machine as tm
from . import metrics, oracle
from .align import align
from .core import (
    Sentence,
    UlfGraph,
    emit_penman,
    graph_to_tree,
    parse_penman,
    parse_sexpr,
    render_sexpr,
    tree_to_graph,
)
from .typesys import Lexicon, TypeGrammar

SPLIT_PATTERN = ("train", "dev", "test") + ("train",) * 7


class CorpusError(ValueError):
    pass


@dataclass
class CorpusRecord:
    id: str
    sentence: Sentence
    deps: tuple | None = None
    ulf: str | None = None

    @property
    def gold_tree(self):
        return parse_sexpr(self.ulf) if self.ulf else None

    @property
    def gold_graph(self) -> UlfGraph | None:
        t = self.gold_tree
        return tree_to_graph(t) if t is not None else None

    def to_json(self) -> str:
        obj = {
            "id": self.id,
            "text": self.sentence.raw,
            "tokens": [t.surface for t in self.sentence.tokens],
            "lemmas": [t.lemma for t in self.sentence.tokens],
            "pos": [t.pos for t in self.sentence.tokens],
            "ner": [t.ner for t in self.sentence.tokens],
        }
        if self.deps is not None:
            obj["deps"] = [list(d) for d in self.deps]
        if self.ulf is not None:
            obj["ulf"] = self.ulf
        return json.dumps(obj, sort_keys=True)


_WORD_FIELDS = ("tokens", "lemmas", "pos", "ner")
# a character that splits or ends a symbol in the ULF reader: a token or
# lemma holding one would render as a symbol the reader refuses or splits
_SYMBOL_BREAK = re.compile(r"[\s|]")


def record_from_obj(obj, lineno="?") -> CorpusRecord:
    def fail(msg):
        raise CorpusError("line %s: %s" % (lineno, msg))

    if not isinstance(obj, dict):
        fail("a record must be a JSON object")
    for key in ("id", "tokens", "lemmas", "pos"):
        if key not in obj:
            fail("missing %r field" % key)
    for key in _WORD_FIELDS:
        if not isinstance(obj.get(key, []), list):
            fail("%r must be a list of strings" % key)
    tokens = obj["tokens"]
    n = len(tokens)
    if n == 0:
        fail("empty token list")
    for key in ("lemmas", "pos"):
        if len(obj[key]) != n:
            fail("%r length %d != %d tokens" % (key, len(obj[key]), n))
    ner = obj.get("ner", ["O"] * n)
    if len(ner) != n:
        fail("'ner' length mismatch")
    deps = obj.get("deps")
    if deps is not None:
        if not isinstance(deps, list):
            fail("'deps' must be a list of [head, label] pairs")
        if len(deps) != n:
            fail("'deps' length mismatch")
        for pair in deps:
            # a bool is an int to isinstance, and JSON has no tuples
            if not (type(pair) is list and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is str):
                fail("'deps' must be a list of [head, label] pairs")
            if not (0 <= pair[0] <= n):
                fail("dependency head %d out of range" % pair[0])
        # labels are interned, as Sentence.make interns the words
        deps = tuple((h, sys.intern(lab)) for h, lab in deps)
    ulf = obj.get("ulf")
    if ulf is not None:
        try:
            parse_sexpr(ulf)
        except Exception as e:
            fail("unparseable gold ULF: %s" % e)
    try:
        sentence = Sentence.make(
            tokens, obj["lemmas"], obj["pos"], ner, raw=obj.get("text"))
    except TypeError:  # Sentence.make interns every word: strings only
        fail("%r must be a list of strings" % next(
            key for key in _WORD_FIELDS
            if not all(isinstance(w, str) for w in obj.get(key, ()))))
    except ValueError as e:  # a Token refuses an empty word
        fail(str(e))
    for key in ("tokens", "lemmas"):
        # one search of the field's words joined, as nearly every field is clean
        if _SYMBOL_BREAK.search("".join(obj[key])):
            word = next(w for w in obj[key] if _SYMBOL_BREAK.search(w))
            fail("%s %r holds whitespace or '|'" % (key[:-1], word))
    return CorpusRecord(str(obj["id"]), sentence, deps, ulf)


def ingest(path) -> list[CorpusRecord]:
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError("line %d: malformed JSON: %s" % (lineno, e))
            records.append(record_from_obj(obj, lineno))
    return records


def mini_corpus_path():
    return resources.files("ulfparse.data").joinpath("minicorpus.jsonl")


def load_mini_corpus() -> list[CorpusRecord]:
    records = []
    for lineno, line in enumerate(mini_corpus_path().read_text().splitlines(), 1):
        if line.strip():
            records.append(record_from_obj(json.loads(line), lineno))
    return records


def split_round_robin(records, chunk=10, pattern=SPLIT_PATTERN):
    """Assign consecutive chunks of `chunk` records to splits cyclically.

    pattern is the role sequence per chunk; the default gives the
    training set eight chunks per round of ten.  A final partial chunk
    takes the next role in pattern order.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    out = {"train": [], "dev": [], "test": []}
    for i in range(0, len(records), chunk):
        role = pattern[(i // chunk) % len(pattern)]
        out[role].extend(records[i : i + chunk])
    return out["train"], out["dev"], out["test"]


# ---------------------------------------------------------------------------
# Shared helpers


def _read_graph_file(path, fmt):
    """Read one graph per record: consecutive s-expressions (per line or
    blank-separated, possibly multi-line) for ULF, blank-separated blocks
    for penman.  Lines starting with '#' are comments.  A ULF file whose
    first non-blank line loads as a JSON object (a corpus) is refused."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    text = "\n".join(lines)
    if fmt == "penman":
        blocks = [b.strip() for b in text.split("\n\n") if b.strip()]
        return [parse_penman(b) for b in blocks]
    # a corpus line would read as many ULF graphs, but `{you}.pro` is ULF
    # too: a first line starting with '{' is refused only if it loads
    first = next((ln.strip() for ln in lines if ln.strip()), "")
    if first.startswith("{"):
        try:
            json.loads(first)
        except ValueError:
            pass
        else:
            raise CorpusError("%s starts with a JSON object (a corpus "
                              "file?), not a ULF graph" % path)
    from .core import parse_sexpr_stream

    return [tree_to_graph(t) for t in parse_sexpr_stream(text)]


def _align_golds(records, promote_syms):
    """(record, gold graph, alignment) for each record: every gold ULF is
    parsed and aligned once, for both S_s harvesting and extraction."""
    never = frozenset(promote_syms)
    out = []
    for rec in records:
        gold = rec.gold_graph
        if gold is None:
            raise CorpusError("record %s has no gold ULF" % rec.id)
        out.append((rec, gold, align(rec.sentence, gold, never_align=never)))
    return out


def _inseq(aligned, promote_syms):
    """S_s harvested from _align_golds output."""
    return oracle.build_symbol_sets(
        [(rec.sentence, gold, amap) for rec, gold, amap in aligned],
        promote_syms)


def _harvest_inseq(records, promote_syms):
    """S_s harvested from the records that carry a gold ULF."""
    return _inseq(_align_golds([r for r in records if r.ulf], promote_syms),
                  promote_syms)


def _oracle_items(records, promote_syms, step_cap=tm.DEFAULT_STEP_CAP):
    """(record, actions) for each record, extracting with alignment."""
    aligned = _align_golds(records, promote_syms)
    inseq = _inseq(aligned, promote_syms)
    return [(rec, oracle.extract(rec.sentence, gold, amap, promote_syms,
                                 inseq, step_cap))
            for rec, gold, amap in aligned]


def _scorer_for(name, model, oracle_actions=None, seed=0, external=None):
    if name == "perceptron":
        return dec.PerceptronScorer(model)
    if name == "random":
        return dec.RandomScorer(seed)
    if name == "oracle":
        return dec.OracleScorer(oracle_actions)
    if name == "external":
        return external
    raise ValueError("unknown scorer %r" % name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_convert(args):
    graphs = _read_graph_file(args.input, args.source)
    if args.plain_names:
        graphs = [_plain_names(g) for g in graphs]
    with _out(args.output) as fh:
        for g in graphs:
            if args.to == "penman":
                fh.write(emit_penman(g) + "\n\n")
            else:
                fh.write(render_sexpr(graph_to_tree(g)) + "\n")
    return 0


def _plain_names(g: UlfGraph) -> UlfGraph:
    """Export preprocessing for pipelines that cannot handle pipe-delimited
    labels: strips pipes and joins name-internal spaces with underscores.
    Off by default; names normally stay single pipe-delimited atoms."""
    from .core import Atom, Vertex

    verts = []
    for v in g.vertices:
        sym = v.symbol
        if sym.is_name:
            sym = Atom(sym.stem.replace(" ", "_"), "suffixed", sym.tag) \
                if sym.tag else Atom(sym.stem.replace(" ", "_"), "operator")
        verts.append(Vertex(sym, v.alignment))
    return UlfGraph(verts, list(g.edges), g.root)


def cmd_align(args):
    aligned = _align_golds(ingest(args.corpus), args.promote_syms)
    with _out(args.output) as fh:
        for rec, _, amap in aligned:
            obj = {"id": rec.id,
                   "tokens": [t.surface for t in rec.sentence.tokens]}
            obj.update(amap.to_record())
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return 0


def cmd_oracle(args):
    aligned = _align_golds(ingest(args.corpus), args.promote_syms)
    inseq = _inseq(aligned, args.promote_syms)
    failures = 0
    lengths = []
    with _out(args.output) as fh:
        for rec, gold, amap in aligned:
            try:
                actions = oracle.extract(rec.sentence, gold, amap,
                                         args.promote_syms, inseq, args.cap)
            except oracle.OracleError as e:
                failures += 1
                print("FAIL %s: %s" % (rec.id, e), file=sys.stderr)
                continue
            lengths.append(len(actions))
            fh.write("# id: %s\n" % rec.id)
            fh.write(tm.format_actions(actions))
    n = len(aligned)
    if lengths:
        print("oracle actions: n=%d mean=%.1f max=%d" %
              (len(lengths), statistics.fmean(lengths), max(lengths)))
    # round down, so only a run without failures reports 100%
    print("round-trip %d%%" % (100 * (n - failures) // n if n else 0))
    return 0 if failures == 0 else 1


def cmd_replay(args):
    records = {r.id: r for r in ingest(args.corpus)}
    machine = tm.Machine()
    with open(args.actions) as fh:
        seqs = tm.parse_action_file(fh.read())
    with _out(args.output) as fh:
        for rid, actions in seqs:
            if rid not in records:
                raise CorpusError("action file id %r is not in the corpus" % rid)
            rec = records[rid]
            final = machine.replay(rec.sentence, actions)
            frags = machine.extract_result(final)
            fh.write("# id: %s fragments: %d\n" % (rid, len(frags)))
            for g in frags:
                fh.write(render_sexpr(graph_to_tree(g, strict=False)) + "\n")
            fh.write("\n")
    return 0


def cmd_train(args):
    items = [(rec.sentence, rec.deps, actions) for rec, actions
             in _oracle_items(ingest(args.corpus), args.promote_syms, args.cap)]
    model, machine = dec.train_perceptron(items, epochs=args.epochs, seed=args.seed)
    with open(args.model, "w") as fh:
        fh.write(model.to_json() + "\n")
    print("trained on %d sentences, %d actions, %d updates" %
          (len(items), sum(len(a) for _, _, a in items), model.updates))
    return 0


def cmd_parse(args):
    if args.scorer == "perceptron" and not args.model:
        raise CorpusError("the perceptron scorer needs --model")
    records = ingest(args.corpus)
    lexicon = Lexicon.load(args.lexicon) if args.lexicon else None
    grammar = None
    if args.types:
        grammar = (TypeGrammar.load(args.grammar) if args.grammar
                   else TypeGrammar.default())
    model = None
    if args.model:
        with open(args.model) as fh:
            model = dec.PerceptronModel.from_json(fh.read())
    oracle_actions = None
    if args.scorer == "oracle":
        # replay mode needs gold graphs; the machine vocab comes from them
        items = _oracle_items(records, args.promote_syms)
        machine = dec.machine_from_actions([a for _, a in items])
        oracle_actions = {rec.id: a for rec, a in items}
    elif model is not None and model.vocab:
        machine = model.make_machine()
    elif args.train_corpus:
        items = _oracle_items(ingest(args.train_corpus), args.promote_syms)
        machine = dec.machine_from_actions([a for _, a in items])
    else:
        raise CorpusError(
            "decode vocabularies unavailable: supply --model or --train-corpus")
    machine.step_cap = args.cap
    external = (dec.ExternalScorer(args.external_cmd.split())
                if args.scorer == "external" else None)

    results = []
    try:
        for rec in records:
            scorer = _scorer_for(
                args.scorer, model,
                oracle_actions[rec.id] if oracle_actions else None,
                args.seed, external)
            results.append(dec.beam_decode(
                rec.sentence, scorer, machine, beam_size=args.beam,
                lexicon=lexicon, grammar=grammar, cap=args.cap, dep=rec.deps))
    finally:
        if external is not None:
            external.close()
    with _out(args.output) as fh:
        for rec, result in zip(records, results):
            fh.write("# id: %s fragments: %d score: %.4f\n"
                     % (rec.id, len(result.fragments), result.score))
            for g in result.fragments:
                fh.write(render_sexpr(graph_to_tree(g, strict=False)) + "\n")
            fh.write("\n")
    return 0


def cmd_eval(args):
    cands = _read_parse_file(args.candidate)
    golds = _read_graph_file(args.gold, args.format)
    if len(cands) != len(golds):
        raise CorpusError("candidate/gold length mismatch: %d vs %d"
                          % (len(cands), len(golds)))
    pairs = []
    for cand, gold in zip(cands, golds):
        if args.largest_fragment and len(cand) > 1:
            cand = [max(cand, key=lambda g: len(g.vertices))]
        pairs.append((cand, gold))
    report = metrics.corpus_eval(pairs, k=args.k, restarts=args.restarts,
                                 seed=args.seed)
    agg = report.aggregate
    if args.metric in ("sembleu", "both"):
        print("SemBLEU: %.4f" % agg["sembleu"])
    if args.metric in ("elsmatch", "both"):
        print("EL-Smatch F1: %.4f P: %.4f R: %.4f"
              % (agg["elsmatch_f1"], agg["elsmatch_p"], agg["elsmatch_r"]))
    print("fragments/sentence: %.2f" % agg["fragments"])
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() if args.report.endswith(".json")
                     else report.to_tsv())
    return 0


def _read_parse_file(path):
    """Read parser output: '# id ...' blocks, each with >= 0 fragments."""
    with open(path) as fh:
        text = fh.read()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    out = []
    for block in blocks:
        frags = []
        for line in block.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            frags.append(tree_to_graph(parse_sexpr(line)))
        out.append(frags)
    return out


def cmd_split(args):
    records = ingest(args.corpus)
    train, devs, test = split_round_robin(records, chunk=args.chunk)
    for name, chunk_records in (("train", train), ("dev", devs), ("test", test)):
        path = "%s.%s.jsonl" % (args.prefix, name)
        with open(path, "w") as fh:
            for rec in chunk_records:
                fh.write(rec.to_json() + "\n")
        print("%s: %d records -> %s" % (name, len(chunk_records), path))
    return 0


def cmd_stats(args):
    records = ingest(args.corpus)
    lens = [len(r.sentence) for r in records]
    print("sentences: %d" % len(records))
    print("length mean=%.3f median=%s min=%d max=%d"
          % (statistics.fmean(lens), statistics.median(lens), min(lens), max(lens)))
    if args.oracle:
        lengths = [len(actions) for _, actions
                   in _oracle_items(records, args.promote_syms, args.cap)]
        print("oracle actions mean=%.1f median=%s min=%d max=%d"
              % (statistics.fmean(lengths), statistics.median(lengths),
                 min(lengths), max(lengths)))
    return 0


class _out:
    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.fh = open(self.path, "w") if self.path else sys.stdout
        return self.fh

    def __exit__(self, *exc):
        if self.path:
            self.fh.close()


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p, cap=tm.DEFAULT_STEP_CAP, promote=True, seed=False):
    if cap is not None:
        p.add_argument("--cap", type=int, default=cap,
                       help="maximum action length (default: %(default)s)")
    if promote:
        p.add_argument("--promote-syms", nargs="*",
                       default=list(oracle.DEFAULT_PROMOTE_SYMBOLS),
                       help="promotion operator vocabulary")
    if seed:
        p.add_argument("--seed", type=int, default=0)


class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting so that `main`
    can tell a rejected config value from a bad command line."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser():
    ap = _ArgumentParser(
        prog="ulfparse",
        description="Transition-based semantic parser for ULF")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices  # subcommand name -> its parser

    p = sub.add_parser("convert", help="convert between ULF and penman")
    p.add_argument("input")
    p.add_argument("--source", choices=["ulf", "penman"], default="ulf")
    p.add_argument("--to", choices=["ulf", "penman"], default="penman")
    p.add_argument("--plain-names", action="store_true",
                   help="strip pipes and underscore-join name labels "
                        "(export preprocessing for external pipelines)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("align", help="dump word/atom alignments")
    p.add_argument("corpus")
    p.add_argument("-o", "--output")
    _add_common(p, cap=None)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("oracle", help="extract gold action sequences")
    p.add_argument("corpus")
    p.add_argument("-o", "--output")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("replay", help="replay action sequences into graphs")
    p.add_argument("corpus")
    p.add_argument("actions")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("train", help="train the perceptron scorer")
    p.add_argument("corpus")
    p.add_argument("model")
    p.add_argument("--epochs", type=int, default=5)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="beam-decode sentences")
    p.add_argument("corpus")
    p.add_argument("-o", "--output")
    p.add_argument("--model", help="perceptron model file")
    p.add_argument("--scorer",
                   choices=["perceptron", "oracle", "random", "external"],
                   default="perceptron")
    p.add_argument("--external-cmd",
                   help="scorer subprocess command (--scorer external)")
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--lexicon", help="TSV lexicon file enabling the lexicon constraint")
    p.add_argument("--types", action="store_true",
                   help="enable the type-composition constraint")
    p.add_argument("--grammar", help="type grammar file (default: bundled)")
    p.add_argument("--train-corpus",
                   help="gold corpus whose oracle sequences supply the decode "
                        "vocabularies when --model gives none")
    _add_common(p, cap=tm.DEFAULT_DECODE_CAP, seed=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score candidate parses against gold")
    p.add_argument("metric", choices=["sembleu", "elsmatch", "both"])
    p.add_argument("candidate", help="parse output file")
    p.add_argument("gold", help="gold graphs (ULF or penman)")
    p.add_argument("--format", choices=["ulf", "penman"], default="ulf")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--largest-fragment", action="store_true")
    p.add_argument("--report", help="write the full report (.json or .tsv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("split", help="round-robin corpus split")
    p.add_argument("corpus")
    p.add_argument("prefix")
    p.add_argument("--chunk", type=int, default=10)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("corpus")
    p.add_argument("--oracle", action="store_true",
                   help="also compute oracle action-length statistics")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return ap


def _apply_config(argv, parser):
    """Expand `--config FILE` into leading `--key=value` flags: the file
    holds `key = value` lines naming long options (e.g. `beam = 10`),
    which explicit command-line flags override.  A list option's value is
    split on whitespace (`promote-syms = pres plur`) and becomes the
    subcommand's default instead, since as a flag it would also take the
    positional after it for an item.  Returns the new argv and {flag: key}
    for the flags the file added."""
    argv = list(argv)
    if "--config" not in argv:
        return argv, {}
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise CorpusError("--config needs a file")
    path = argv[i + 1]
    del argv[i : i + 2]
    command = parser.commands.get(next((a for a in argv if not a.startswith("-")), None))
    flags = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq or not key.strip():
                raise CorpusError("%s line %d: expected 'key = value', got %r"
                                  % (path, lineno, line))
            key, value = key.strip(), value.strip()
            dest = key.replace("-", "_")
            if command is not None and "_" not in key \
                    and isinstance(command.get_default(dest), list):
                command.set_defaults(**{dest: value.split()})
                continue
            # one token each, so a flag never takes a positional as its value
            flags["--%s=%s" % (key, value)] = key
    # insert defaults right after the subcommand so later flags win
    for j, a in enumerate(argv):
        if not a.startswith("-"):
            return argv[: j + 1] + list(flags) + argv[j + 1 :], flags
    return argv + list(flags), flags


def _blame_config(parser, argv, config_flags):
    """After a usage error: if the command line parses without the config
    file's flags, raise CorpusError naming the first config key whose
    value the parser rejects."""
    cmdline = [a for a in argv if a not in config_flags]
    parser.parse_known_args(cmdline)  # a bad command line raises its own
    for flag, key in config_flags.items():
        try:
            parser.parse_known_args(cmdline + [flag])
        except _UsageError as e:
            raise CorpusError("config key %r: %s" % (key, e)) from None


def main(argv=None):
    try:
        parser = build_parser()
        argv, config_flags = _apply_config(
            argv if argv is not None else sys.argv[1:], parser)
        try:
            args, extra = parser.parse_known_args(argv)
        except _UsageError:
            _blame_config(parser, argv, config_flags)
            raise
        for flag in extra:
            if flag in config_flags:
                raise CorpusError("config key %r is not an option of %s"
                                  % (config_flags[flag], args.command))
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
        return args.func(args)
    except _UsageError as e:
        # command-line usage errors keep argparse's usage block and exit 2
        argparse.ArgumentParser.error(e.parser, str(e))
    except (CorpusError, oracle.OracleError, ValueError, OSError,
            dec.ExternalScorerError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except RecursionError as e:
        # tree_to_graph, graph_to_tree and render_sexpr recurse once per level
        print("error: input nested too deeply: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
