import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ulfparse import cli
from ulfparse import machine as tm
from ulfparse.cli import (
    CorpusError,
    ingest,
    load_mini_corpus,
    mini_corpus_path,
    record_from_obj,
    split_round_robin,
)


@pytest.fixture()
def mini_file(tmp_path):
    p = tmp_path / "mini.jsonl"
    p.write_text(mini_corpus_path().read_text())
    return str(p)


@pytest.fixture()
def tiny_file(tmp_path):
    """First five mini-corpus records, to keep command tests fast."""
    lines = mini_corpus_path().read_text().splitlines()[:5]
    p = tmp_path / "tiny.jsonl"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


# -- ingestion ------------------------------------------------------------------

def test_ingest_mini_corpus(mini_file):
    records = ingest(mini_file)
    assert len(records) == 25
    assert records[0].id == "mc-001"
    assert records[0].gold_graph is not None


def test_ingest_missing_lemmas(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"id": "x", "tokens": ["a"], "pos": ["X"]}) + "\n")
    with pytest.raises(CorpusError, match="line 1.*lemmas"):
        ingest(str(p))


def test_ingest_length_mismatch(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"id": "x", "tokens": ["a", "b"],
                             "lemmas": ["a"], "pos": ["X", "X"]}) + "\n")
    with pytest.raises(CorpusError, match="length"):
        ingest(str(p))


def test_ingest_malformed_json(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("{not json\n")
    with pytest.raises(CorpusError, match="line 1"):
        ingest(str(p))


def test_ingest_bad_gold_ulf(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"id": "x", "tokens": ["a"], "lemmas": ["a"],
                             "pos": ["X"], "ulf": "(a.d (b.n"}) + "\n")
    with pytest.raises(CorpusError, match="ULF"):
        ingest(str(p))


@pytest.mark.parametrize("line, named", [
    ("5", "JSON object"), ("[1]", "JSON object"),
    ('{"id": "x", "tokens": [5], "lemmas": ["a"], "pos": ["X"]}', "'tokens'"),
    ('{"id": "x", "tokens": "ab", "lemmas": ["a"], "pos": ["X"]}', "'tokens'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": 1, "pos": ["X"]}', "'lemmas'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": [null]}', "'pos'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], "ner": null}',
     "'ner'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], "deps": 3}',
     "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], "deps": [5]}',
     "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[null, "root"]]}', "'deps'"),
    # a head or label of another type is refused, not coerced
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[1.5, "root"]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[true, "root"]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [["1", "root"]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[0, 5]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[0, null]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[0, "root", "x"]]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [{"0": "root"}]}', "'deps'"),
    ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"],'
     ' "deps": [[2, "root"]]}', "head 2 out of range"),
    ('{"id": "x", "tokens": [""], "lemmas": ["a"], "pos": ["X"]}',
     "token surface must be nonempty")])
def test_ingest_malformed_record_names_the_field(tmp_path, line, named):
    p = tmp_path / "bad.jsonl"
    p.write_text(line + "\n")
    with pytest.raises(CorpusError, match="line 1: .*%s" % named):
        ingest(str(p))


@pytest.mark.parametrize("field", ["tokens", "lemmas"])
@pytest.mark.parametrize("word", ["T|m", "|", "a b", "T\nm", "a\tb", "a\u00a0b"])
def test_word_that_breaks_a_symbol_is_refused(tmp_path, tiny_file, capsys, field, word):
    # the symbol a token or lemma becomes would not read back as one atom
    from ulfparse.core import Atom, UlfSyntaxError, parse_sexpr
    atom = Atom(word.lower(), "suffixed", "n")
    with pytest.raises(UlfSyntaxError):
        parse_sexpr(atom.render())
    rows = [json.loads(line) for line in open(tiny_file)]
    rows[2][field][0] = word
    path = tmp_path / "words.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run(["train", str(path), str(tmp_path / "m.json"), "--epochs", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 3: %s %r holds whitespace or '|'" % (field[:-1], word)]


def test_record_annotations_are_interned():
    obj = {"id": "x", "tokens": ["Dogs", "run"], "lemmas": ["dog", "run"],
           "pos": ["NNS", "VBP"], "ner": ["O", "O"], "deps": [[2, "nsubj"], [0, "root"]]}
    a, b = record_from_obj(json.loads(json.dumps(obj))), record_from_obj(obj)
    for ta, tb in zip(a.sentence.tokens, b.sentence.tokens):
        for name in ("surface", "lemma", "pos", "ner"):
            assert getattr(ta, name) is getattr(tb, name)
    assert all(x[1] is y[1] for x, y in zip(a.deps, b.deps))
    assert not hasattr(a.sentence.tokens[0], "__dict__")


def test_record_without_gold_is_fine():
    rec = record_from_obj({"id": "x", "tokens": ["a"], "lemmas": ["a"],
                           "pos": ["X"]})
    assert rec.ulf is None and rec.gold_graph is None


def test_record_json_roundtrip():
    rec = load_mini_corpus()[0]
    again = record_from_obj(json.loads(rec.to_json()))
    assert again.id == rec.id and again.ulf == rec.ulf
    assert again.sentence == rec.sentence


# -- round-robin split ------------------------------------------------------------

def _dummy(n):
    return list(range(n))


def test_split_100():
    train, dev, test = split_round_robin(_dummy(100))
    assert (len(train), len(dev), len(test)) == (80, 10, 10)


def test_split_1738():
    train, dev, test = split_round_robin(_dummy(1738))
    assert (len(train), len(dev), len(test)) == (1378, 180, 180)


def test_split_5_partial_first_round():
    train, dev, test = split_round_robin(_dummy(5))
    assert (len(train), len(dev), len(test)) == (5, 0, 0)


def test_split_deterministic_and_partition():
    records = _dummy(137)
    a = split_round_robin(records)
    b = split_round_robin(records)
    assert a == b
    train, dev, test = a
    assert sorted(train + dev + test) == records


def test_split_chunk_validation():
    with pytest.raises(ValueError):
        split_round_robin(_dummy(5), chunk=0)


# -- commands ----------------------------------------------------------------------

def run(argv):
    return cli.main(argv)


def test_convert_roundtrip(tmp_path, tiny_file):
    ulfs = tmp_path / "golds.ulf"
    recs = ingest(tiny_file)
    ulfs.write_text("\n".join(r.ulf for r in recs) + "\n")
    pen = tmp_path / "out.penman"
    assert run(["convert", str(ulfs), "--to", "penman", "-o", str(pen)]) == 0
    back = tmp_path / "back.ulf"
    assert run(["convert", str(pen), "--source", "penman", "--to", "ulf",
                "-o", str(back)]) == 0
    # canonical: single-child applications collapse through the graph
    from ulfparse.core import graph_to_tree, parse_sexpr, render_sexpr, tree_to_graph
    orig = [render_sexpr(graph_to_tree(tree_to_graph(parse_sexpr(r.ulf))))
            for r in recs]
    assert back.read_text().splitlines() == orig


def test_align_command(tmp_path, tiny_file):
    out = tmp_path / "align.jsonl"
    assert run(["align", tiny_file, "-o", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 5
    assert rows[0]["id"] == "mc-001"
    assert [1, 0] in rows[0]["pairs"]
    assert "spans" in rows[0] and "tokens" in rows[0]


def test_oracle_verify_roundtrip(tmp_path, mini_file, capsys):
    out = tmp_path / "actions.txt"
    code = run(["oracle", mini_file, "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "round-trip 100%" in captured.out
    text = out.read_text()
    assert text.count("# id:") == 25


def test_oracle_summary_rounds_failures_down(tmp_path, mini_file, capsys):
    # most mini-corpus sequences are longer than 30 actions
    out = tmp_path / "actions.txt"
    code = run(["oracle", mini_file, "--cap", "30", "-o", str(out)])
    summary = capsys.readouterr().out.splitlines()[-1]
    assert code == 1
    assert summary.startswith("round-trip ")
    assert summary != "round-trip 100%"


def test_oracle_and_decode_caps_differ(tmp_path, capsys):
    # oracle, train and stats bound gold sequences by the oracle's cap, so a
    # record of 898 gold actions extracts; parse decodes at 800 by default
    words = ["w%d" % i for i in range(90)]
    row = {"id": "long", "tokens": words, "lemmas": words, "pos": ["NN"] * 90,
           "ulf": "(and.cc %s)" % " ".join(w + ".n" for w in words[1:])}
    corpus = tmp_path / "long.jsonl"
    corpus.write_text(json.dumps(row) + "\n")
    assert run(["oracle", str(corpus), "-o", str(tmp_path / "actions.txt")]) == 0
    assert "max=898" in capsys.readouterr().out
    parser = cli.build_parser()
    for command in ("oracle", "train", "stats", "parse"):
        argv = [command, str(corpus)] + (["model.json"] if command == "train" else [])
        want = 800 if command == "parse" else tm.DEFAULT_STEP_CAP
        assert parser.parse_args(argv).cap == want, command


def test_parse_with_the_perceptron_scorer_needs_a_model(tmp_path, tiny_file, capsys):
    code = run(["parse", tiny_file, "--train-corpus", tiny_file,
                "-o", str(tmp_path / "parsed.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["error: the perceptron scorer needs --model"]


# SHA-256 of the mini-corpus model (train --epochs 3 --seed 7), of its
# beam-3 parse and of the JSON and TSV `eval both` reports of that parse;
# decoding, scoring and metric changes must leave all four as they are
MINI_MODEL_SHA256 = \
    "bdc4fad0984c560b8f832ba42a92d3dd1d7718931858f3c88ee72b1b09422d99"
MINI_PARSE_SHA256 = \
    "980b7d09dc7751c641fd79c1f9875cf534b938744737f8ac387f405fa80dd974"
MINI_REPORT_JSON_SHA256 = \
    "2fa07f1c5369ab5d6df393c4582dd106ecaef3eb6058bcd4be2fbd3281042519"
MINI_REPORT_TSV_SHA256 = \
    "31893524c1a237200ba5da3d1a6e92d4633cb0456ded030293c2b8c1df6df007"


def test_mini_corpus_model_and_parse_are_unchanged(tmp_path, mini_file):
    import hashlib

    model = tmp_path / "model.json"
    parsed = tmp_path / "parsed.txt"
    assert run(["train", mini_file, str(model), "--epochs", "3",
                "--seed", "7"]) == 0
    assert run(["parse", mini_file, "--model", str(model), "--beam", "3",
                "--seed", "7", "-o", str(parsed)]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == MINI_MODEL_SHA256
    assert hashlib.sha256(parsed.read_bytes()).hexdigest() == MINI_PARSE_SHA256
    golds = tmp_path / "golds.ulf"
    golds.write_text("\n".join(r.ulf for r in ingest(mini_file)) + "\n")
    for name, want in (("report.json", MINI_REPORT_JSON_SHA256),
                       ("report.tsv", MINI_REPORT_TSV_SHA256)):
        report = tmp_path / name
        assert run(["eval", "both", str(parsed), str(golds),
                    "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want


def test_replay_command(tmp_path, tiny_file):
    actions = tmp_path / "actions.txt"
    assert run(["oracle", tiny_file, "-o", str(actions)]) == 0
    out = tmp_path / "replayed.txt"
    assert run(["replay", tiny_file, str(actions), "-o", str(out)]) == 0
    body = out.read_text()
    assert "# id: mc-001 fragments: 1" in body
    assert "(i.pro (pres run.v))" in body


def test_replay_has_no_cap_option(tmp_path, tiny_file, capsys):
    actions = tmp_path / "actions.txt"
    assert run(["oracle", tiny_file, "-o", str(actions)]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["replay", tiny_file, str(actions), "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_train_parse_eval_pipeline(tmp_path, tiny_file):
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "3",
                "--seed", "0"]) == 0
    parsed = tmp_path / "parsed.txt"
    assert run(["parse", tiny_file, "--model", str(model), "--beam", "2",
                "-o", str(parsed), "--seed", "0"]) == 0
    golds = tmp_path / "golds.ulf"
    golds.write_text("\n".join(r.ulf for r in ingest(tiny_file)) + "\n")
    report = tmp_path / "report.json"
    assert run(["eval", "both", str(parsed), str(golds),
                "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert len(obj["rows"]) == 5
    assert 0.0 <= obj["aggregate"]["sembleu"] <= 1.0


def test_parse_oracle_scorer_equals_gold(tmp_path, tiny_file, capsys):
    parsed = tmp_path / "parsed.txt"
    assert run(["parse", tiny_file, "--scorer", "oracle", "--beam", "1",
                "-o", str(parsed)]) == 0
    golds = tmp_path / "golds.ulf"
    golds.write_text("\n".join(r.ulf for r in ingest(tiny_file)) + "\n")
    assert run(["eval", "sembleu", str(parsed), str(golds)]) == 0
    out = capsys.readouterr().out
    assert "SemBLEU: 1.0000" in out


def test_eval_identical_files(tmp_path, tiny_file, capsys):
    golds = tmp_path / "golds.ulf"
    golds.write_text("\n\n".join(r.ulf for r in ingest(tiny_file)) + "\n")
    assert run(["eval", "both", str(golds), str(golds)]) == 0
    out = capsys.readouterr().out
    assert "SemBLEU: 1.0000" in out
    assert "EL-Smatch F1: 1.0000" in out


def test_eval_length_mismatch(tmp_path, tiny_file, capsys):
    golds = tmp_path / "golds.ulf"
    golds.write_text("\n\n".join(r.ulf for r in ingest(tiny_file)) + "\n")
    short = tmp_path / "short.ulf"
    short.write_text(ingest(tiny_file)[0].ulf + "\n")
    assert run(["eval", "both", str(short), str(golds)]) == 1


def test_split_command(tmp_path, mini_file):
    prefix = str(tmp_path / "split")
    assert run(["split", mini_file, prefix]) == 0
    train = ingest(prefix + ".train.jsonl")
    dev = ingest(prefix + ".dev.jsonl")
    test = ingest(prefix + ".test.jsonl")
    assert (len(train), len(dev), len(test)) == (10, 10, 5)


def test_stats_command(mini_file, capsys):
    assert run(["stats", mini_file]) == 0
    out = capsys.readouterr().out
    assert "sentences: 25" in out
    assert "length mean=" in out


def test_config_file_defaults_with_flag_override(tmp_path, tiny_file, monkeypatch):
    cfg = tmp_path / "run.conf"
    cfg.write_text("beam = 2\nseed = 7\n")
    parsed = tmp_path / "p.txt"
    # config supplies beam/seed; the explicit --beam overrides the config
    assert run(["parse", tiny_file, "--config", str(cfg), "--scorer", "oracle",
                "--beam", "1", "-o", str(parsed)]) == 0
    assert parsed.exists()


def test_config_list_option_takes_every_item(tmp_path, tiny_file):
    cfg = tmp_path / "run.conf"
    cfg.write_text("promote-syms = pres plur\ncap = 500\n")

    def parsed(argv):
        parser = cli.build_parser()
        args, extra = parser.parse_known_args(cli._apply_config(argv, parser)[0])
        assert extra == []
        return args

    # the items do not run together, and the positional stays the corpus
    args = parsed(["stats", tiny_file, "--config", str(cfg)])
    assert args.promote_syms == ["pres", "plur"]
    assert args.corpus == tiny_file and args.cap == 500
    args = parsed(["stats", "--config", str(cfg), tiny_file])
    assert args.promote_syms == ["pres", "plur"] and args.corpus == tiny_file
    # the command line still overrides the file
    args = parsed(["stats", tiny_file, "--config", str(cfg), "--promote-syms", "k"])
    assert args.promote_syms == ["k"]
    assert run(["stats", tiny_file, "--oracle", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("case",["unknown_replay_id", "config_without_file",
                                  "missing_corpus", "missing_config",
                                  "missing_candidate", "oracle_without_gold",
                                  "config_line_without_equals",
                                  "config_key_not_an_option",
                                  "config_with_positional",
                                  "config_flag_with_value",
                                  "config_value_not_an_int",
                                  "eval_k_zero", "eval_negative_restarts",
                                  "gold_with_empty_list", "gold_nested_too_deeply"])
def test_malformed_input_ends_in_one_error_line(tmp_path, tiny_file, capsys, case):
    missing = str(tmp_path / "absent")
    golds = tmp_path / "golds.ulf"
    golds.write_text(ingest(tiny_file)[0].ulf + "\n")
    actions = tmp_path / "actions.txt"
    actions.write_text("# id: no-such-id\nWORDGEN\n")
    rows = [json.loads(l) for l in open(tiny_file)][:2]
    del rows[1]["ulf"]
    no_gold = tmp_path / "no_gold.jsonl"
    no_gold.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    empty_list = tmp_path / "empty_list.jsonl"
    empty_list.write_text(json.dumps(dict(rows[0], ulf="(i.pro (run.v ()))")) + "\n")
    deep = tmp_path / "deep.ulf"
    deep.write_text("(" * 1200 + "run.v" + ")" * 1200 + "\n")
    configs = {}
    for name, text in (("bare", "beam\n"), ("unknown", "colour = red\n"),
                       ("beam", "beam = 10\n"), ("types", "types = true\n"),
                       ("k", "k = x\n")):
        configs[name] = tmp_path / (name + ".conf")
        configs[name].write_text(text)
    argv, named = {
        "unknown_replay_id": (["replay", tiny_file, str(actions)], "no-such-id"),
        "config_without_file": (["stats", tiny_file, "--config"], "--config"),
        "missing_corpus": (["stats", missing], "absent"),
        "missing_config": (["stats", tiny_file, "--config", missing], "absent"),
        "missing_candidate": (["eval", "both", missing, str(golds)], "absent"),
        "oracle_without_gold": (["oracle", str(no_gold)], "mc-002 has no gold"),
        "config_line_without_equals": (
            ["parse", tiny_file, "--config", str(configs["bare"])], "'beam'"),
        "config_key_not_an_option": (
            ["parse", tiny_file, "--config", str(configs["unknown"])], "'colour'"),
        # the config's flags must not take the corpus path for a value
        "config_with_positional": (
            ["stats", tiny_file, "--config", str(configs["beam"])], "'beam'"),
        # values argparse rejects: a value for a flag that takes none, a bad int
        "config_flag_with_value": (
            ["parse", tiny_file, "--config", str(configs["types"])], "'types'"),
        "config_value_not_an_int": (
            ["eval", "both", str(golds), str(golds), "--config",
             str(configs["k"])], "'k'"),
        "eval_k_zero": (["eval", "both", str(golds), str(golds), "--k", "0"],
                        "k must be"),
        "eval_negative_restarts": (
            ["eval", "both", str(golds), str(golds), "--restarts", "-1"],
            "restarts must be"),
        "gold_with_empty_list": (["oracle", str(empty_list)],
                                 "line 1: unparseable gold ULF: empty list"),
        "gold_nested_too_deeply": (["eval", "both", str(golds), str(deep)],
                                   "nested too deeply"),
    }[case]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert named in err[0]


# -- replay fuzzing -------------------------------------------------------------

FUZZ_IDS = ("mc-001", "mc-002", "mc-003")
FUZZ_KINDS = ("PUSHIDX", "ARC", "SUFFIX", "SYMGEN", "MERGEBUF", "PROMOTE_SYM",
              "PROMOTE_ARC", "NOARC", "NOPROMOTE", "POP", "NOPOP", "SKIP",
              "WORDGEN", "NAME", "LEMMA", "TOKEN", "", "arc", "GEN", "#")
FUZZ_PARAMS = ("0", "1", "2", "left", "right", ":ARG0", "", "*", "x.pro",
               "|x", "|A B|", "(", ".", "-1", "pres")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A three-record corpus, and the gold action sequence of each record."""
    from ulfparse.oracle import extract_with_alignment
    recs = [r for r in load_mini_corpus() if r.id in FUZZ_IDS]
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.jsonl"
    corpus.write_text("\n".join(
        line for line in mini_corpus_path().read_text().splitlines()
        if json.loads(line)["id"] in FUZZ_IDS) + "\n")
    gold = {r.id: extract_with_alignment(r.sentence, r.gold_graph)[0] for r in recs}
    return root, str(corpus), gold


_fuzz_action = st.builds(
    lambda kind, parts: kind + "".join(sep + p for sep, p in parts),
    st.sampled_from(FUZZ_KINDS),
    st.lists(st.tuples(st.sampled_from((":", "::", "")),
                       st.sampled_from(FUZZ_PARAMS)), max_size=3))
# (operation, position, action): positions are taken modulo the length
_fuzz_edit = st.tuples(st.sampled_from(("drop", "insert", "replace", "swap",
                                        "truncate")),
                       st.integers(0, 1 << 16), _fuzz_action)


def _mutated(actions, edits):
    actions = list(actions)
    for op, pos, action in edits:
        i = pos % (len(actions) + 1)
        if op == "insert":
            actions.insert(i, action)
        elif op == "truncate":
            del actions[i:]
        elif i < len(actions):
            if op == "drop":
                del actions[i]
            elif op == "replace":
                actions[i] = action
            elif i + 1 < len(actions):
                actions[i], actions[i + 1] = actions[i + 1], actions[i]
    return actions


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_IDS + ("no-such-id",)),
                          st.booleans(),
                          st.lists(_fuzz_edit, max_size=4),
                          st.lists(_fuzz_action, max_size=6)),
                min_size=1, max_size=3))
def test_replay_of_generated_action_files_ends_cleanly(fuzz_files, records):
    # a mutated legal walk, or random actions, under each header: replay
    # ends with exit 0 and no message, or exit 1 and one error: line
    root, corpus, gold = fuzz_files
    blocks = []
    for rid, walk, edits, randoms in records:
        actions = _mutated(gold.get(rid, ()), edits) if walk else randoms
        blocks.append("# id: %s\n%s" % (rid, tm.format_actions(actions)))
    action_file = root / "actions.txt"
    action_file.write_text("".join(blocks))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["replay", corpus, str(action_file), "-o",
                    str(root / "replayed.txt")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- corpus-line fuzzing --------------------------------------------------------

# what an edit inserts into a gold ULF: a paren, a lone pipe, an empty list
# or a comment, which runs to the end of the line or of the ULF
FUZZ_ULF_INSERTS = ("(", ")", "|", "()", "; note", "; note\n")
FUZZ_NESTING = 1200

# (operation, position, inserted text): positions are taken modulo the length
_fuzz_ulf_edit = st.tuples(st.sampled_from(("drop paren", "insert", "nest")),
                           st.integers(0, 1 << 16), st.sampled_from(FUZZ_ULF_INSERTS))


def _mutated_ulf(ulf, edits):
    for op, pos, text in edits:
        if op == "drop paren":
            parens = [i for i, c in enumerate(ulf) if c in "()"]
            if parens:
                i = parens[pos % len(parens)]
                ulf = ulf[:i] + ulf[i + 1:]
        elif op == "insert":
            i = pos % (len(ulf) + 1)
            ulf = ulf[:i] + text + ulf[i:]
        else:
            ulf = "(" * FUZZ_NESTING + ulf + ")" * FUZZ_NESTING
    return ulf


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_fuzz_ulf_edit, max_size=3), min_size=len(FUZZ_IDS),
                max_size=len(FUZZ_IDS)))
def test_oracle_on_generated_corpus_lines_ends_cleanly(fuzz_files, edits):
    # each record's gold ULF with parens dropped or added, a lone pipe, an
    # empty list, a comment or deep nesting: oracle ends with exit 0 and
    # no message, or exit 1 and one error: line
    root, corpus, _ = fuzz_files
    with open(corpus) as fh:
        rows = [json.loads(line) for line in fh]
    for row, record_edits in zip(rows, edits):
        row["ulf"] = _mutated_ulf(row["ulf"], record_edits)
    mutated = root / "mutated.jsonl"
    mutated.write_text("".join(json.dumps(row) + "\n" for row in rows))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["oracle", str(mutated), "-o", str(root / "oracle.txt")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- corpus-field fuzzing -------------------------------------------------------

FUZZ_FIELDS = ("tokens", "lemmas", "pos", "ner", "deps")
# what a replacement puts in place of a word or a dependency label: an empty
# string, a non-string, or text holding a delimiter of some file format
FUZZ_WORDS = ("", 5, None, 1.5, ["x"], {"x": 1}, "a b", "a|b", "|", "(", ")",
              "x=y", "a&b", "a\nb", "\n")
# what a head edit puts in place of a dependency head
FUZZ_HEADS = (-1, 0, 1, 99, 1.5, 2.0, "1", "x", "", None, True, [1])

# (field, operation, position, word, head): positions are taken modulo
# the length
_fuzz_field_edit = st.tuples(st.sampled_from(FUZZ_FIELDS),
                             st.sampled_from(("replace", "drop", "repeat", "head")),
                             st.integers(0, 1 << 16), st.sampled_from(FUZZ_WORDS),
                             st.sampled_from(FUZZ_HEADS))


def _mutated_fields(row, edits):
    for field, op, pos, word, head in edits:
        entries = row.get(field)
        if not isinstance(entries, list) or not entries:
            continue
        i = pos % len(entries)
        if op == "drop":
            del entries[i]
        elif op == "repeat":
            entries.insert(i, entries[i])
        elif field != "deps":
            entries[i] = word
        elif op == "replace":
            entries[i] = [entries[i][0], word]
        else:
            entries[i] = [head, entries[i][1]]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_fuzz_field_edit, max_size=3), min_size=len(FUZZ_IDS),
                max_size=len(FUZZ_IDS)))
def test_train_and_parse_on_generated_corpus_fields_end_cleanly(fuzz_files, edits):
    # each record's words, tags and dependencies replaced, dropped or
    # repeated: train ends with exit 0 and no message, or exit 1 and one
    # error: line, and so does parse with the model it wrote; train refuses
    # a corpus whose tokens or lemmas hold whitespace or '|'
    root, corpus, _ = fuzz_files
    with open(corpus) as fh:
        rows = [json.loads(line) for line in fh]
    for row, record_edits in zip(rows, edits):
        _mutated_fields(row, record_edits)
    breaks_symbol = any(isinstance(w, str) and re.search(r"[\s|]", w)
                        for row in rows for w in row["tokens"] + row["lemmas"])
    mutated = root / "fields.jsonl"
    mutated.write_text("".join(json.dumps(row) + "\n" for row in rows))
    model = root / "fields-model.json"
    for argv in (["train", str(mutated), str(model), "--epochs", "1"],
                 ["parse", str(mutated), "--model", str(model), "--beam", "1",
                  "--cap", "60", "-o", str(root / "fields-parsed.txt")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        lines = err.getvalue().splitlines()
        if code != 0:
            assert code == 1
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            break
        assert lines == [] and not breaks_symbol


# -- model fuzzing --------------------------------------------------------------

# what a mutation puts in place of a field, a vocabulary entry or a weight
FUZZ_VALUES = (None, True, 0, -1, 1, 7, 1 << 40, 10 ** 400, 0.5, float("nan"),
               float("inf"), "", "x", "1,0", [], [1], ["x"], ["x", "x"], {},
               {"a": 1}, {"1,0": 1.0})
FUZZ_KEYS = ("format", "dim", "salt", "averaged", "actions", "vocab", "weights",
             "extra")


@pytest.fixture(scope="module")
def fuzz_model(fuzz_files):
    """A one-epoch model of the fuzz corpus as a JSON object, and a corpus
    of its first sentence to parse with it."""
    root, corpus, _ = fuzz_files
    model = root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["train", corpus, str(model), "--epochs", "1"]) == 0
    one = root / "one.jsonl"
    one.write_text(open(corpus).readline())
    return json.loads(model.read_text()), str(one)


_fuzz_model_edit = st.tuples(
    st.sampled_from(("field", "vocab", "weight", "new weight", "drop")),
    st.sampled_from(FUZZ_KEYS + ("arc_labels", "symgen")),
    st.integers(0, 1 << 16), st.sampled_from(FUZZ_VALUES),
    st.sampled_from(("0,0", "1,0", "0,1", "-1,0", "0,-1", "5", "a,b", "1,2,3",
                     "262143,0", "262144,0", "0,999", " 1,0")))


@settings(max_examples=120, deadline=None)
@given(st.lists(_fuzz_model_edit, min_size=1, max_size=3), st.booleans())
def test_parse_with_generated_models_ends_cleanly(fuzz_model, tmp_path_factory,
                                                  edits, as_list):
    # a trained model with fields, vocabulary entries or weights replaced,
    # added or dropped: parse ends with exit 0 and no message, or exit 1
    # and one error: line
    obj, corpus = fuzz_model
    obj = json.loads(json.dumps(obj))
    for op, key, pos, value, weight_key in edits:
        # a fresh copy: one list or dict put in two places could nest in itself
        value = copy.deepcopy(value)
        if op == "field":
            obj[key] = value
        elif op == "drop":
            obj.pop(key, None)
        elif op == "vocab" and isinstance(obj.get("vocab"), dict):
            obj["vocab"][key] = value
        elif op == "weight" and isinstance(obj.get("weights"), dict) and obj["weights"]:
            keys = sorted(obj["weights"])
            obj["weights"][keys[pos % len(keys)]] = value
        elif op == "new weight" and isinstance(obj.get("weights"), dict):
            obj["weights"][weight_key] = value
    root = tmp_path_factory.mktemp("models")
    model = root / "model.json"
    model.write_text(json.dumps([obj] if as_list else obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["parse", corpus, "--model", str(model), "--beam", "1",
                    "--cap", "60", "-o", str(root / "parsed.txt")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("field, value, named", [
    ("actions", 5, "'actions'"), ("weights", [], "'weights'"), ("dim", 0, "'dim'"),
    ("dim", "a", "'dim'"), ("vocab", {"arc_labels": 5}, "'arc_labels'"),
    ("salt", None, "'salt'"), ("weights", {"1,0": "x"}, "'weights'"),
    ("weights", {"1,99999": 1.0}, "'weights'"),
    # weights that are not strictly inside +-WEIGHT_BOUND (2**1000), such
    # as an int past float range, which scoring cannot convert
    ("weights", {"1,0": 10 ** 400}, "'1,0'"),
    ("weights", {"1,0": float("inf")}, "'1,0'"),
    ("weights", {"1,0": float("-inf")}, "'1,0'"),
    ("weights", {"1,0": float("nan")}, "'1,0'"),
    ("weights", {"1,0": 1e308}, "'1,0'"),
    ("weights", {"1,0": 2.0 ** 1000}, "'1,0'")])
def test_malformed_model_field_is_named(fuzz_model, tmp_path, capsys, field, value,
                                        named):
    obj, corpus = fuzz_model
    obj = dict(obj, **{field: value})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    assert run(["parse", corpus, "--model", str(model), "--beam", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model field") and named in err[0]
    for missing in ("actions", "salt", "dim", "weights"):
        model.write_text(json.dumps({k: v for k, v in fuzz_model[0].items()
                                     if k != missing}))
        assert run(["parse", corpus, "--model", str(model)]) == 1
        assert "model field %r is missing" % missing in capsys.readouterr().err


def test_weight_inside_the_bound_parses(fuzz_model, tmp_path, capsys):
    obj, corpus = fuzz_model
    weights = dict(obj["weights"], **{"1,0": 2.0 ** 999})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(obj, weights=weights)))
    assert run(["parse", corpus, "--model", str(model), "--beam", "1",
                "-o", str(tmp_path / "parsed.txt")]) == 0
    assert capsys.readouterr().err == ""


def test_command_line_usage_error_keeps_exit_2(tmp_path, tiny_file, capsys):
    # a bad typed value is argparse's usage error, also beside a good config
    golds = tmp_path / "golds.ulf"
    golds.write_text(ingest(tiny_file)[0].ulf + "\n")
    cfg = tmp_path / "eval.conf"
    cfg.write_text("restarts = 2\n")
    with pytest.raises(SystemExit) as exc:
        run(["eval", "both", str(golds), str(golds), "--config", str(cfg),
             "--k", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ulfparse eval") and "--k: invalid int" in err


def test_parse_corpus_without_gold(tmp_path, tiny_file):
    # train on annotated data, then parse a gold-free corpus: the machine
    # vocabularies travel inside the model file
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "3",
                "--seed", "0"]) == 0
    bare = tmp_path / "bare.jsonl"
    rows = [json.loads(l) for l in open(tiny_file)]
    for r in rows:
        del r["ulf"]
    bare.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    parsed = tmp_path / "parsed.txt"
    assert run(["parse", str(bare), "--model", str(model), "--beam", "2",
                "-o", str(parsed)]) == 0
    assert parsed.read_text().count("# id:") == 5


def test_parse_external_scorer(tmp_path, tiny_file):
    import sys as _sys
    from test_decode import ECHO_SCORER
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "1",
                "--seed", "0"]) == 0
    script = tmp_path / "echo_scorer.py"
    script.write_text(ECHO_SCORER)
    parsed = tmp_path / "parsed.txt"
    assert run(["parse", tiny_file, "--model", str(model),
                "--scorer", "external",
                "--external-cmd", "%s %s" % (_sys.executable, script),
                "--beam", "1", "--cap", "120", "-o", str(parsed)]) == 0
    assert parsed.read_text().count("# id:") == 5


def test_parse_external_scorer_that_exits_at_once(tmp_path, tiny_file,
                                                  capsys, monkeypatch):
    import sys as _sys
    from ulfparse import decode as dec
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "1",
                "--seed", "0"]) == 0
    # the scorer is gone before the first request is written
    started = dec.ExternalScorer.__init__

    def start_and_wait(self, *args, **kwargs):
        started(self, *args, **kwargs)
        self.proc.wait()

    monkeypatch.setattr(dec.ExternalScorer, "__init__", start_and_wait)
    capsys.readouterr()
    assert run(["parse", tiny_file, "--model", str(model),
                "--scorer", "external",
                "--external-cmd", "%s -c pass" % _sys.executable]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: external scorer")


SILENT_SCORER = r"""
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    sys.stdin.read(int(header))
    sys.stdin.readline()
    sys.stdout.write('14\n{"scores": {}}\n')
    sys.stdout.flush()
"""


def test_parse_external_reply_without_a_legal_action_is_one_error_line(
        tmp_path, tiny_file, capsys):
    import sys as _sys
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "1",
                "--seed", "0"]) == 0
    script = tmp_path / "silent_scorer.py"
    script.write_text(SILENT_SCORER)
    capsys.readouterr()
    assert run(["parse", tiny_file, "--model", str(model),
                "--scorer", "external",
                "--external-cmd", "%s %s" % (_sys.executable, script),
                "-o", str(tmp_path / "parsed.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: external scorer left out the legal action '[A-Z]\S*'",
                        err[0])


def test_parse_scorer_reply_of_wrong_length_is_one_error_line(
        tmp_path, tiny_file, capsys, monkeypatch):
    from ulfparse import decode as dec
    model = tmp_path / "model.json"
    assert run(["train", tiny_file, str(model), "--epochs", "1",
                "--seed", "0"]) == 0
    # a scorer that leaves out the last legal action
    scored = dec.RandomScorer.score
    monkeypatch.setattr(dec.RandomScorer, "score",
                        lambda self, c, features, legal:
                        scored(self, c, features, legal)[:-1])
    capsys.readouterr()
    assert run(["parse", tiny_file, "--model", str(model),
                "--scorer", "random", "-o", str(tmp_path / "parsed.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scorer gave ")


def test_ingest_dep_head_out_of_range(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"id": "x", "tokens": ["a"], "lemmas": ["a"],
                             "pos": ["X"], "deps": [[5, "nsubj"]]}) + "\n")
    with pytest.raises(CorpusError, match="head"):
        ingest(str(p))


def test_convert_plain_names(tmp_path):
    src = tmp_path / "in.ulf"
    src.write_text("(|New York| ((pres sleep.v)))\n")
    out = tmp_path / "out.penman"
    assert run(["convert", str(src), "--to", "penman", "--plain-names",
                "-o", str(out)]) == 0
    body = out.read_text()
    assert "New_York" in body and "|" not in body
    # off by default: pipes survive
    out2 = tmp_path / "out2.penman"
    assert run(["convert", str(src), "--to", "penman", "-o", str(out2)]) == 0
    assert "|New York|" in out2.read_text()
