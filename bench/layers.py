"""Which library functions the traced run wraps, and the per-layer
metrics computed from the spans.

Layers are the package's modules; decode is split by role.  A module
function is patched in every ulfparse module that holds it, because
callers that imported it by name (decode imports check_arc, type_of and
lexicon_filter; oracle and cli import align) look it up in their own
globals.  render_sexpr recurses through its own module global, so it is
patched only where other modules call it.
"""

from __future__ import annotations

import sys

from spans import Patches, Recorder, trace_function, trace_method

ROOT_SPAN = "bench.loop"

# (span name, module, attribute) for module-level functions
FUNCTIONS = [
    ("cli.ingest", "ulfparse.cli", "ingest"),
    ("cli.read_parse_file", "ulfparse.cli", "_read_parse_file"),
    ("cli.read_graph_file", "ulfparse.cli", "_read_graph_file"),
    ("core.parse_sexpr", "ulfparse.core", "parse_sexpr"),
    ("core.tree_to_graph", "ulfparse.core", "tree_to_graph"),
    ("core.graph_to_tree", "ulfparse.core", "graph_to_tree"),
    ("core.render_sexpr", "ulfparse.core", "render_sexpr"),
    ("align.align", "ulfparse.align", "align"),
    ("oracle.build_symbol_sets", "ulfparse.oracle", "build_symbol_sets"),
    ("oracle.extract", "ulfparse.oracle", "extract"),
    ("decode.features.extract_features", "ulfparse.decode", "extract_features"),
    ("decode.update.train_perceptron", "ulfparse.decode", "train_perceptron"),
    ("decode.beam.beam_decode", "ulfparse.decode", "beam_decode"),
    ("typesys.type_of", "ulfparse.typesys", "type_of"),
    ("typesys.check_arc", "ulfparse.typesys", "check_arc"),
    ("typesys.lexicon_filter", "ulfparse.typesys", "lexicon_filter"),
    ("metrics.corpus_eval", "ulfparse.metrics", "corpus_eval"),
    ("metrics.best_mapping", "ulfparse.metrics", "best_mapping"),
    ("metrics.graph_ngrams", "ulfparse.metrics", "graph_ngrams"),
]

# (span name, module, class, method)
METHODS = [
    ("machine.apply", "ulfparse.machine", "Machine", "apply"),
    ("machine.is_legal", "ulfparse.machine", "Machine", "is_legal"),
    ("machine.legal_actions", "ulfparse.machine", "Machine", "legal_actions"),
    ("machine.is_terminal", "ulfparse.machine", "Machine", "is_terminal"),
    ("machine.descendants", "ulfparse.machine", "Config", "descendants"),
    ("machine.parent_of", "ulfparse.machine", "Config", "parent_of"),
    ("decode.hash.buckets", "ulfparse.decode", "PerceptronModel", "buckets"),
    ("decode.score.score", "ulfparse.decode", "PerceptronScorer", "score"),
    ("decode.score.score_buckets", "ulfparse.decode", "PerceptronModel",
     "score_buckets"),
    ("decode.update.update", "ulfparse.decode", "PerceptronModel", "update"),
    ("decode.update.finalize", "ulfparse.decode", "PerceptronModel", "finalize"),
    ("decode.update.to_json", "ulfparse.decode", "PerceptronModel", "to_json"),
]

SPAN_NAMES = [ROOT_SPAN] + [s for s, *_ in FUNCTIONS] + [s for s, *_ in METHODS]

# derived per-layer metrics: name -> (unit, better)
DERIVED = {
    "oracle.actions": ("count", "lower"),
    "decode.features_per_call": ("count", "lower"),
    "decode.hash.features": ("count", "lower"),
    "decode.expansions": ("count", "lower"),
    "decode.applies": ("count", "lower"),
    "decode.apply_useful_ratio": ("ratio", "higher"),
    "decode.cap_reached": ("count", "lower"),
    "typesys.veto_ratio": ("ratio", "higher"),
    "typesys.lexicon_fallbacks": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span in SPAN_NAMES:
        out.append((span + ".calls", "count", "lower"))
        out.append((span + ".self_s", "s", "lower"))
    out.extend((k, u, b) for k, (u, b) in DERIVED.items())
    return out


def _ulfparse_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ulfparse" or name.startswith("ulfparse.")) and m]


class Tracer:
    """Installs the spans and counting hooks; restore() undoes them."""

    def __init__(self):
        self.rec = Recorder()
        self.patches = Patches()
        self.features = 0           # features seen by extract_features
        self.hashed = 0             # features hashed by buckets
        self.vetoes = 0
        self.fallbacks = 0
        self.capped_items = set()

    def install(self):
        mods = _ulfparse_modules()
        for span, modname, attr in FUNCTIONS:
            home = sys.modules[modname]
            fn = getattr(home, attr)
            fn = self._counting(span, fn)
            targets = [m for m in mods
                       if not (attr == "render_sexpr" and m is home)]
            trace_function(self.rec, self.patches, span, fn, targets,
                           original=getattr(home, attr))
        for span, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            trace_method(self.rec, self.patches, span, cls, attr,
                         self._counting(span, cls.__dict__[attr]))
        return self

    def restore(self):
        self.patches.restore()

    def _counting(self, span, fn):
        """fn, plus the counter its span feeds, if any."""
        tracer = self
        if span == "decode.features.extract_features":
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.features += len(out)
                return out
        elif span == "decode.hash.buckets":
            def counted(model, features):
                tracer.hashed += len(features)
                return fn(model, features)
        elif span == "typesys.check_arc":
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.vetoes += not out[0]
                return out
        elif span == "typesys.lexicon_filter":
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.fallbacks += not out
                return out
        elif span == "machine.is_terminal":
            def counted(machine, c):
                out = fn(machine, c)
                if not out and c.steps >= machine.step_cap:
                    tracer.capped_items.add(tracer.rec.current_item)
                return out
        else:
            return fn
        return counted

    # -- metrics ----------------------------------------------------------

    def metrics(self, untraced_wall, traced_wall, oracle_actions):
        rec = self.rec
        table = rec.by_name()
        out = {}
        for span in SPAN_NAMES:
            calls, own = table.get(span, (0, 0.0))
            out[span + ".calls"] = calls
            out[span + ".self_s"] = own
        feature_calls = out["decode.features.extract_features.calls"]
        arcs = out["typesys.check_arc.calls"]
        applies = self._count_in_beam("machine.apply")
        expansions = self._count_in_beam("decode.score.score")
        out.update({
            "oracle.actions": oracle_actions,
            "decode.features_per_call":
                self.features / feature_calls if feature_calls else 0.0,
            "decode.hash.features": self.hashed,
            "decode.expansions": expansions,
            "decode.applies": applies,
            "decode.apply_useful_ratio": expansions / applies if applies else 0.0,
            "decode.cap_reached": len(self.capped_items - {-1}),
            "typesys.veto_ratio": self.vetoes / arcs if arcs else 0.0,
            "typesys.lexicon_fallbacks": self.fallbacks,
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.spans": len(rec),
        })
        return out

    def _count_in_beam(self, span):
        """Spans named span that run inside a beam_decode span."""
        rec = self.rec
        beam = rec.name_ids.get("decode.beam.beam_decode")
        target = rec.name_ids.get(span)
        if beam is None or target is None:
            return 0
        inside = bytearray(len(rec))
        count = 0
        for i in range(len(rec)):
            p = rec.parent[i]
            inside[i] = rec.name[i] == beam or (p >= 0 and inside[p])
            if inside[i] and rec.name[i] == target:
                count += 1
        return count
