"""Frozen expected values shared across the test suite.

The sentence-2 graph (14 vertices, 13 edges) was expanded by hand from
the conversion rules: one vertex per atom, leftmost constituent is the
parent, a COMPLEX vertex with an :INSTANCE edge stands in for non-atomic
operators.  The action sequence is the verified extractor output whose
replay reproduces that graph exactly; it is frozen here as a regression
anchor for determinism.
"""

MC002_ULF = ("(i.pro ((pres want.v) (to (dance.v (adv-a (in.p (my.d "
            "((mod-n new.a) (plur shoe.n)))))))))")

MC002_VERTS = [
    "i.pro", "COMPLEX", "pres", "want.v", "to", "dance.v", "adv-a",
    "in.p", "my.d", "COMPLEX", "mod-n", "new.a", "plur", "shoe.n",
]

MC002_EDGES = {
    (0, 1, ":ARG0"), (1, 2, ":INSTANCE"), (2, 3, ":ARG0"),
    (1, 4, ":ARG0"), (4, 5, ":ARG0"), (5, 6, ":ARG0"), (6, 7, ":ARG0"),
    (7, 8, ":ARG0"), (8, 9, ":ARG0"), (9, 10, ":INSTANCE"),
    (10, 11, ":ARG0"), (9, 12, ":ARG0"), (12, 13, ":ARG0"),
}

MC002_PENMAN = (
    "(v0 / i.pro :ARG0 (v1 / COMPLEX :INSTANCE (v2 / pres :ARG0 (v3 / want.v))"
    " :ARG0 (v4 / to :ARG0 (v5 / dance.v :ARG0 (v6 / adv-a :ARG0 (v7 / in.p"
    " :ARG0 (v8 / my.d :ARG0 (v9 / COMPLEX :INSTANCE (v10 / mod-n :ARG0"
    " (v11 / new.a)) :ARG0 (v12 / plur :ARG0 (v13 / shoe.n))))))))))"
)

# word index -> gold vertex id accepted by the aligner on sentence mc-002
MC002_ALIGNMENT = {(1, 0), (2, 3), (4, 5), (5, 7), (6, 8), (7, 11), (8, 13)}

# "I run ." -- hand-traced; regression anchor
I_RUN_ACTIONS = [
    "WORDGEN", "TOKEN", "SUFFIX:pro", "PUSHIDX:0", "NOARC", "NOPROMOTE",
    "NOPOP", "WORDGEN", "TOKEN", "SUFFIX:v", "PUSHIDX:1", "NOARC",
    "PROMOTE_SYM:pres", "PROMOTE_ARC", "ARC:0:right",
    "NOPROMOTE", "POP", "NOARC", "NOPROMOTE", "POP", "NOARC", "NOPROMOTE",
    "NOPOP", "SKIP",
]
