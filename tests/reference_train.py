"""Teacher-forced perceptron training as first written: every epoch
replays each gold sequence through the machine and extracts its features
and legal menus again.  ``decode.train_perceptron`` extracts them once per
run (``decode.step_table``) and must give the same model, byte for byte."""

import numpy as np

from ulfparse import decode as dec
from ulfparse import machine as tm


def _longest_run(items):
    """The longest word-less run along the replays of the gold sequences."""
    longest, machine = 0, tm.Machine()
    for sentence, _, seq in items:
        c = machine.init(sentence)
        for action in seq:
            c = machine.apply(c, action)
            longest = max(longest, c.wordless_run)
    return longest


def reference_train(items, epochs=5, seed=0, machine=None, dim=1 << 18):
    seqs = [seq for _, _, seq in items]
    if sum(len(s) for s in seqs) == 0:
        raise ValueError("training corpus has zero oracle steps")
    if machine is None:
        machine = dec.machine_from_actions(seqs)
    actions = sorted({a for seq in seqs for a in seq}, key=tm.action_sort_key)
    model = dec.PerceptronModel(actions=list(actions), salt=seed, dim=dim, vocab={
        "suffixes": machine.suffixes or [],
        "symgen": machine.symgen_vocab or [],
        "promote": machine.promote_syms or [],
    }, max_wordless_run=_longest_run(items))
    rng = np.random.default_rng(seed)
    order = list(range(len(items)))
    step = 0
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            sentence, dep, seq = items[idx]
            frags = dec.SentenceFeatures(sentence, dep)
            c = machine.init(sentence)
            for gold_action in seq:
                step += 1
                feats = dec.extract_features(c, dep, frags)
                legal = dec._concrete_candidates(machine, c)
                if gold_action not in legal:
                    legal.append(gold_action)
                legal.sort(key=tm.action_sort_key)
                buckets = model.buckets(feats)
                scores = model.score_actions(buckets, legal)
                gold_score = scores[legal.index(gold_action)]
                rival, rival_score = None, None
                for a, s in zip(legal, scores):
                    if a == gold_action:
                        continue
                    if rival_score is None or s > rival_score:
                        rival, rival_score = a, s
                if rival is not None and gold_score - rival_score < 1.0:
                    model.add_action(rival)
                    model.update(buckets, gold_action, rival)
                c = machine.apply(c, gold_action)
    model.finalize(max(step, 1))
    return model, machine
