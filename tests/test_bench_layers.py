"""The traced benchmark run (`bench/run.py --trace 1`) wraps library
functions and methods by name; a rename in the library must not break it
unnoticed."""

import importlib
import inspect
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("layers")


def test_every_traced_function_and_method_resolves(layers):
    for span, modname, attr in layers.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), span
    for span, modname, clsname, attr in layers.METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert cls is not None and callable(vars(cls).get(attr)), span


def test_counting_wrappers_match_the_signatures(layers):
    # Tracer._counting calls these with exactly these positional arguments
    from ulfparse.decode import PerceptronModel
    from ulfparse.machine import Machine
    assert list(inspect.signature(PerceptronModel.buckets).parameters) == \
        ["self", "features"]
    assert list(inspect.signature(Machine.is_terminal).parameters) == ["self", "c"]


def test_tracer_installs_and_restores(layers):
    from ulfparse import decode, machine
    before = (decode.extract_features, machine.Machine.apply)
    tracer = layers.Tracer().install()
    try:
        assert decode.extract_features is not before[0]
    finally:
        tracer.restore()
    assert (decode.extract_features, machine.Machine.apply) == before
