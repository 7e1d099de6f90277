"""The traced benchmark names engine functions by string
(``perfbench/tracer.py``'s ``_FUNCS`` and ``_MODULES``); a rename in the
engine would only surface as an ``AttributeError`` at the next traced
run. This guard resolves every name without installing the tracer."""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve():
    tracer = _tracer()
    assert tracer._FUNCS
    for mod_name, attr, *_ in tracer._FUNCS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


@pytest.mark.parametrize("mod_name", sorted(_tracer()._MODULES))
def test_traced_modules_import(mod_name):
    importlib.import_module(mod_name)
