"""The benchmark tracer still finds every name it wraps in this tree.

``perfbench/tracing.py`` wraps dynwindow's functions and methods by name, so
a renamed or deleted name would otherwise show only in a traced benchmark run.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _owners(layer: str) -> list:
    # (owner, name) for each place the layer's home binds a traced name.
    if layer in tracing.FUNCTION_LAYERS:
        module, names = tracing.FUNCTION_LAYERS[layer]
        return [(importlib.import_module(f"dynwindow.{module}"), name) for name in names]
    module, classes, attr = tracing.METHOD_LAYERS[layer]
    home = importlib.import_module(f"dynwindow.{module}")
    return [(getattr(home, cls_name), attr) for cls_name in classes]


def _bindings() -> dict:
    # (namespace or class, name) -> what it binds now, for every traced name anywhere in dynwindow.
    namespaces = [importlib.import_module("dynwindow")] + [
        importlib.import_module(f"dynwindow.{m}") for m in tracing.MODULES
    ]
    out = {}
    for layer in tracing.LAYERS:
        for owner, name in _owners(layer):
            if isinstance(owner, type):
                out[owner, name] = owner.__dict__[name]
            else:
                out.update(((ns, name), getattr(ns, name)) for ns in namespaces if hasattr(ns, name))
    return out


def test_tracer_wraps_every_layer_and_uninstall_restores_the_originals():
    originals = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {(owner, name) for owner, name, _ in tracer._undo}
        for layer in tracing.LAYERS:
            assert all(key in wrapped for key in _owners(layer)), layer
    finally:
        tracer.uninstall()
    now = _bindings()
    assert now.keys() == originals.keys()
    assert all(now[key] is original for key, original in originals.items())
