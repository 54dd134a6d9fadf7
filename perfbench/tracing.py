"""In-process span tracer for dynwindow's public functions.

The tracer replaces each traced name at the place where callers look it up:
every dynwindow module namespace that binds the function (so
``dynwindow.recurrence.shifted_hit`` is wrapped as well as
``dynwindow.intsets.shifted_hit``), and the class attribute for methods.
Nothing in the program is edited; ``uninstall`` puts the originals back.

One span is recorded per call: layer, start, end, parent span and op id.
Spans stay in memory until ``write_spans``.  Self time (a span's duration
minus the time its child spans cover) and call counts are accumulated at
the same boundaries while the run goes, so they need no second pass.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from functools import cached_property
from pathlib import Path

MODULES = ("intsets", "systems", "recurrence", "permpoly", "constructions", "cli")

# layer -> (module, function names); several functions may feed one layer.
FUNCTION_LAYERS = {
    "cli.main": ("cli", ("main",)),
    "intsets.parse_sequence_text": ("intsets", ("parse_sequence_text",)),
    "intsets.shifted_hit": ("intsets", ("shifted_hit",)),
    "intsets.difference_set": ("intsets", ("difference_set",)),
    "intsets.classifiers": (
        "intsets",
        ("is_syndetic", "is_thick", "piecewise_syndetic_certificate", "banach_density_estimate"),
    ),
    "recurrence.r_sequence_cyclic": ("recurrence", ("r_sequence_cyclic",)),
    "recurrence.shift_family_test": ("recurrence", ("shift_family_test",)),
    "recurrence.return_times": ("recurrence", ("return_times",)),
    "recurrence.crosscheck_cyclic_equivalence": ("recurrence", ("crosscheck_cyclic_equivalence",)),
    "recurrence.r_sequence_metric": ("recurrence", ("r_sequence_metric",)),
    "recurrence.birkhoff_window_test": ("recurrence", ("birkhoff_window_test",)),
    "systems.orbit_at": ("systems", ("orbit_at",)),
    "systems.eps_dense": ("systems", ("eps_dense",)),
    "permpoly.hermite_check": ("permpoly", ("hermite_check",)),
    "permpoly.brute_permutation_check": ("permpoly", ("brute_permutation_check",)),
    "permpoly.find_non_surjective_prime": ("permpoly", ("find_non_surjective_prime",)),
    "permpoly.is_prime": ("permpoly", ("is_prime",)),
    "constructions.build_ip_block_sequence": ("constructions", ("build_ip_block_sequence",)),
    "constructions.verify_shifted_recurrence": ("constructions", ("verify_shifted_recurrence",)),
}

# layer -> (module, class names, attribute); cached properties are rewrapped.
METHOD_LAYERS = {
    "intsets.Window_init": ("intsets", ("Window",), "__init__"),
    "intsets.Window_bitmask": ("intsets", ("Window",), "bitmask"),
    "systems.cell_of": ("systems", ("FiniteCover", "TorusCover", "ProductCover"), "cell_of"),
}

LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)


class Tracer:
    """Records spans and per-layer totals for the wrapped dynwindow names."""

    def __init__(self) -> None:
        self.layer_names = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        n = len(self.layer_names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.holds = [0] * n
        # (parent layer, child layer) -> direct child calls
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self._stack: list[list] = []  # [layer id, span index, child time]
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        lid = self._layer_id[layer]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            parent = stack[-1] if stack else None
            tracer.span_layer.append(lid)
            tracer.span_parent.append(parent[1] if parent else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            frame = [lid, idx, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[idx] = end
                dur = end - start
                tracer.calls[lid] += 1
                tracer.self_s[lid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    tracer.child_calls[(tracer.layer_names[parent[0]], layer)] += 1
            if getattr(result, "holds", False) is True:
                tracer.holds[lid] += 1
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced name in every dynwindow namespace that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module("dynwindow")] + [
            importlib.import_module(f"dynwindow.{m}") for m in MODULES
        ]
        for layer, (module, names) in FUNCTION_LAYERS.items():
            home = importlib.import_module(f"dynwindow.{module}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, original)
                for ns in namespaces:
                    if getattr(ns, name, None) is original:
                        self._undo.append((ns, name, original))
                        setattr(ns, name, wrapped)
        for layer, (module, classes, attr) in METHOD_LAYERS.items():
            home = importlib.import_module(f"dynwindow.{module}")
            for cls_name in classes:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, cached_property):
                    wrapped = cached_property(self._wrap(layer, original.func))
                    wrapped.__set_name__(cls, attr)
                else:
                    wrapped = self._wrap(layer, original)
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer totals so far, keyed by layer name."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "holds": self.holds[i]}
            for i, name in enumerate(self.layer_names)
        }

    def write_spans(self, path: Path) -> int:
        """Write the spans as one .npz of columns (row i is span i); returns the count.

        ``layer`` indexes ``layer_names``; ``parent`` is a span row or -1.
        """
        import numpy as np

        np.savez_compressed(
            path,
            layer_names=np.array(self.layer_names),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)
