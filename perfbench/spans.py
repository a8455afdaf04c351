"""Span tracer that wraps qgen's public functions from outside the package.

`Tracer.install` replaces module and class attributes with timing wrappers,
registers a `gc.callbacks` hook and counts `Tensor` constructions;
`uninstall` puts everything back.  Spans stay in memory until the run ends.
An untraced benchmark run never creates a Tracer.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

from qgen import beam, model, training
from qgen.autodiff import Tensor
from qgen.features import FeatureEmbedder

# (layer name, owner, attribute).  Modules are patched where the caller looks
# the name up: `model.encode` is what QgModel.forward calls.
HOOKS = [
    ("training.compute_losses", training, "compute_losses"),
    ("model.forward", model.QgModel, "forward"),
    ("features.embed_passage", FeatureEmbedder, "embed_passage"),
    ("clue_predictor.build_adjacency", model, "build_adjacency"),
    ("clue_predictor.run", model, "run_clue_predictor"),
    ("encoder.encode", model, "encode"),
    ("encoder.encode", beam, "encode"),
    ("decoder.unroll", model, "teacher_forced_unroll"),
    ("decoder.decode_step", beam, "decode_step"),
    ("training.losses", training, "losses_from_forward"),
    ("autodiff.backward", Tensor, "backward"),
    ("training.adam", training, "adam_step"),
    ("training.ema", training.EmaState, "update"),
    ("beam.generate", beam, "generate"),
]
GC_LAYER = "autodiff.gc"

_START, _END, _PARENT = 1, 2, 3


class Tracer:
    """Records (name, start, end, parent, op) spans.

    `op` is the optimizer step or generated example, set by the caller at op
    boundaries; a span's parent is the span open when it began (-1 at top
    level).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.tensors = 0
        self.gc_collections = [0, 0, 0]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.installed_at: float | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        # building the record can itself trigger a collection, whose span
        # lands first; take the index only after appending
        record = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][_END] = perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_collections[info["generation"]] += 1
            self._open(GC_LAYER)
        elif self._stack and self.spans[self._stack[-1]][0] == GC_LAYER:
            self._close(self._stack[-1])

    def install(self) -> None:
        for name, owner, attr in HOOKS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        init = Tensor.__init__
        self._saved.append((Tensor, "__init__", init))

        def counting_init(t, *args, **kwargs):
            self.tensors += 1
            init(t, *args, **kwargs)
        Tensor.__init__ = counting_init
        gc.callbacks.append(self._on_gc)
        self.installed_at = perf_counter()

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, inclusive seconds, and self seconds (the
        span minus the part its child spans cover)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child):
            rec = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = span[_END] - span[_START]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - covered
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to `install`."""
        t0 = self.installed_at or 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "op": op,
                }) + "\n")
