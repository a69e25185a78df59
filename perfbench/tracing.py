"""Span tracing of gsclab's layers from outside the package.

The tracer replaces public functions at the module attribute their callers
look up (``gsclab.protocol.step``, ``Relation.compose``, ...) with wrappers
that record one span per call: name, start, end, parent span and item id.
Generators (``explore``, ``linear_extensions``) get one span per ``next()``.
Spans live in flat arrays while the traced pass runs and are written out at
the end; a layer's self time is the duration of its spans minus the part
their child spans cover.  Nothing under ``src/`` is edited: every patch is
undone when the tracer is closed.
"""

from __future__ import annotations

import array
import json
import time
from collections import Counter

import gsclab.axioms
import gsclab.composition
import gsclab.derived
import gsclab.model
import gsclab.protocol
import gsclab.serialization
import gsclab.synthesis
from gsclab.relations import Relation

LAYERS = ("protocol", "axioms", "relations", "derived", "synthesis",
          "composition", "serialization", "model", "cli")

# (owner, attribute, span name, is a generator function)
_PATCHES = (
    (gsclab.protocol, "explore", "protocol.explore", True),
    (gsclab.protocol, "step", "protocol.step", False),
    (gsclab.protocol, "flush_suffix", "protocol.flush", False),
    (gsclab.synthesis, "run_schedule", "protocol.replay", False),
    (gsclab.axioms, "is_gsc", "axioms.is_gsc", False),
    (gsclab.axioms, "minimal_visibility", "axioms.closure", False),
    (gsclab.axioms, "check_axioms", "axioms.check_axioms", False),
    (gsclab.synthesis, "check_axioms", "axioms.check_axioms", False),
    (gsclab.composition, "check_axioms", "axioms.check_axioms", False),
    (Relation, "compose", "relations.compose", False),
    (Relation, "transitive_closure", "relations.transitive_closure", False),
    (gsclab.axioms, "linear_extensions", "relations.linear_extensions", True),
    (gsclab.derived, "check_lin", "derived.check_lin", False),
    (gsclab.derived, "check_osc", "derived.check_osc", False),
    (gsclab.synthesis, "synthesize_schedule", "synthesis.synthesize", False),
    (gsclab.synthesis, "body_order", "synthesis.body_order", False),
    (gsclab.synthesis, "scheduling_precedence", "synthesis.precedence", False),
    (gsclab.composition, "compose", "composition.compose", False),
    (gsclab.serialization, "history_to_doc", "serialization.history_to_doc", False),
    (gsclab.serialization, "doc_to_history", "serialization.doc_to_history", False),
    (gsclab.serialization, "execution_to_doc", "serialization.execution_to_doc", False),
    (gsclab.serialization, "doc_to_execution", "serialization.doc_to_execution", False),
    (gsclab.serialization, "schedule_to_doc", "serialization.schedule_to_doc", False),
    (gsclab.serialization, "doc_to_schedule", "serialization.doc_to_schedule", False),
    (gsclab.serialization, "dumps", "serialization.dumps", False),
    (gsclab.serialization, "loads", "serialization.loads", False),
    (gsclab.model.History, "canonical", "model.canonical", False),
    (gsclab.model, "apply_fence_preset", "model.preset", False),
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.items = array.array("i")
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """A span opened by the benchmark itself (around a subprocess)."""
        return _Span(self, self._name_id(name))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        counts = self.counts
        if name == "axioms.is_gsc":
            def after(result):
                counts["ars_tried"] += result.stats.get("ars_tried", 0)
                counts["closures"] += result.stats.get("closures", 0)
                counts["assignments_tried"] += result.stats.get("assignments_tried", 0)
                counts["members"] += bool(result.member)
        elif name == "serialization.dumps":
            def after(result):
                counts["bytes"] += len(result.encode())
        else:
            after = None

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except gsclab.synthesis.SynthesisError:
                counts[name + ".failures"] += 1
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    idx = tracer._open(nid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    counts[name + ".yields"] += 1
                    yield value

            return traced()

        return wrapper

    def install(self) -> None:
        for owner, attr, name, is_gen in _PATCHES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrap = self._wrap_generator if is_gen else self._wrap
            setattr(owner, attr, wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, plus
        per layer: self seconds and the seconds covered by spans whose
        parent lies in another layer (the layer's inclusive time)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        by_name: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        by_layer: dict[str, dict[str, float]] = {
            layer: {"self_s": 0.0, "covered_s": 0.0} for layer in LAYERS}
        for i in range(n):
            nid = self.name[i]
            rec = by_name[self.names[nid]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            layer = layer_of[nid]
            by_layer[layer]["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer:
                by_layer[layer]["covered_s"] += dur[i]
        return {"spans": by_name, "layers": by_layer}

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name))
                if self.name[i] == nid]

    def write(self, path) -> None:
        """Write every span as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "item"],
            "name": self.name.tolist(),
            "start": [round(t, 7) for t in self.start],
            "end": [round(t, 7) for t in self.end],
            "parent": self.parent.tolist(),
            "item": self.items.tolist(),
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_Span":
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)
