"""Layer tracing for the benchmark's traced run.

``Tracer.install`` replaces public functions of the ``ostrans`` modules
with wrappers, from outside the package: every module attribute bound to
the original function is rebound, so calls between modules go through
the wrapper too.  Coarse layer boundaries record spans (name, start,
end, parent); hot functions only update counters and timers, because
``match_pattern`` alone runs millions of times per repetition.

Every wrapped call, span or not, is a frame on one stack.  A frame's
self time is its duration minus the time of the frames it encloses; it
is charged to the frame's layer.  Time outside every frame is the
benchmark's own code.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "terms", "specfmt", "validity", "poset", "translate", "rewrite", "bisim")

# Public functions of ``ostrans.terms`` timed as the terms layer.  Term
# construction (``GroundTerm`` interning) is not wrapped: its time counts
# toward the caller.
TERMS_FUNCTIONS = ("least_sort", "ms_sort", "sorts_of", "term_sort",
                   "well_formed_ground", "apply_substitution")

# Top-level calls of these spans form the spec pipeline (parse, validate,
# translate, print); their share of wall time separates the workloads.
SPEC_PIPELINE = frozenset({
    "specfmt.parse", "specfmt.reparse_msa", "specfmt.print",
    "validity.validate", "poset.find_diamonds", "translate.translate_algebra",
})


def _side(alg_or_sig) -> str:
    return "ms" if type(alg_or_sig).__name__.startswith("MS") else "os"


def height(t, memo: dict) -> int:
    """Height of a ground term; constants have height zero."""
    h = memo.get(t)
    if h is None:
        h = 1 + max(height(a, memo) for a in t.args) if t.args else 0
        memo[t] = h
    return h


class Tracer:
    """Spans, counters and per-layer self time of one repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[list] = []  # [start, child time, span index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._active: dict[str, int] = defaultdict(int)
        self._heights: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- frames ------------------------------------------------------------

    def _enter(self, name: str | None) -> list:
        index = -1
        if name is not None:
            parent = next((f[2] for f in reversed(self.stack) if f[2] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [time.perf_counter(), 0.0, index]
        if index >= 0:
            self.spans[index][1] = frame[0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, layer: str, timer: str) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        self.self_s[layer] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if frame[2] >= 0:
            self.spans[frame[2]][2] = end
        self._active[timer] -= 1
        if not self._active[timer]:
            self.counters[timer] += duration

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, label, span: bool, on_result=None):
        """Wrap ``fn``; ``label(args, kwargs)`` names the call's timer."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = label(args, kwargs)
            tracer.counters[name + "_calls"] += 1
            tracer._active[name + "_s"] += 1
            frame = tracer._enter(name if span else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, layer, name + "_s")
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_enumeration(self, fn):
        """Time each ``next`` of the term generator and count heights."""
        tracer = self

        def wrapper(sig, *args, **kwargs):
            it = fn(sig, *args, **kwargs)
            side = _side(sig)
            timer = f"bisim.enumerate.{side}_s"

            def timed():
                while True:
                    tracer._active[timer] += 1
                    frame = tracer._enter(None)
                    try:
                        t = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(frame, "bisim", timer)
                    h = height(t, tracer._heights)
                    tracer.counters[f"bisim.terms_by_height.{side}.h{h}"] += 1
                    yield t

            return timed()

        wrapper.__wrapped__ = fn
        return wrapper

    def _e_class_result(self, fn):
        params = inspect.signature(fn)

        def record(args, kwargs, result):
            bound = params.bind(*args, **kwargs)
            bound.apply_defaults()
            depth, max_size = bound.arguments["depth"], bound.arguments["max_size"]
            self.counters["rewrite.e_class_members"] += len(result.members)
            if not result.exhausted and (
                len(result.members) >= max_size or result.depth_used >= depth
            ):
                self.counters["rewrite.e_class_budget_hits"] += 1
            if any(self.spans[f[2]][0].startswith("bisim.check_")
                   for f in self.stack if f[2] >= 0):
                self.counters["bisim.e_class_calls_from_checks"] += 1

        return record

    def _translate_result(self, args, kwargs, result):
        ms, _ = result
        self.counters["translate.casts"] += len(ms.signature.non_core)
        self.counters["translate.core_equations"] += len(ms.core_equations)

    def install(self) -> None:
        """Wrap the layer boundaries of every loaded ``ostrans`` module."""
        from ostrans import bisim, cli, poset, rewrite, specfmt, terms, translate, validity

        def fixed(name):
            return lambda args, kwargs: name

        def by_side(name):
            return lambda args, kwargs: f"{name}.{_side(args[0])}"

        def parse_label(args, kwargs):
            kind = kwargs.get("kind", args[1] if len(args) > 1 else "osa")
            return "specfmt.reparse_msa" if kind == "msa" else "specfmt.parse"

        wrappers = [
            self._wrap(cli.main, "cli", fixed("cli.main"), True),
            *(self._wrap(getattr(terms, name), "terms", fixed(f"terms.{name}"), False)
              for name in TERMS_FUNCTIONS),
            self._wrap(specfmt.parse_spec, "specfmt", parse_label, True),
            self._wrap(specfmt.print_spec, "specfmt", fixed("specfmt.print"), True),
            self._wrap(specfmt.parse_term_text, "specfmt", fixed("specfmt.parse_term"), False),
            self._wrap(validity.validate_algebra, "validity", fixed("validity.validate"), True),
            self._wrap(poset.build_poset, "poset", fixed("poset.build"), True),
            self._wrap(poset.find_diamonds, "poset", fixed("poset.find_diamonds"), True),
            self._wrap(translate.translate_algebra, "translate",
                       fixed("translate.translate_algebra"), True, self._translate_result),
            self._wrap(translate.translate_term, "translate", fixed("translate.translate_term"), False),
            self._wrap(rewrite.core_canonicalize, "rewrite", fixed("rewrite.core_canonicalize"), False),
            self._wrap(rewrite.direct_steps, "rewrite", by_side("rewrite.direct_steps"), False),
            self._wrap(rewrite.e_class_bounded, "rewrite", fixed("rewrite.e_class_bounded"), True,
                       self._e_class_result(rewrite.e_class_bounded)),
            self._wrap(rewrite.rewrite_step, "rewrite", by_side("rewrite.rewrite_step"), True),
            self._count(rewrite.match_pattern, "rewrite.match_pattern_calls"),
            self._wrap_enumeration(bisim.enumerate_ground_terms),
            self._wrap(bisim.check_forward, "bisim", fixed("bisim.check_forward"), True),
            self._wrap(bisim.check_backward, "bisim", fixed("bisim.check_backward"), True),
        ]
        replace = {id(w.__wrapped__): w for w in wrappers}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ostrans" and not mod_name.startswith("ostrans."):
                continue
            for attr, value in list(vars(module).items()):
                new = replace.get(id(value))
                if new is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- results -----------------------------------------------------------

    def pipeline_s(self) -> float:
        """Time in top-level calls of the spec pipeline."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in SPEC_PIPELINE:
                continue
            while parent >= 0 and self.spans[parent][0] not in SPEC_PIPELINE:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def summary(self) -> dict:
        """Counters, per-layer self time and the spans of this repetition."""
        return {
            "counters": dict(self.counters),
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "pipeline_s": self.pipeline_s(),
            "spans": self.spans,
        }
