"""Layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of the nangulator
modules by timing wrappers.  A module-level function is replaced at every
module attribute that names it, because the program imports with
``from .x import f``; a method is replaced on its class.  Each wrapped call
becomes a span (name, start, end, parent) kept in memory.

The two kernel entry points, ``ExactMatrix.rref`` and ``ExactMatrix.@``, run
about 10^5 times per command, too often to keep one span each.  They are
timed at the same boundary but only summed into counters, and their time is
added to the enclosing span's child time, so self times stay exact.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import weakref

# span name -> (module, class or None, attribute)
LAYERS = {
    "algebra.compute_basis": ("nangulator.algebra", None, "compute_basis"),
    "algebra.self_injective": ("nangulator.algebra", None, "check_self_injective"),
    "algebra.enveloping": ("nangulator.algebra", "BasicAlgebra", "enveloping"),
    "algebra.verify_automorphism": ("nangulator.algebra", None, "verify_automorphism"),
    "periodicity.scan": ("nangulator.periodicity", None, "quasi_period_scan"),
    "periodicity.resolution": ("nangulator.periodicity", "BimoduleResolution", "extend"),
    "periodicity.detect_twist": ("nangulator.periodicity", None, "detect_twist"),
    "periodicity.normalize_twist": ("nangulator.periodicity", None, "normalize_twist"),
    "periodicity.monomial_twist_candidates": ("nangulator.periodicity", None,
                                              "monomial_twist_candidates"),
    "periodicity.is_inner": ("nangulator.periodicity", None, "is_inner"),
    "modules.hom_space": ("nangulator.modules", None, "hom_space"),
    "modules.iso_test": ("nangulator.modules", None, "iso_test"),
    "modules.tensor_module": ("nangulator.modules", None, "tensor_module"),
    "homology.syzygy": ("nangulator.homology", None, "syzygy"),
    "homology.injective_hull": ("nangulator.homology", "Homology", "injective_hull"),
    "homology.stable_inverse": ("nangulator.homology", "Homology", "stable_inverse"),
    "angulation.functor_sequence": ("nangulator.angulation", None, "functor_sequence"),
    "angulation.evaluate": ("nangulator.angulation", "FunctorSequence", "evaluate"),
    "angulation.certify_angle": ("nangulator.angulation", None, "certify_angle"),
    "angulation.complete_morphism": ("nangulator.angulation", None, "complete_morphism"),
    "angulation.fill_morphism": ("nangulator.angulation", None, "fill_morphism"),
    "angulation.good_fill_and_cone": ("nangulator.angulation", None, "good_fill_and_cone"),
    "axioms.verify_axioms": ("nangulator.axioms", None, "verify_axioms"),
}
KERNELS = {
    "fields.rref": ("nangulator.fields", "ExactMatrix", "rref"),
    "fields.matmul": ("nangulator.fields", "ExactMatrix", "__matmul__"),
}

# per-layer metric -> (unit, better); the order is the order printed
METRICS = {
    "fields.rref_calls": ("count", "lower"),
    "fields.rref_cells": ("count", "lower"),
    "fields.rref_s": ("s", "lower"),
    "fields.rref_distinct_ratio": ("ratio", "higher"),
    "fields.matmul_calls": ("count", "lower"),
    "fields.matmul_mults": ("count", "lower"),
    "fields.matmul_s": ("s", "lower"),
    "algebra.compute_basis_s": ("s", "lower"),
    "algebra.self_injective_s": ("s", "lower"),
    "algebra.enveloping_s": ("s", "lower"),
    "algebra.enveloping_mb": ("MB", "lower"),
    "algebra.verify_automorphism_calls": ("count", "lower"),
    "algebra.verify_automorphism_s": ("s", "lower"),
    "periodicity.scan_s": ("s", "lower"),
    "periodicity.resolution_s": ("s", "lower"),
    "periodicity.syzygy_dim_max": ("count", "lower"),
    "periodicity.detect_twist_s": ("s", "lower"),
    "periodicity.normalize_twist_s": ("s", "lower"),
    "periodicity.twist_candidates": ("count", "lower"),
    "periodicity.twist_accept_ratio": ("ratio", "higher"),
    "periodicity.is_inner_calls": ("count", "lower"),
    "periodicity.is_inner_s": ("s", "lower"),
    "modules.hom_space_calls": ("count", "lower"),
    "modules.hom_space_s": ("s", "lower"),
    "modules.iso_test_calls": ("count", "lower"),
    "modules.iso_test_s": ("s", "lower"),
    "modules.tensor_module_calls": ("count", "lower"),
    "modules.tensor_module_s": ("s", "lower"),
    "modules.tensor_dim_sum": ("count", "lower"),
    "homology.syzygy_calls": ("count", "lower"),
    "homology.syzygy_s": ("s", "lower"),
    "homology.injective_hull_calls": ("count", "lower"),
    "homology.injective_hull_s": ("s", "lower"),
    "homology.stable_inverse_calls": ("count", "lower"),
    "homology.stable_inverse_s": ("s", "lower"),
    "angulation.functor_sequence_s": ("s", "lower"),
    "angulation.evaluate_calls": ("count", "lower"),
    "angulation.evaluate_hit_ratio": ("ratio", "higher"),
    "angulation.evaluate_s": ("s", "lower"),
    "angulation.certify_angle_calls": ("count", "lower"),
    "angulation.certify_angle_s": ("s", "lower"),
    "angulation.complete_morphism_s": ("s", "lower"),
    "angulation.fill_morphism_s": ("s", "lower"),
    "angulation.good_fill_and_cone_s": ("s", "lower"),
    "axioms.verify_axioms_s": ("s", "lower"),
    "axioms.samples": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.top_level_share": ("ratio", "higher"),
}


def _digest(a) -> bytes:
    """Content digest of an ndarray, without touching the matrix's cache."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(a.shape).encode())
    if a.dtype == object:
        h.update(repr(a.tolist()).encode())
    else:
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Spans and counters of one traced round; ``reset`` starts the next."""

    def __init__(self):
        self._patches = []          # (owner, attribute, original)
        self.reset()

    # -- recording --------------------------------------------------------
    def reset(self) -> None:
        self.spans = []             # [name, start, end, parent, child_time]
        self._stack = []            # indices of open spans
        self._depth = {}            # name -> open spans of that name
        self.calls = {}
        self.total = {}             # time of spans with no same-name ancestor
        self.self_time = {}
        self.counters = {"rref_cells": 0, "matmul_mults": 0,
                         "enveloping_bytes": 0, "syzygy_dim_max": 0,
                         "twist_candidates": 0, "twist_accepted": 0,
                         "tensor_dim_sum": 0, "samples": 0,
                         "evaluate_hits": 0}
        self._rref_digests = set()
        self._envelopes = {}        # id -> weak reference (not hashable)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.calls[name] = self.calls.get(name, 0) + 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        name = span[0]
        dur = span[2] - span[1]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - span[4]
        if self._stack:
            self.spans[self._stack[-1]][4] += dur

    def _kernel(self, name: str, dur: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur
        if self._stack:
            self.spans[self._stack[-1]][4] += dur

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        for name, target in LAYERS.items():
            self._patch(target, self._span_wrapper(name, target))
        self._patch(KERNELS["fields.rref"], self._rref_wrapper)
        self._patch(KERNELS["fields.matmul"], self._matmul_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, target, make) -> None:
        mod_name, cls_name, attr = target
        module = importlib.import_module(mod_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("nangulator"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name, target):
        after = getattr(self, "_after_" + target[2], None)
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                before = tracer.calls.get("modules.tensor_module", 0)
                idx = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after is not None:
                    after(result, args, before)
                return result
            return wrapper
        return make

    def _rref_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def rref(m):
            t0 = time.perf_counter()
            result = original(m)
            tracer._kernel("fields.rref", time.perf_counter() - t0)
            tracer.counters["rref_cells"] += m.rows * m.cols
            tracer._rref_digests.add(_digest(m.a))
            return result
        return rref

    def _matmul_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def matmul(m, other):
            t0 = time.perf_counter()
            result = original(m, other)
            tracer._kernel("fields.matmul", time.perf_counter() - t0)
            tracer.counters["matmul_mults"] += m.rows * m.cols * other.cols
            return result
        return matmul

    # -- counters read off arguments and results ----------------------------
    def _after_enveloping(self, env, args, before) -> None:
        seen = self._envelopes.get(id(env))
        if seen is None or seen() is not env:  # built once, then cached
            self._envelopes[id(env)] = weakref.ref(env)
            self.counters["enveloping_bytes"] += sum(
                m.a.nbytes for m in env.right_mult)

    def _after_extend(self, result, args, before) -> None:
        res = args[0]
        dims = [s.dim for s in res.syzygies]
        if dims:
            self.counters["syzygy_dim_max"] = max(
                self.counters["syzygy_dim_max"], max(dims))

    def _after_monomial_twist_candidates(self, result, args, before):
        # computed: the scalings enumerated, (p - 1)^#arrows over F_p and
        # 2^#arrows over Q, once every arrow has one parallel image
        algebra, perm = args[0], args[1]
        q = algebra.quiver
        if q is None:
            return
        for a in q.arrows:
            hits = [b for b in q.arrows
                    if b.source == perm[a.source] and b.target == perm[a.target]]
            if len(hits) != 1:
                return
        p = algebra.field.characteristic
        self.counters["twist_candidates"] += (p - 1 if p else 2) ** len(q.arrows)
        self.counters["twist_accepted"] += len(result)

    def _after_tensor_module(self, td, args, before) -> None:
        self.counters["tensor_dim_sum"] += td.offsets[-1]

    def _after_evaluate(self, result, args, before) -> None:
        if self.calls.get("modules.tensor_module", 0) == before:
            self.counters["evaluate_hits"] += 1

    def _after_verify_axioms(self, result, args, before) -> None:
        self.counters["samples"] += result.samples

    # -- summaries ------------------------------------------------------------
    def round_metrics(self) -> dict:
        """Per-layer metrics of the current round (without trace.*)."""
        c, calls, total = self.counters, self.calls, self.total

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "fields.rref_calls": calls.get("fields.rref", 0),
            "fields.rref_cells": c["rref_cells"],
            "fields.rref_s": total.get("fields.rref", 0.0),
            "fields.rref_distinct_ratio": ratio(len(self._rref_digests),
                                                calls.get("fields.rref", 0)),
            "fields.matmul_calls": calls.get("fields.matmul", 0),
            "fields.matmul_mults": c["matmul_mults"],
            "fields.matmul_s": total.get("fields.matmul", 0.0),
            "algebra.enveloping_mb": c["enveloping_bytes"] / 2 ** 20,
            "periodicity.syzygy_dim_max": c["syzygy_dim_max"],
            "periodicity.twist_candidates": c["twist_candidates"],
            "periodicity.twist_accept_ratio": ratio(c["twist_accepted"],
                                                    c["twist_candidates"]),
            "modules.tensor_dim_sum": c["tensor_dim_sum"],
            "angulation.evaluate_hit_ratio": ratio(
                c["evaluate_hits"], calls.get("angulation.evaluate", 0)),
            "axioms.samples": c["samples"],
        }
        for metric in METRICS:
            if metric in out or metric.startswith("trace."):
                continue
            span, _, kind = metric.rpartition("_")
            out[metric] = (calls.get(span, 0) if kind == "calls"
                           else total.get(span, 0.0))
        return out

    def summary(self) -> dict:
        """Count, total and self time of every span name in this round."""
        return {name: {"count": self.calls[name],
                       "total_s": self.total.get(name, 0.0),
                       "self_s": self.self_time.get(name, 0.0)}
                for name in sorted(self.calls)}

    def top_level_share(self) -> float:
        """Share of the command spans' time spent in layer spans directly
        under them; the rest is parsing, CLI glue and report printing."""
        ops = {i for i, s in enumerate(self.spans) if s[3] == -1}
        op_time = sum(self.spans[i][2] - self.spans[i][1] for i in ops)
        covered = sum(self.spans[i][4] for i in ops)
        return covered / op_time if op_time else 0.0
