"""Span tracing of the lpcond layers from outside the package.

`Tracer.installed()` replaces the module attributes through which the
harness and CLI call each layer with wrappers that record one span per
call: (span id, name, start, end, parent span id), tagged with the run id.
Spans stay in memory until `write()`.  Nothing inside `src/` is changed;
the wrappers only see calls made through the patched names.

`layer_metrics()` turns the spans of one CLI call into the per-layer
metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
import time

# (name, unit, better): the per-layer metrics of a traced run.
PER_LAYER = (
    ("samplers.generator_us", "us/call", "lower"),
    ("samplers.generator_calls", "calls/instance", "lower"),
    ("samplers.sample_instance_us", "us/call", "lower"),
    ("samplers.uniform_block_us", "us/call", "lower"),
    ("samplers.radial_cdf_ms", "ms", "lower"),
    ("sic.rho_batch_us", "us/row", "lower"),
    ("sic.subsets_per_instance", "count", "lower"),
    ("sic.batch_bytes_computed", "bytes", "lower"),
    ("sic.exact_ratio", "ratio", "higher"),
    ("sic.fallback_calls", "count", "lower"),
    ("sic.solve_ms", "ms", "lower"),
    ("sic.bruteforce_ms", "ms", "lower"),
    ("sic.bruteforce_calls", "count", "lower"),
    ("lp.gordan_us", "us/call", "lower"),
    ("lp.simplex_per_instance", "calls/instance", "lower"),
    ("convexgeom.sconv_us", "us/call", "lower"),
    ("convexgeom.nnls_calls", "count", "lower"),
    ("convexgeom.cone_member_us", "us/call", "lower"),
    ("harness.chunk_ms.p50", "ms", "lower"),
    ("harness.chunk_ms.p90", "ms", "lower"),
    ("harness.aggregate_s", "s", "lower"),
    ("harness.persist_ms", "ms", "lower"),
    ("harness.persist_bytes", "bytes", "lower"),
    ("harness.speedup_w2", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# (module, attribute path, span name).  Each attribute is the name a caller
# looks up at call time, so replacing it is seen by every such caller.
TARGETS = (
    ("samplers", "sample_instance", "samplers.sample_instance"),
    ("samplers", "uniform_sphere_block", "samplers.uniform_sphere_block"),
    ("samplers", "RngStream.generator", "samplers.generator"),
    ("samplers", "build_radial_cdf", "samplers.build_radial_cdf"),
    ("sic", "sic_rho_batch", "sic.sic_rho_batch"),
    ("sic", "sic_solve", "sic.sic_solve"),
    ("sic", "sic_bruteforce", "sic.sic_bruteforce"),
    ("harness", "gordan_classify", "lp.gordan_classify"),
    ("lp", "simplex_solve", "lp.simplex_solve"),
    ("convexgeom", "distance_to_sconv", "convexgeom.distance_to_sconv"),
    ("convexgeom", "nnls", "convexgeom.nnls"),
    ("convexgeom", "cone_member_batch", "convexgeom.cone_member_batch"),
    ("harness", "_run_chunks", "harness._run_chunks"),
    ("harness", "persist", "harness.persist"),
    ("harness", "run_tail_experiment", "harness.run"),
    ("harness", "run_expectation_experiment", "harness.run"),
    ("harness", "run_wendel_experiment", "harness.run"),
    ("harness", "run_property_suite", "harness.run"),
)


class Tracer:
    """In-memory span recorder for one CLI call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start_ns, end_ns, parent_id)
        self.notes = []  # (span id, dict) facts read from arguments or results
        self.missing = []  # targets absent from this version of the package
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name: str, fn, note=None):
        """fn with a span per call; note(args, result) -> dict is recorded."""

        def wrapper(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            if note is not None:
                self.notes.append((sid, note(args, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        import lpcond.convexgeom
        import lpcond.harness
        import lpcond.lp
        import lpcond.samplers
        import lpcond.sic

        modules = {
            "samplers": lpcond.samplers, "sic": lpcond.sic, "lp": lpcond.lp,
            "convexgeom": lpcond.convexgeom, "harness": lpcond.harness,
        }
        notes = {
            "sic.sic_rho_batch": _rho_batch_note,
            "harness.persist": _persist_note,
        }
        saved = []
        try:
            for module, path, name in TARGETS:
                owner = modules[module]
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                if name == "harness._run_chunks":
                    replacement = self._chunk_wrapper(original)
                else:
                    replacement = self.wrap(name, original, notes.get(name))
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _chunk_wrapper(self, run_chunks):
        def wrapper(total, workers, fn):
            return run_chunks(total, workers, self.wrap("harness.chunk", fn))

        return self.wrap("harness._run_chunks", wrapper)

    def write(self, path: str):
        """Write the spans and notes as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
            for sid, fact in self.notes:
                fh.write(json.dumps({"run": self.run_id, "note_of": sid, **fact}) + "\n")


def _rho_batch_note(args, result) -> dict:
    """Batch shape, subset count, certified rows and the computed size of the
    largest intermediate array of one sic_rho_batch call."""
    B, n, d = args[0].shape
    subsets = [math.comb(n, k) for k in range(1, d + 1)]
    largest = max([B * n * n] + [
        B * S * max(k * d, k * k, n) for k, S in enumerate(subsets, start=1)
    ])
    exact = result[2]
    return {"rows": int(B), "subsets": int(sum(subsets)),
            "bytes_computed": int(8 * largest), "exact": int(exact.sum())}


def _persist_note(args, result) -> dict:
    return {"bytes": int(sum(os.path.getsize(p) for p in result))}


def layer_split(tracer: Tracer) -> dict:
    """Share of the traced call's time spent in each layer's own code.

    A span's self time is its duration minus that of its child spans; the
    layer is the part of the span name before the first dot, so the shares
    of all layers add up to one.
    """
    child_ns = _child_ns(tracer.spans)
    self_ns = {}
    for sid, name, start, end, _ in tracer.spans:
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + end - start - child_ns.get(sid, 0)
    total = sum(self_ns.values())
    return {layer: ns / total for layer, ns in sorted(self_ns.items())} if total else {}


def _child_ns(spans) -> dict:
    """Total duration of the child spans of each span id."""
    child_ns = {}
    for _, _, start, end, parent in spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
    return child_ns


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, instances: int) -> dict:
    """Per-layer metrics of one traced CLI call (see PER_LAYER).

    `instances` is the number of instances the call classifies.  Times of
    a span include its child spans, except harness.aggregate_s, which is
    the self time of the experiment runner.  A layer the workload does not
    reach reports 0.
    """
    durations = {}
    for _, name, start, end, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    child_ns = _child_ns(tracer.spans)
    notes = {}
    for _, fact in tracer.notes:
        for key, value in fact.items():
            notes.setdefault(key, []).append(value)

    def total(name, scale):
        return sum(durations.get(name, ())) / scale

    def count(name):
        return len(durations.get(name, ()))

    def per_call(name, scale):
        calls = count(name)
        return total(name, scale) / calls if calls else 0.0

    runner_self = [
        end - start - child_ns.get(sid, 0)
        for sid, name, start, end, _ in tracer.spans if name == "harness.run"
    ]
    rows = sum(notes.get("rows", ()))
    chunks_ms = [d / 1e6 for d in durations.get("harness.chunk", ())]
    gordan_calls = count("lp.gordan_classify")
    return {
        "samplers.generator_us": per_call("samplers.generator", 1e3),
        "samplers.generator_calls": count("samplers.generator") / instances,
        "samplers.sample_instance_us": per_call("samplers.sample_instance", 1e3),
        "samplers.uniform_block_us": per_call("samplers.uniform_sphere_block", 1e3),
        "samplers.radial_cdf_ms": total("samplers.build_radial_cdf", 1e6),
        "sic.rho_batch_us": total("sic.sic_rho_batch", 1e3) / rows if rows else 0.0,
        "sic.subsets_per_instance": max(notes.get("subsets", [0])),
        "sic.batch_bytes_computed": max(notes.get("bytes_computed", [0])),
        "sic.exact_ratio": sum(notes.get("exact", ())) / rows if rows else 0.0,
        "sic.fallback_calls": count("sic.sic_solve"),
        "sic.solve_ms": total("sic.sic_solve", 1e6),
        "sic.bruteforce_ms": total("sic.sic_bruteforce", 1e6),
        "sic.bruteforce_calls": count("sic.sic_bruteforce"),
        "lp.gordan_us": per_call("lp.gordan_classify", 1e3),
        "lp.simplex_per_instance":
            count("lp.simplex_solve") / gordan_calls if gordan_calls else 0.0,
        "convexgeom.sconv_us": per_call("convexgeom.distance_to_sconv", 1e3),
        "convexgeom.nnls_calls": count("convexgeom.nnls"),
        "convexgeom.cone_member_us": per_call("convexgeom.cone_member_batch", 1e3),
        "harness.chunk_ms.p50": _quantile(chunks_ms, 0.5),
        "harness.chunk_ms.p90": _quantile(chunks_ms, 0.9),
        "harness.aggregate_s": sum(runner_self) / 1e9,
        "harness.persist_ms": total("harness.persist", 1e6),
        "harness.persist_bytes": sum(notes.get("bytes", ())),
    }
