"""Span recorder for the traced benchmark run.

The recorder keeps spans in memory: name, start, end, parent span and the
operation (the benchmark's call into focklab) that caused them.  `instrument`
wraps focklab's public functions with span-recording versions at every import
site, because `integrate`, `levelset`, `verify` and `cli` bind what they use
with `from .x import ...` and patching only the defining module would miss
those calls.  `layer_metrics` turns the spans into per-layer counts, self
times and ratios.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np
from focklab.levelset import unit_ball_volume

# layer -> public functions that get a span
LAYERS = {
    "functions": ("log_density_batch", "envelope_radius"),
    "integrate": (
        "gauss_hermite_integrate",
        "radial_integrate",
        "mc_integrate",
        "convex_functional",
        "fock_norm",
    ),
    "levelset": (
        "find_max",
        "superlevel_measure",
        "superlevel_measure_exact",
        "g_diagnostic",
        "layer_cake",
    ),
    "verify": (
        "check_rearrangement_lemma",
        "check_contraction",
        "check_monotone_g",
        "check_pointwise_bound",
        "check_decay",
        "check_limit_norm",
        "check_extremal_convex",
        "check_isoperimetric_variant",
    ),
    "cli": ("main",),
}

# spans whose density points are attributed to them (innermost one wins)
POINT_OWNERS = (
    "integrate.gauss_hermite_integrate",
    "integrate.radial_integrate",
    "integrate.mc_integrate",
    "integrate.convex_functional",
)
LEMMA = "verify.check_rearrangement_lemma"


class Recorder:
    """Spans as [name, start, end, parent, op, counters] lists, in open order.

    `op` identifies the operation a span serves: the index of its root span,
    which is the benchmark's own call into focklab.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.log_g_calls = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent, op = (self._stack[-1], self.spans[self._stack[0]][4]) if self._stack else (-1, idx)
        self.spans.append([name, time.perf_counter(), None, parent, op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counters in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if counters:
                    row.update(counters)
                fh.write(json.dumps(row) + "\n")


def _counters(name, args, kwargs, result):
    """Counts read off a call's arguments and result, or None."""
    if name == "functions.log_density_batch":
        X = args[2] if len(args) > 2 else kwargs["X"]
        return {"points": int(np.shape(X)[0])}
    if name == "levelset.find_max":
        return {"agreeing": result.restarts_agreeing, "restarts": result.restarts_total}
    if name == "levelset.g_diagnostic":
        return {"levels": len(result.t_grid)}
    if name == "levelset.superlevel_measure":
        params = args[1] if len(args) > 1 else kwargs["params"]
        hits = 0
        if result.ball_radius > 0:
            vol = unit_ball_volume(params.m) * result.ball_radius**params.m
            hits = int(round(result.value / vol * result.samples))
        return {"samples": result.samples, "hits": hits}
    return None


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.spans[idx][5] = _counters(name, args, kwargs, result)
        return result

    return traced


def instrument(rec: Recorder):
    """Replace every binding of the traced functions in focklab's modules.

    Returns a callable that puts the original functions back.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "focklab" or n.startswith("focklab.")]
    undo = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"focklab.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = _wrap(rec, f"{layer}.{fname}", original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    profile_cls = sys.modules["focklab.verify"].PowerDecayProfile
    log_g = profile_cls.log_g

    @functools.wraps(log_g)
    def counted_log_g(self, log_t):
        rec.log_g_calls += 1
        return log_g(self, log_t)

    profile_cls.log_g = counted_log_g
    undo.append((profile_cls, "log_g", log_g))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced: list[float], untraced: list[float], artifact_bytes: int) -> dict:
    """Per-layer metrics from the spans of the traced passes, per pass.

    `traced` and `untraced` are the pass wall times with and without spans;
    counts, self times and artifact bytes are divided by the traced pass count.
    """
    passes = len(traced)
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = [s[2] - s[1] - c for s, c in zip(spans, child)]

    def nearest(idx, names):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return parent
            parent = spans[parent][3]
        return -1

    group = {}
    for i, s in enumerate(spans):
        name = s[0]
        if name.startswith("verify.check_") and name != LEMMA:
            name = "verify.checks"
        g = group.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        g["calls"] += 1
        g["self_s"] += self_s[i]
        g["incl_s"] += s[2] - s[1]

    points = dict.fromkeys(POINT_OWNERS, 0)
    bulk_points = bulk_s = single_calls = single_s = 0.0
    density_calls_in_max = 0
    for i, s in enumerate(spans):
        if s[0] != "functions.log_density_batch":
            continue
        n = s[5]["points"]
        if n > 1:
            bulk_points += n
            bulk_s += self_s[i]
        else:
            single_calls += 1
            single_s += self_s[i]
        owner = nearest(i, POINT_OWNERS)
        if owner >= 0:
            points[spans[owner][0]] += n
        if nearest(i, ("levelset.find_max",)) >= 0:
            density_calls_in_max += 1

    def total(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    out = {}

    def put(name, value, unit, per_pass=False):
        out[name] = {"value": float(value) / (passes if per_pass else 1), "unit": unit}

    def layer(name):
        g = group.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        put(f"{name}.calls", g["calls"], "count", True)
        put(f"{name}.self_s", g["self_s"], "s", True)
        return g

    layer("functions.log_density_batch")
    put("functions.log_density_batch.bulk_points", bulk_points, "count", True)
    put("functions.log_density_batch.bulk_mpts_per_s", _ratio(bulk_points, bulk_s) / 1e6, "Mpts/s")
    put("functions.log_density_batch.single_calls", single_calls, "count", True)
    put("functions.log_density_batch.single_us_per_call", _ratio(single_s, single_calls) * 1e6, "us")
    layer("functions.envelope_radius")
    for name in POINT_OWNERS:
        layer(name)
        put(f"{name}.points", points[name], "count", True)
    layer("integrate.fock_norm")
    layer("levelset.find_max")
    put("levelset.find_max.density_calls", density_calls_in_max, "count", True)
    put(
        "levelset.find_max.agree_ratio",
        _ratio(total("levelset.find_max", "agreeing"), total("levelset.find_max", "restarts")),
        "ratio",
    )
    layer("levelset.superlevel_measure")
    samples = total("levelset.superlevel_measure", "samples")
    put("levelset.superlevel_measure.samples", samples, "count", True)
    put(
        "levelset.superlevel_measure.hit_ratio",
        _ratio(total("levelset.superlevel_measure", "hits"), samples),
        "ratio",
    )
    layer("levelset.superlevel_measure_exact")
    layer("levelset.g_diagnostic")
    put("levelset.g_diagnostic.levels", total("levelset.g_diagnostic", "levels"), "count", True)
    layer("levelset.layer_cake")
    lemma = layer(LEMMA)
    put(f"{LEMMA}.ms_per_case", _ratio(lemma["incl_s"], lemma["calls"]) * 1e3, "ms")
    put(f"{LEMMA}.log_g_calls", rec.log_g_calls, "count", True)
    layer("verify.checks")
    layer("cli.main")
    put("cli.main.artifact_bytes", artifact_bytes, "B", True)

    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
    put("trace.overhead_s", statistics.median(traced) - statistics.median(untraced), "s")
    put("trace.uncovered_share", _ratio(sum(traced) - covered, sum(traced)), "ratio")
    return out
