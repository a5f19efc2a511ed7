"""In-memory span tracer and the layer wrappers of the traced benchmark run.

A span is (name, start, end, parent index, run id). Spans are kept in a
list while the benchmark runs and written out once at the end.

``protocol`` and ``local_residual`` bind their callees at import time
(``from .persistence import capped_exact_diagrams``), so every wrapper
replaces the attribute the *caller* looks up, such as
``topoattn.protocol.local_block_tensor``. A wrapper on the defining module
would see zero calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb

from topoattn import attention, audit, local_residual, protocol, topo_bias
from topoattn.persistence import EXACT_POINT_CAP
from topoattn.topo_bias import CHANNELS


class Tracer:
    """Records spans and counters, and patches/restores module attributes."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)  # (run id, counter) -> value
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, time.perf_counter())

    def add(self, counter: str, value: float) -> None:
        self.counters[(self.run_id, counter)] += value

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) returning
        one; ``on_call(result, args, kwargs)`` may add counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, parent, label, start, time.perf_counter())
            if on_call is not None:
                on_call(result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def aggregate(self, run_id: str) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over one run id."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if parent >= 0 and rid == run_id:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(idx, 0.0)
        return out

    def durations(self, run_id: str, prefix: str) -> list[float]:
        return [end - start for name, start, end, _, rid in self.spans
                if rid == run_id and name.startswith(prefix)]

    def counter(self, run_id: str, counter: str) -> float:
        return self.counters.get((run_id, counter), 0.0)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, rid]) + "\n")


# ---------------------------------------------------------------------------
# layer wrappers


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _rips_name(args, kwargs) -> str:
    return f"persistence.rips{_point_count(args, kwargs)}"


def _point_count(args, kwargs) -> int:
    distances = _arg(args, kwargs, 0, "D")
    n = getattr(distances, "values", distances).shape[0]
    return min(n, kwargs.get("cap", args[1] if len(args) > 1 else EXACT_POINT_CAP))


def _run_mode_name(args, kwargs) -> str:
    mode = _arg(args, kwargs, 1, "mode")
    if mode.mode_id.startswith("zeng"):
        bucket = "zeng"
    elif mode.with_residual:
        bucket = "resid"
    else:
        bucket = {"none": "classical", "static-grid": "static_grid",
                  "learned-eta": "learned_eta"}[mode.strength_source]
    return f"protocol.run_mode.{bucket}"


def install_all_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    def count_simplices(result, args, kwargs):
        n = _point_count(args, kwargs)
        tracer.add("persistence.simplices", sum(comb(n, k) for k in range(1, 5)))

    for owner in (local_residual, topo_bias):
        tracer.wrap(owner, "capped_exact_diagrams", _rips_name, count_simplices)
    tracer.wrap(local_residual, "path_sublevel_h0", "persistence.path_h0")
    tracer.wrap(local_residual, "vectorize_diagram", "persistence.vectorize")

    def count_guard(result, args, kwargs):
        tracer.add("local_residual.guard_accepted", float(result[0].accepted))

    tracer.wrap(protocol, "local_block_tensor", "local_residual.block_tensor")
    tracer.wrap(protocol, "fit_local_projection", "local_residual.projection_fit")
    tracer.wrap(protocol, "fit_local_head", "local_residual.zeng_head")
    tracer.wrap(protocol, "guarded_blend", "local_residual.guard", count_guard)

    def stack_name(args, kwargs) -> str:
        return "topo_bias.stack." + "+".join(_arg(args, kwargs, 1, "channels"))

    tracer.wrap(protocol, "bias_stacks", stack_name)
    tracer.wrap(protocol, "aet_calibrate", "topo_bias.aet_calibrate")
    tracer.wrap(attention, "window_bias_stack", "topo_bias.window_stack")

    def count_epochs(result, args, kwargs):
        info = result[2]
        history = info["val_history"]
        tracer.add("attention.epochs_run", info["epochs_run"])
        tracer.add("attention.best_epoch", history.index(min(history)))

    for owner in (protocol, local_residual):
        tracer.wrap(owner, "ridge_fit", "attention.ridge_fit")
    for owner in (protocol, attention):
        tracer.wrap(owner, "biased_logits", "attention.biased_logits")
        tracer.wrap(owner, "row_softmax", "attention.softmax")
    # attention_features (inside predict) and the learned-eta training both
    # reach attention_feature_matrix through the attention module
    for owner in (protocol, attention):
        tracer.wrap(owner, "attention_feature_matrix", "attention.features")
    tracer.wrap(protocol, "train_temperatures", "attention.train_temperatures", count_epochs)
    tracer.wrap(attention, "predict", "attention.predict")

    tracer.wrap(protocol.SplitContext, "__init__", "protocol.split_context")
    tracer.wrap(protocol.SplitContext, "stack_for", "protocol.stack_for")
    tracer.wrap(protocol, "calibrate_cell", "protocol.calibrate")
    tracer.wrap(protocol, "run_mode_detailed", _run_mode_name)

    for owner in (protocol, topo_bias, attention):
        tracer.wrap(owner, "pairwise_euclidean", "geometry.pairwise_euclidean")

    tracer.wrap(audit, "signflip_p", "audit.signflip")
    tracer.wrap(audit, "bootstrap_ci", "audit.bootstrap")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, run_id: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    agg = tracer.aggregate(run_id)

    def calls(prefix: str) -> int:
        return sum(v[0] for k, v in agg.items() if k.startswith(prefix))

    def secs(prefix: str) -> float:
        return sum(v[1] for k, v in agg.items() if k.startswith(prefix))

    def self_secs(name: str) -> float:
        return agg[name][2] if name in agg else 0.0

    def count(name: str) -> float:
        return tracer.counter(run_id, name)

    m: dict[str, float] = {}
    for n in (8, 16):
        m[f"persistence.rips{n}_s"] = secs(f"persistence.rips{n}")
        m[f"persistence.rips{n}_calls"] = calls(f"persistence.rips{n}")
    m["persistence.simplices"] = count("persistence.simplices")
    for part in ("path_h0", "vectorize"):
        m[f"persistence.{part}_s"] = secs(f"persistence.{part}")
        m[f"persistence.{part}_calls"] = calls(f"persistence.{part}")

    m["local_residual.block_tensor_s"] = secs("local_residual.block_tensor")
    m["local_residual.block_tensor_self_s"] = self_secs("local_residual.block_tensor")
    m["local_residual.block_tensor_calls"] = calls("local_residual.block_tensor")
    m["local_residual.projection_fit_s"] = secs("local_residual.projection_fit")
    m["local_residual.zeng_head_s"] = secs("local_residual.zeng_head")
    m["local_residual.guard_s"] = secs("local_residual.guard")
    m["local_residual.guard_calls"] = calls("local_residual.guard")
    m["local_residual.guard_accept_ratio"] = _ratio(
        count("local_residual.guard_accepted"), calls("local_residual.guard"))

    m["topo_bias.bias_stacks_s"] = secs("topo_bias.stack.")
    m["topo_bias.bias_stacks_calls"] = calls("topo_bias.stack.")
    for channel in CHANNELS:  # the campaign builds one channel per bias_stacks call
        m[f"topo_bias.stack.{channel}_s"] = agg[f"topo_bias.stack.{channel}"][1]
    m["topo_bias.aet_calibrate_s"] = secs("topo_bias.aet_calibrate")
    m["topo_bias.window_stack_s"] = secs("topo_bias.window_stack")

    m["attention.ridge_fit_s"] = secs("attention.ridge_fit")
    m["attention.ridge_fit_calls"] = calls("attention.ridge_fit")
    m["attention.biased_logits_s"] = secs("attention.biased_logits")
    m["attention.softmax_s"] = secs("attention.softmax")
    m["attention.features_s"] = secs("attention.features")
    m["attention.train_temperatures_s"] = secs("attention.train_temperatures")
    m["attention.epochs_run"] = count("attention.epochs_run")
    m["attention.useful_epoch_ratio"] = _ratio(
        count("attention.best_epoch"), count("attention.epochs_run"))
    m["attention.predict_s"] = secs("attention.predict")
    m["attention.predict_calls"] = calls("attention.predict")

    m["protocol.split_context_s"] = secs("protocol.split_context")
    m["protocol.calibrate_self_s"] = self_secs("protocol.calibrate")
    for bucket in ("classical", "static_grid", "learned_eta", "zeng", "resid"):
        m[f"protocol.run_mode.{bucket}_s"] = secs(f"protocol.run_mode.{bucket}")
    m["protocol.stack_requests"] = calls("protocol.stack_for")
    m["protocol.stack_hit_ratio"] = (
        1.0 - _ratio(calls("topo_bias.stack."), calls("protocol.stack_for"))
        if calls("protocol.stack_for") else 0.0)
    m["protocol.output_files"] = count("protocol.output_files")
    m["protocol.output_bytes"] = count("protocol.output_bytes")

    m["geometry.pairwise_euclidean_s"] = secs("geometry.pairwise_euclidean")
    m["geometry.pairwise_euclidean_calls"] = calls("geometry.pairwise_euclidean")

    m["audit.audit_s"] = secs("audit.audit")
    m["audit.signflip_s"] = secs("audit.signflip")
    m["audit.bootstrap_s"] = secs("audit.bootstrap")
    m["audit.units"] = count("audit.units")
    return m


def span_counts(tracer: Tracer, run_id: str) -> dict[str, int]:
    return {name: v[0] for name, v in tracer.aggregate(run_id).items()}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
