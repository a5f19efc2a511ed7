"""The traced benchmark run patches library names; they must all exist.

``bench/tracer.py`` wraps attributes of the library modules by name. A
rename or deletion in the library would make ``bench/run.py --trace 1``
stop with an AttributeError; this test makes it fail here instead. The
traced run also checks how often each wrapped layer is called
(``EXPECTED_SPANS`` in ``bench/run.py``); the call-pattern and
persistence-count tests below check the same per-call patterns on a
small context, so a refactor that changes them fails here first. The
predict-stream workload rebuilds a model from
the ``model_sink`` payload of ``run_mode_detailed``; the payload test
below rebuilds it the same way and checks its predictions.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from topoattn import attention, local_residual, persistence, protocol, topo_bias
from topoattn.datasets import gen_cyclic_h1
from topoattn.geometry import KernelSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores():
    originals = {
        (owner, name): getattr(owner, name)
        for owner, name in (
            (local_residual, "capped_exact_diagrams"),
            (topo_bias, "capped_exact_diagrams"),
            (attention, "pairwise_euclidean"),
            (protocol, "pairwise_euclidean"),
            (topo_bias, "pairwise_euclidean"),
            (protocol, "local_block_tensor"),
            (attention, "window_bias_stack"),
        )
    }
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_all_layers(tracer)
        assert local_residual.capped_exact_diagrams is not persistence.capped_exact_diagrams
    finally:
        tracer.restore()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original


@pytest.fixture(scope="module")
def traced_ctx():
    ctx = protocol.SplitContext(gen_cyclic_h1(3, n_windows=80, n_tokens=16), 0.0)
    by_id = {m.mode_id: m for m in protocol.MODE_REGISTRY}
    modes = [by_id["zeng_local_h0"], by_id["static_h0_resid"]]
    return ctx, by_id, protocol.calibrate_cell(ctx, 1, modes)


def test_traced_call_pattern(traced_ctx):
    ctx, by_id, calibration = traced_ctx
    p = ctx.scaled.shape[2]
    model = attention.ForecastModel(
        mode=by_id["static_h0"],
        attn=attention.init_attention_params(p, 1),
        strengths={"H0": 0.5},
        ridge=attention.RidgeModel(weights=np.ones(5 * p), intercept=0.0, penalty=1.0),
    )
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_all_layers(tracer)
        tracer.run_id = "predict"
        attention.predict(ctx.scaled[0], model)
        for mode_id in ("zeng_local_h0", "static_h0_resid"):
            tracer.run_id = mode_id
            protocol.run_mode_detailed(ctx, by_id[mode_id], 1, calibration)
    finally:
        tracer.restore()

    def calls(run_id, prefix):
        counts = tracer_module.span_counts(tracer, run_id)
        return sum(n for name, n in counts.items() if name.startswith(prefix))

    assert calls("predict", "attention.predict") == 1
    assert calls("predict", "attention.softmax") == 1
    assert calls("predict", "attention.features") == 1
    assert calls("predict", "topo_bias.window_stack") >= 1
    assert calls("predict", "topo_bias.stack.") == 0
    assert calls("zeng_local_h0", "local_residual.zeng_head") == 1
    assert calls("static_h0_resid", "local_residual.zeng_head") == 0
    # the global and residual heads reach ridge_fit through the protocol
    # module's attribute, which the traced run wraps; a fit bound to the
    # function at import time would hide every one of them
    assert calls("static_h0_resid", "attention.ridge_fit") >= 1


def test_traced_persistence_counts():
    # a 16-token window has three 8-point cover elements and one 16-point
    # element; each element gets one engine call, two path-H0 calls and
    # seven vectorize calls, the per-element pattern behind the persistence
    # counts of EXPECTED_SPANS
    ctx = protocol.SplitContext(gen_cyclic_h1(3, n_windows=80, n_tokens=16), 0.0)
    n_windows = ctx.scaled.shape[0]
    assert n_windows == 80 and [stop - start for start, stop in ctx.cover] == [8, 8, 8, 16]
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_all_layers(tracer)
        tracer.run_id = "phi"
        ctx.local_phi()
    finally:
        tracer.restore()
    assert tracer_module.span_counts(tracer, "phi") == {
        "local_residual.block_tensor": 1,
        "persistence.rips8": 240,
        "persistence.rips16": 80,
        "persistence.path_h0": 640,
        "persistence.vectorize": 2240,
    }
    # 162 simplices of dimension 0-3 per 8-point call, 2516 per 16-point call
    assert tracer.counter("phi", "persistence.simplices") == 240 * 162 + 80 * 2516


def test_model_sink_payload_rebuilds_predictions(traced_ctx):
    # predict-stream rebuilds static_hybrid from these payload keys, as here
    ctx, by_id, _ = traced_ctx
    mode = by_id["static_hybrid"]
    sink: dict = {}
    protocol.run_mode_detailed(ctx, mode, 1, protocol.calibrate_cell(ctx, 1, [mode]), model_sink=sink)
    payload = sink["static_hybrid"]
    model = attention.ForecastModel(
        mode=mode,
        attn=attention.init_attention_params(ctx.scaled.shape[2], 1),
        strengths=payload["strengths"],
        ridge=attention.RidgeModel(
            weights=np.asarray(payload["head_weights"]),
            intercept=payload["head_intercept"],
            penalty=payload["lambda"],
        ),
        kernel_spec=KernelSpec(ctx.kernel_bandwidth),
        aet_params=ctx.aet_params(1),
    )
    assert payload["strengths"] and payload["test_indices"] == list(range(ctx.test_rows.start, ctx.test_rows.stop))
    predicted = [attention.predict(ctx.scaled[i], model) for i in payload["test_indices"]]
    np.testing.assert_allclose(predicted, payload["y_test_pred"], rtol=0, atol=1e-9)


def test_traced_learned_eta_epochs(traced_ctx, monkeypatch):
    # the traced run reads epochs_run from index 2 of train_temperatures' result
    ctx, by_id, calibration = traced_ctx
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    infos = []
    try:
        tracer_module.install_all_layers(tracer)
        traced = protocol.train_temperatures

        def recording(*args, **kwargs):
            result = traced(*args, **kwargs)
            infos.append(result[2])
            return result

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "train_temperatures", recording)
            tracer.run_id = "learned"
            protocol.run_mode_detailed(ctx, by_id["learned_eta_euclidean"], 1, calibration)
    finally:
        tracer.restore()
    counts = tracer_module.span_counts(tracer, "learned")
    assert counts.get("attention.train_temperatures") == 1
    (info,) = infos
    epochs = tracer.counter("learned", "attention.epochs_run")
    assert epochs == len(info["val_history"]) - 1 and epochs > 0


def test_train_sigmas_reach_traced_distance():
    # the traced run counts geometry.pairwise_euclidean spans through the
    # protocol and topo_bias attributes; both train-sigma calibrations use them
    ds = gen_cyclic_h1(3, n_windows=40, n_tokens=16)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_all_layers(tracer)
        tracer.run_id = "context"
        ctx = protocol.SplitContext(ds, 0.0)
        tracer.run_id = "aet"
        ctx.aet_params(1)
    finally:
        tracer.restore()
    for run_id in ("context", "aet"):
        counts = tracer_module.span_counts(tracer, run_id)
        assert counts.get("geometry.pairwise_euclidean", 0) >= 1


def test_split_stacks_share_one_distance_tensor(monkeypatch):
    # the traced run names bias-stack spans from bias_stacks' second
    # positional argument; the split's distance tensor rides on a keyword
    built = []
    for owner in (protocol, topo_bias):
        original = owner.stacked_euclidean

        def counting(windows, original=original):
            built.append(windows.shape)
            return original(windows)

        monkeypatch.setattr(owner, "stacked_euclidean", counting)
    ctx = protocol.SplitContext(gen_cyclic_h1(3, n_windows=40, n_tokens=12), 0.0)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_all_layers(tracer)
        tracer.run_id = "h0"
        ctx.stack_for("H0", 1)
        tracer.run_id = "rest"
        for channel in topo_bias.CHANNELS:
            ctx.stack_for(channel, 1)
    finally:
        tracer.restore()
    assert tracer_module.span_counts(tracer, "h0") == {
        "protocol.stack_for": 1, "topo_bias.stack.H0": 1}
    rest = tracer_module.span_counts(tracer, "rest")
    assert all(rest[f"topo_bias.stack.{c}"] == 1 for c in topo_bias.CHANNELS if c != "H0")
    assert built == [ctx.scaled.shape]
