"""The traced benchmark run patches library names; they must all exist.

``bench/tracer.py`` wraps attributes of the library modules by name. A
rename or deletion in the library would make ``bench/run.py --trace 1``
stop with an AttributeError; this test makes it fail here instead. The
traced run also checks how often each wrapped layer is called
(``EXPECTED_SPANS`` in ``bench/run.py``); the call-pattern test below
checks the same counts on a small context, so a refactor that changes
them fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from topoattn import attention, local_residual, persistence, protocol, topo_bias
from topoattn.datasets import gen_cyclic_h1

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
