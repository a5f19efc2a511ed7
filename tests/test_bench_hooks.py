"""The traced benchmark run patches library names; they must all exist.

``bench/tracer.py`` wraps attributes of the library modules by name. A
rename or deletion in the library would make ``bench/run.py --trace 1``
stop with an AttributeError; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

from topoattn import attention, local_residual, persistence, protocol, topo_bias

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
