"""End-to-end and per-layer benchmark of the topoattn library.

Run from the root of a checkout:

    python3 bench/run.py --workload registry-stress --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``registry-stress``: the full 25-mode registry on one stress cell
  (offset 0.0) through ``run_campaign``.
* ``global-grid``: the 12 global modes on stress, cyclic and shell at
  offsets -0.05/0.0/+0.05, followed by ``audit_results_dir``.
* ``predict-stream``: single-window ``attention.predict``, twice over all
  820 windows of the three datasets, with ``static_hybrid`` models fitted
  in set-up.

Each workload is a closed loop with one caller: passes repeat until the
next one would end after ``--seconds``. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # pin BLAS/OpenMP before numpy is imported
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if not (SRC / "topoattn" / "__init__.py").is_file():
    sys.exit(f"error: no topoattn package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import topoattn  # noqa: E402
from topoattn import attention, audit, datasets, protocol, topo_bias  # noqa: E402
from topoattn.attention import ForecastModel, RidgeModel, init_attention_params  # noqa: E402
from topoattn.geometry import KernelSpec  # noqa: E402

from tracer import (  # noqa: E402
    Tracer,
    install_all_layers,
    median_metrics,
    pass_metrics,
    span_counts,
)

_IMPORTED = time.perf_counter()

WORKLOADS = ("registry-stress", "global-grid", "predict-stream")
#: Campaign seeds with stored output digests; --seed n maps to 1 + (n - 1) mod 10.
REFERENCE_SEEDS = 10
SETUP_REPEATS = 3
PREDICT_TOLERANCE = 1e-9
#: predict-stream passes over its 820 windows this often, so that one pass
#: has 1640 calls and its p99 has at least ten calls beyond it.
STREAM_ROUNDS = 2
GLOBAL_MODES = tuple(
    m.mode_id for m in protocol.MODE_REGISTRY
    if not m.with_residual and not m.mode_id.startswith("zeng")
)
GENERATORS = (datasets.gen_higher_topology, datasets.gen_cyclic_h1, datasets.gen_shell_h2)
SOME = "nonzero"

#: Span counts a traced pass must show (span-name prefix -> count or SOME).
#: Shapes are fixed by the generators, so the counts hold for every seed.
EXPECTED_SPANS = {
    "registry-stress": {
        "protocol.run_mode.": 25,
        "protocol.split_context": 1,
        "protocol.calibrate": 1,
        "local_residual.block_tensor": 1,
        "persistence.rips8": 2100,
        "persistence.rips16": 900,
        "persistence.path_h0": 6000,
        "persistence.vectorize": 21000,
        "local_residual.projection_fit": 1,
        "local_residual.zeng_head": 1,
        "local_residual.guard": 12,
        "attention.train_temperatures": 3,
        "topo_bias.stack.": SOME,
        "topo_bias.aet_calibrate": SOME,
        "attention.ridge_fit": SOME,
        "geometry.pairwise_euclidean": SOME,
        "attention.predict": 0,
        "topo_bias.window_stack": 0,
        "audit.": 0,
    },
    "global-grid": {
        "protocol.run_mode.": 108,
        "protocol.split_context": 9,
        "protocol.calibrate": 9,
        "persistence.": 0,
        "local_residual.": 0,
        "attention.train_temperatures": 27,
        "topo_bias.stack.": SOME,
        "topo_bias.aet_calibrate": SOME,
        "attention.ridge_fit": SOME,
        "geometry.pairwise_euclidean": SOME,
        "audit.audit": 1,
        "audit.signflip": SOME,
        "audit.bootstrap": SOME,
        "attention.predict": 0,
        "topo_bias.window_stack": 0,
    },
    "predict-stream": {
        "attention.predict": 820 * STREAM_ROUNDS,
        "attention.softmax": 820 * STREAM_ROUNDS,
        "attention.features": 820 * STREAM_ROUNDS,
        "topo_bias.window_stack": SOME,
        "persistence.": 0,
        "local_residual.": 0,
        "protocol.": 0,
        "topo_bias.stack.": 0,
        "attention.ridge_fit": 0,
        "audit.": 0,
    },
}


@dataclass
class PassResult:
    wall: float
    attempted: int
    failed: int
    latencies: list


def campaign_seed(seed: int) -> int:
    return (seed - 1) % REFERENCE_SEEDS + 1


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under a campaign output directory, by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _report(what: str, exc: Exception) -> None:
    print(f"error: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)


@contextmanager
def timed_fits(latencies: list):
    """Append the wall time of every ``run_mode_detailed`` fit the campaign makes."""
    original = protocol.run_mode_detailed

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    protocol.run_mode_detailed = timed
    try:
        yield
    finally:
        protocol.run_mode_detailed = original


# ---------------------------------------------------------------------------
# workloads


class CampaignWorkload:
    """A single-process slice of the pinned campaign, checked against digests.

    A call is one mode fit with ``fit_calls``, else one whole pass.
    """

    def __init__(self, name: str, seed: int, generators, offsets, mode_ids,
                 run_audit: bool, fit_calls: bool):
        self.name = name
        self.seed = seed
        self.generators = generators
        self.offsets = offsets
        self.mode_ids = mode_ids
        self.run_audit = run_audit
        self.fit_calls = fit_calls
        self.expected_rows = len(generators) * len(offsets) * len(mode_ids)
        self.datasets: list = []
        self.reference: dict = {}
        if REFERENCE_PATH.is_file():
            table = json.loads(REFERENCE_PATH.read_text())
            self.reference = table.get(name, {}).get(str(seed), {})

    def setup(self, tracer: Tracer) -> tuple[int, int]:
        with tracer.span("datasets.generate"):
            self.datasets = [gen(self.seed) for gen in self.generators]
        return 0, 0

    def execute(self, out_dir: Path, tracer: Tracer) -> tuple[int, int, int]:
        """Run the campaign (and audit) into ``out_dir``: (attempted, failed, rows)."""
        rows = 0
        try:
            results, _ = protocol.run_campaign(
                self.datasets, seeds=(self.seed,), offsets=self.offsets,
                mode_ids=self.mode_ids, out_dir=out_dir, n_workers=1,
            )
            rows = len(results)
        except Exception as exc:  # a failed fit is counted, the loop goes on
            _report("run_campaign", exc)
        attempted = self.expected_rows
        failed = abs(self.expected_rows - rows)
        if self.run_audit:
            attempted += 1
            try:
                with tracer.span("audit.audit"):
                    summary, _ = audit.audit_results_dir(out_dir)
                tracer.add("audit.units", summary.units)
            except Exception as exc:
                _report("audit_results_dir", exc)
                failed += 1
        return attempted, failed, rows

    def run_pass(self, tracer: Tracer, scratch: Path) -> PassResult:
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        fits: list = []
        try:
            start = time.perf_counter()
            with timed_fits(fits) if self.fit_calls else nullcontext():
                attempted, failed, _ = self.execute(out_dir, tracer)
            wall = time.perf_counter() - start
            digests = output_digests(out_dir)
            tracer.add("protocol.output_files", len(digests))
            tracer.add("protocol.output_bytes",
                       sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        names = set(digests) | set(self.reference)
        mismatched = sorted(n for n in names if digests.get(n) != self.reference.get(n))
        if mismatched:
            print(f"error: output digests differ from the reference: {mismatched}", file=sys.stderr)
        latencies = fits if self.fit_calls else [wall]
        return PassResult(wall, attempted + len(names), failed + len(mismatched), latencies)


class PredictStream:
    """Single-window predict over a stream of windows, checked against the batched path.

    The models are always ``static_hybrid`` fitted on the seed-1, offset-0
    cell of each dataset, so every seed predicts with the same channels;
    the seed draws the 820 windows of the stream.
    """

    name = "predict-stream"
    fit_seed = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list = []  # (tokens, model, batched prediction)

    def setup(self, tracer: Tracer) -> tuple[int, int]:
        with tracer.span("datasets.generate"):
            fit_data = [gen(self.fit_seed) for gen in GENERATORS]
            stream = [gen(self.seed) for gen in GENERATORS]
        mode = next(m for m in protocol.MODE_REGISTRY if m.mode_id == "static_hybrid")
        items, attempted, failed = [], 0, 0
        for fit_ds, ds in zip(fit_data, stream):
            ctx = protocol.SplitContext(fit_ds, 0.0)
            calibration = protocol.calibrate_cell(ctx, self.fit_seed, [mode])
            sink: dict = {}
            protocol.run_mode_detailed(ctx, mode, self.fit_seed, calibration, model_sink=sink)
            payload = sink[mode.mode_id]
            model = ForecastModel(
                mode=mode,
                attn=init_attention_params(fit_ds.windows.shape[2], self.fit_seed),
                strengths=payload["strengths"],
                ridge=RidgeModel(
                    weights=np.asarray(payload["head_weights"]),
                    intercept=payload["head_intercept"],
                    penalty=payload["lambda"],
                ),
                kernel_spec=KernelSpec(ctx.kernel_bandwidth),
                aet_params=ctx.aet_params(self.fit_seed),
            )
            # the batched replay must reproduce the campaign's own test predictions
            replay = _batched_predictions(ctx.scaled, model)[payload["test_indices"]]
            gap = np.abs(replay - np.asarray(payload["y_test_pred"]))
            attempted += gap.size
            failed += int(np.sum(gap > PREDICT_TOLERANCE))
            windows = datasets.apply_scaler(ctx.scaler, ds.windows)
            batched = _batched_predictions(windows, model)
            items += [(windows[i], model, float(batched[i])) for i in range(len(windows))]
        self.items = items
        return attempted, failed

    def run_pass(self, tracer: Tracer, scratch: Path) -> PassResult:
        predict = attention.predict  # looked up per pass so a traced pass sees its wrapper
        latencies, failed = [], 0
        clock = time.perf_counter
        start = clock()
        for tokens, model, expected in self.items * STREAM_ROUNDS:
            t0 = clock()
            try:
                y = predict(tokens, model)
            except Exception as exc:
                latencies.append(clock() - t0)
                _report("predict", exc)
                failed += 1
                continue
            latencies.append(clock() - t0)
            if abs(y - expected) > PREDICT_TOLERANCE:
                failed += 1
        wall = clock() - start
        return PassResult(wall, len(latencies), failed, latencies)


def _batched_predictions(windows: np.ndarray, model: ForecastModel) -> np.ndarray:
    """The campaign's batched forward path (``protocol._features_at`` + Ridge)."""
    active = tuple(c for c, s in model.strengths.items() if s != 0.0)
    stacks = topo_bias.bias_stacks(
        windows, active, aet_params=model.aet_params, kernel_spec=model.kernel_spec)
    base = attention.attention_logits_batch(windows, model.attn)
    logits = attention.biased_logits(base, stacks, model.strengths)
    feats = attention.attention_feature_matrix(windows, attention.row_softmax(logits))
    return attention.ridge_predict(model.ridge, feats)


def make_workload(name: str, seed: int):
    all_modes = tuple(m.mode_id for m in protocol.MODE_REGISTRY)
    if name == "registry-stress":
        # the median of its 25 fits sits where the 5-17 ms residual fits meet
        # the 15-500 ms global fits, so a per-fit p50 changes 2x with the seed
        return CampaignWorkload(
            name, seed, GENERATORS[:1], (0.0,), all_modes, run_audit=False, fit_calls=False)
    if name == "global-grid":
        return CampaignWorkload(
            name, seed, GENERATORS, datasets.SPLIT_OFFSETS, GLOBAL_MODES, run_audit=True, fit_calls=True)
    if name == "predict-stream":
        return PredictStream(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "topoattn": topoattn.__version__,
    }


# ---------------------------------------------------------------------------
# measurement


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter that starts and imports the library."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import topoattn"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure(workload, seconds: float, trace: bool, tracer: Tracer):
    """Set up SETUP_REPEATS times, then run passes until ``seconds`` is used.

    With ``trace`` the passes alternate untraced/traced, at least one each.
    """
    import_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    setup_times, attempted, failed = [], 0, 0
    for k in range(SETUP_REPEATS):
        tracer.run_id = f"setup-{k}"
        start = time.perf_counter()
        attempted, failed = workload.setup(tracer)
        setup_times.append(time.perf_counter() - start)

    passes: list[tuple[str, bool, PassResult]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer.run_id = f"pass-{len(passes)}"
        if traced:
            install_all_layers(tracer)
        try:
            result = workload.run_pass(tracer, OUT_DIR)
        finally:
            tracer.restore()
        passes.append((tracer.run_id, traced, result))
        typical = statistics.median(p.wall for _, _, p in passes)
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() - start + typical > seconds:
            break
    return import_times, setup_times, attempted, failed, passes


def self_check(workload_name: str, tracer: Tracer, run_ids: list[str]) -> list[str]:
    """Violations of EXPECTED_SPANS in the traced passes."""
    violations = []
    for rid in run_ids:
        counts = span_counts(tracer, rid)
        for prefix, expected in EXPECTED_SPANS[workload_name].items():
            seen = sum(n for name, n in counts.items() if name.startswith(prefix))
            if (expected == SOME and seen == 0) or (expected != SOME and seen != expected):
                violations.append(f"{rid}: {prefix}* calls {seen}, expected {expected}")
    return violations


def tail_percentile(samples: int) -> int:
    """The highest of p99, p90 and p50 that has at least ten samples beyond it."""
    return next((q for q in (99, 90) if samples * (100 - q) >= 1000), 50)


def call_percentile_ms(passes: list, q: int) -> float:
    """q-th percentile over calls of each call's median latency, in ms.

    Every pass makes the same calls in the same order, so call i of each
    pass is one call repeated; its latency is the median of its repeats.
    A burst of machine slowness then moves a few repeats of a call rather
    than the percentile, and the run's speed moves it as it moves ``wall_s``.
    """
    calls = min(len(p.latencies) for p in passes)
    per_call = np.median([p.latencies[:calls] for p in passes], axis=0)
    return 1e3 * float(np.percentile(per_call, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    seed = campaign_seed(args.seed)
    workload = make_workload(args.workload, seed)
    tracer = Tracer()
    import_times, setup_times, attempted, failed, passes = measure(
        workload, args.seconds, bool(args.trace), tracer)
    attempted += sum(p.attempted for _, _, p in passes)
    failed += sum(p.failed for _, _, p in passes)

    untraced = [p for _, traced, p in passes if not traced]
    traced_ids = [rid for rid, traced, _ in passes if traced]
    calls_per_pass = min(len(p.latencies) for p in untraced)
    tail = tail_percentile(calls_per_pass)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "campaign_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "import_s": _IMPORTED - _T0,
        "fresh_import_times_s": import_times,
        "setup_times_s": setup_times,
        "pass_walls_s": [p.wall for _, _, p in passes],
        "pass_traced": [t for _, t, _ in passes],
        "calls_per_pass": calls_per_pass,
        "call_tail_percentile": tail,
    }
    if args.trace:
        violations = self_check(args.workload, tracer, traced_ids)
        for v in violations:
            print(f"self-check: {v}", file=sys.stderr)
        attempted += len(EXPECTED_SPANS[args.workload]) * len(traced_ids)
        failed += len(violations)
        values = median_metrics([pass_metrics(tracer, rid) for rid in traced_ids])
        values["datasets.generate_s"] = statistics.median(
            sum(tracer.durations(f"setup-{k}", "datasets.generate")) for k in range(SETUP_REPEATS))
        traced_wall = statistics.median(p.wall for _, t, p in passes if t)
        untraced_wall = statistics.median(p.wall for p in untraced)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.spans"] = statistics.median(
            sum(span_counts(tracer, rid).values()) for rid in traced_ids)
        listed = spec["per_layer"]
        record["self_check_violations"] = violations
        tracer.write(OUT_DIR / f"{args.workload}-s{args.seed}-spans.jsonl")
    else:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in untraced),
            "call_p50_ms": call_percentile_ms(untraced, 50),
            "call_tail_ms": call_percentile_ms(untraced, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    error_rate = failed / attempted if attempted else 1.0
    record.update(metrics=metrics, attempted=attempted, failed=failed, error_rate=error_rate)
    (OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} (campaign seed {seed}), "
          f"{len(passes)} passes ({len(traced_ids)} traced), "
          f"{calls_per_pass} calls per pass (tail = p{tail})")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {error_rate:.6g} ratio ({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
