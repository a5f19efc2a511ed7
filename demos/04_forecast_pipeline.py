"""One evaluation cell end to end on the stress benchmark.

Fits the classical baseline, a static topology mode, and a guarded
local-residual mode on the same chronological split, showing how the
validation guard behaves when local topology carries the target.
"""

from topoattn import MODE_REGISTRY, calibrate_cell, gen_higher_topology, run_mode_detailed
from topoattn.protocol import SplitContext, select_by_validation

by_id = {m.mode_id: m for m in MODE_REGISTRY}
ds = gen_higher_topology(seed=1)
ctx = SplitContext(ds, offset=0.0)
sizes = "/".join(str(rows.stop - rows.start) for rows in (ctx.train_rows, ctx.val_rows, ctx.test_rows))
print(f"{ds.name} {ds.shape}; split sizes {sizes}")
print(f"pooled train sigma {ctx.kernel_bandwidth:.3f}; cover has {len(ctx.cover)} elements\n")

calibration = calibrate_cell(ctx, seed=1)
print(f"ledger hash {calibration.content_hash[:16]}...\n")

rows = []
for mode_id in ("classical", "zeng_local_h0", "static_aet", "static_h1_resid", "classical_resid"):
    r, _predictions = run_mode_detailed(ctx, by_id[mode_id], seed=1, calibration=calibration)
    rows.append(r)
    alpha = "-" if r.alpha_loc is None else f"{r.alpha_loc:.2f}"
    print(f"{mode_id:18s} val {r.val_rmse:.4f}  test {r.test_rmse:.4f}  "
          f"lambda {r.penalty:<6g} alpha_loc {alpha}  strengths {r.strengths}")

chosen = select_by_validation(rows)
classical = rows[0]
reduction = (classical.test_rmse - chosen.test_rmse) / classical.test_rmse
print(f"\nvalidation selects {chosen.mode_id}; relative test RMSE reduction vs classical: {reduction:.1%}")
print("the guard accepted the local residual because local H1/Hilbert lifetimes separate the classes")
