"""A reduced campaign plus the paired statistical audit.

Runs a trimmed mode registry over two synthetic benchmarks and one seed
per cell to stay quick, writes the result tree (CSV, ledgers, selected
models) into a temporary directory, then produces the Table-2-style audit summary and SVG chart.
The CLI equivalent is:

    topoattn run --datasets stress,cyclic --seeds 1 --out runs/
    topoattn audit --results runs/
"""

import tempfile
from pathlib import Path

from topoattn import gen_cyclic_h1, gen_higher_topology, run_campaign
from topoattn.audit import audit_results_dir

modes = ["classical", "zeng_local_h0", "static_aet", "static_hybrid", "classical_resid", "static_h1_resid"]
with tempfile.TemporaryDirectory() as tmp:  # the result tree is removed on exit
    out_dir = Path(tmp) / "campaign"
    results, ledgers = run_campaign(
        [gen_higher_topology, gen_cyclic_h1],  # builders: one fresh draw per campaign seed
        seeds=(1,),
        offsets=(-0.05, 0.0, 0.05),
        mode_ids=modes,
        out_dir=out_dir,
    )
    print(f"{len(results)} result rows, {len(ledgers)} calibration ledgers -> {out_dir}")

    summary, breakdown = audit_results_dir(out_dir)
    print(f"\n{summary.architecture}: {summary.units} paired units")
    print(f"  improved/worsened/tied: {summary.improved}/{summary.worsened}/{summary.tied}")
    print(f"  mean relative RMSE reduction {summary.mean_relative_reduction:.1%} "
          f"(95% CI [{summary.ci_lo:.1%}, {summary.ci_hi:.1%}])")
    print(f"  paired d_z {summary.d_z:.3f}, sign-flip p {summary.p_value:.3g}")
    for row in breakdown:
        print(f"  {row['dataset']}: baseline {row['baseline_rmse']:.4f} -> guarded {row['guarded_rmse']:.4f} "
              f"({row['mean_relative_reduction']:+.1%})")
    print(f"\nbar chart: audit_bars.svg, {(out_dir / 'audit_bars.svg').stat().st_size} bytes")
