"""The three synthetic benchmarks and what each one isolates.

Generates the higher-topology stress test (loop vs marginal-matched
scramble), the cyclic benchmark (slow primary circle + fast epicycle),
and the shell/void benchmark (noisy shells vs filled balls), then prints
the geometry each target depends on. Also exports one dataset to CSV.
"""

import tempfile
from pathlib import Path

import numpy as np

from topoattn import gen_cyclic_h1, gen_higher_topology, gen_shell_h2
from topoattn.datasets import export_dataset

stress = gen_higher_topology(seed=1)
print(f"stress  {stress.shape}: loop-health target, mean {stress.targets.mean():.3f}")
labels = np.round(stress.targets)
radii = np.linalg.norm(stress.windows - stress.windows.mean(axis=1, keepdims=True), axis=2)
cv = radii.std(axis=1) / radii.mean(axis=1)
print(f"  radius coefficient of variation: loop class {np.median(cv[labels == 1]):.3f}, "
      f"scrambled {np.median(cv[labels == 0]):.3f}  (loops stay ring-like)")

cyclic = gen_cyclic_h1(seed=1)
print(f"\ncyclic  {cyclic.shape}: next primary value, target std {cyclic.targets.std():.3f}")
w = cyclic.windows[0]
print(f"  window 0 primary channel range [{w[:, 0].min():.2f}, {w[:, 0].max():.2f}] "
      f"(slow circle + fast epicycle + noise)")

shell = gen_shell_h2(seed=1)
print(f"\nshell   {shell.shape}: shell-vs-ball indicator, balance {shell.targets.mean():.2f}")
norms = np.linalg.norm(shell.windows, axis=2).mean(axis=1)
print(f"  mean token radius: shell class {norms[shell.targets == 1].mean():.3f}, "
      f"ball class {norms[shell.targets == 0].mean():.3f}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "export"
    manifest = export_dataset(shell, out, seed=1)
    print(f"\nexported shell {sorted(p.name for p in out.iterdir())} -> {manifest['shape']}")
