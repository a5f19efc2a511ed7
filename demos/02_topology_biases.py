"""Attention-logit bias channels on a loop versus a scrambled cloud.

Builds every global bias channel for two clouds with matched coordinate
marginals - one a circle, one with its second coordinate permuted - and
shows how the channels react to the loop structure.
"""

import numpy as np

from topoattn import KernelSpec, aet_calibrate, bias_stacks, pairwise_euclidean

rng = np.random.default_rng(0)
n = 24
theta = rng.uniform(0, 2 * np.pi, n)
loop = np.stack([np.cos(theta), np.sin(theta)], axis=1) + rng.normal(0, 0.05, (n, 2))
scramble = loop.copy()
scramble[:, 1] = loop[rng.permutation(n), 1]

train_clouds = []
for _ in range(20):
    t = rng.uniform(0, 2 * np.pi, n)
    train_clouds.append(np.stack([np.cos(t), np.sin(t)], axis=1) + rng.normal(0, 0.05, (n, 2)))
aet_params = aet_calibrate(train_clouds, seed=0)
spec = KernelSpec(1.0)

print(f"{'channel':8s} {'loop |B| mean':>14s} {'scramble |B| mean':>18s}")
channels = ("H0", "H1", "H2", "AET", "KH0", "KH1", "KH2")
stacks_loop = bias_stacks(loop[None], channels, aet_params=aet_params, kernel_spec=spec)
stacks_scr = bias_stacks(scramble[None], channels, aet_params=aet_params, kernel_spec=spec)
for c in channels:
    print(f"{c:8s} {np.abs(stacks_loop[c][0]).mean():14.4f} {np.abs(stacks_scr[c][0]).mean():18.4f}")

# The H1 channel encodes two-hop cycle closure: on the loop, a token's
# strongest positive bias partners sit at moderate angular offsets.
d = pairwise_euclidean(loop)
b_h1 = stacks_loop["H1"][0]
partner = int(np.argmax(b_h1[0]))
print(f"\ntoken 0 strongest H1 partner: token {partner} at distance {d.values[0, partner]:.3f} "
      f"(window sigma {d.sigma:.3f})")

# AET bias is a sum of token-contribution outer products (PSD before the
# diagonal is zeroed), so it concentrates on directionally coherent tokens.
b_aet = stacks_loop["AET"][0]
print(f"AET bias range on the loop: [{b_aet.min():.3f}, {b_aet.max():.3f}]")
