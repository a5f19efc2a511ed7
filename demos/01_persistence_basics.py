"""Persistent homology on small shapes.

Walks through the exact Vietoris-Rips pipeline on clouds whose diagrams
are known in closed form, then the 1-D sublevel filtration used for the
local path diagrams.
"""

import numpy as np

from topoattn import (
    capped_exact_diagrams,
    pairwise_euclidean,
    path_sublevel_h0,
    vectorize_diagram,
)


def show(title, dgm):
    print(f"\n{title}")
    for birth, death, dim in dgm.bars:
        death_str = "inf" if not np.isfinite(death) else f"{death:.4f}"
        print(f"  H{dim}: ({birth:.4f}, {death_str})")


# A unit square: four components merge pairwise at edge length 1, and the
# boundary loop lives until the diagonals fill the square at sqrt(2).
square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
dgm = capped_exact_diagrams(pairwise_euclidean(square))
show("unit square", dgm)

# An equilateral triangle has no loop: the 2-simplex enters at the same
# scale as its edges, so the cycle dies the instant it is born.
tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
show("equilateral triangle", capped_exact_diagrams(pairwise_euclidean(tri)))

# Twelve points on a circle: one robust H1 bar. Exact persistence takes at
# most 28 points (EXACT_POINT_CAP); the local residual runs it on 8- and
# 16-point subwindows.
theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
dgm = capped_exact_diagrams(pairwise_euclidean(circle))
show("12-point circle", dgm.in_dim(1))
print("  H1 vector:", np.round(vectorize_diagram(dgm.in_dim(1).finite_lifetimes()), 4))

# Sublevel H0 of a 1-D signal: each local minimum births a component that
# dies when it merges over a saddle into an older one.
series = np.array([0.0, 2.0, 1.0, 3.0, -1.0, 4.0])
show("path sublevel H0 of [0, 2, 1, 3, -1, 4]", path_sublevel_h0(series))
show("negated path (maxima become minima)", path_sublevel_h0(-series))
