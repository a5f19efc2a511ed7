"""The README states every protocol constant with the value the code uses.

Each phrase is built from the module constant, so a constant changed in
the code without the README (or the other way round) fails here.
"""

from pathlib import Path

import pytest

from topoattn.attention import (
    RIDGE_GRID,
    STRENGTH_GRID,
    TRAIN_EPOCHS,
    TRAIN_LR,
    TRAIN_PATIENCE,
    TRAIN_WEIGHT_DECAY,
)
from topoattn.datasets import (
    CO2_WINDOW,
    HI_MEDIAN_WINDOW,
    HI_ROLLING_WINDOW,
    HI_WEIGHTS,
    IMS_FIT_FRACTION,
    IMS_WINDOW,
    SPLIT_FRACTIONS,
    SPLIT_OFFSETS,
    VOL_HORIZON,
    VOL_ROLL,
    VOL_WINDOW,
)
from topoattn.local_residual import (
    ALPHA_GRID,
    BASE_LENGTH,
    BASE_STRIDE,
    DELTA_LOC,
    PROJECTION_DIM,
    WIDE_LENGTH,
)
from topoattn.persistence import EXACT_POINT_CAP
from topoattn.protocol import BANDWIDTH_FACTORS, MODE_REGISTRY
from topoattn.topo_bias import AET_DIRECTIONS, AET_THRESHOLDS

README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


def grid(values) -> str:
    return "{" + ", ".join(f"{v:g}" for v in values) + "}"


def percent(offset: float) -> str:
    return "0" if offset == 0.0 else f"{offset * 100:+g}%".replace("-", "\N{MINUS SIGN}")


PHRASES = {
    "RIDGE_GRID": f"{{{RIDGE_GRID[0]:g} … {RIDGE_GRID[-1]:g}}} grid",
    "STRENGTH_GRID": f"strength grid {grid(STRENGTH_GRID)}",
    "BANDWIDTH_FACTORS": f"{grid(BANDWIDTH_FACTORS)} × median bandwidth grid",
    "TRAIN_*": (
        f"{TRAIN_EPOCHS} epochs, lr {TRAIN_LR:g}, weight decay {TRAIN_WEIGHT_DECAY:g}, "
        f"patience {TRAIN_PATIENCE}"
    ),
    "cover": f"length-{BASE_LENGTH}/stride-{BASE_STRIDE} cover (+ length-{WIDE_LENGTH} octave)",
    "PROJECTION_DIM": f"trained {PROJECTION_DIM}-dim attention projection",
    "ALPHA_GRID": f"alpha grid {grid(ALPHA_GRID)}",
    "DELTA_LOC": f"margin {DELTA_LOC:g} × max(1, global validation RMSE)",
    "AET": f"AET calibration ({AET_DIRECTIONS} directions × {AET_THRESHOLDS} thresholds)",
    "HI_WEIGHTS": f"{HI_WEIGHTS[0]:.2f} z_RMS + {HI_WEIGHTS[1]:.2f} z_STD + {HI_WEIGHTS[2]:.2f} z_KURT",
    "IMS_FIT_FRACTION": f"snapshots of the first {IMS_FIT_FRACTION * 100:g}% of windows",
    "HI_*_WINDOW": f"trailing {HI_MEDIAN_WINDOW}-snapshot median, a trailing {HI_ROLLING_WINDOW}-snapshot mean",
    "windows": (
        f"windows of {CO2_WINDOW} (monthly CO2 value + seasonal sine/cosine), "
        f"{VOL_WINDOW} (log-return features with trailing {VOL_ROLL}-day statistics, "
        f"{VOL_HORIZON}-day-ahead annualized realized volatility target), "
        f"and {IMS_WINDOW} snapshots (IMS bearing"
    ),
    "SPLIT_*": (
        "split chronologically " + "/".join(f"{f * 100:g}" for f in SPLIT_FRACTIONS)
        + " (offsets " + "/".join(percent(o) for o in SPLIT_OFFSETS) + ")"
    ),
    "EXACT_POINT_CAP": f"clouds of at most {EXACT_POINT_CAP} points",
    "MODE_REGISTRY": f"mode registry ({len(MODE_REGISTRY)} entries)",
}


@pytest.mark.parametrize("constant", sorted(PHRASES))
def test_readme_states_constant(constant):
    assert PHRASES[constant] in README
