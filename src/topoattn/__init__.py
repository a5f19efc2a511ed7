"""Topology-aware attention forecasting.

Global persistent-homology / Euler-transform / kernel-Hilbert biases
injected into attention logits, a validation-gated local topological
residual, a no-leakage evaluation protocol, synthetic benchmarks, and a
paired statistical audit.
"""

from .attention import (
    AttentionParams,
    ForecastModel,
    RIDGE_GRID,
    RidgeModel,
    STRENGTH_GRID,
    TemperatureParams,
    TopologyMode,
    attention_logits_batch,
    biased_logits,
    forward_features,
    init_attention_params,
    predict,
    ridge_fit,
    ridge_predict,
    row_softmax,
    train_temperatures,
)
from .audit import (
    AuditSummary,
    PairedUnit,
    audit_results_dir,
    audit_units,
    bootstrap_ci,
    effect_size_dz,
    pair_units,
    relative_reduction,
    signflip_p,
)
from .datasets import (
    ScalerState,
    SplitSpec,
    WindowedDataset,
    apply_scaler,
    build_co2_windows,
    build_volatility_windows,
    chronological_split,
    fit_scaler,
    gen_cyclic_h1,
    gen_higher_topology,
    gen_shell_h2,
    ims_health_indicator,
    load_ims_set,
    load_series_csv,
)
from .errors import (
    CalibrationMissing,
    DatasetSkipped,
    InvalidInput,
    InvalidParameter,
    NumericalError,
    TopoAttnError,
    TrainingDiverged,
)
from .geometry import (
    DistanceMatrix,
    KernelSpec,
    gaussian_kernel_matrix,
    hilbert_distance_matrix,
    median_nonzero_distance,
    pairwise_euclidean,
    zscore_offdiagonal,
)
from .local_residual import (
    Cover,
    GuardState,
    LocalProjection,
    build_cover,
    fit_local_head,
    guarded_blend,
    local_diagrams,
    zeng_features,
)
from .persistence import (
    PersistenceDiagram,
    capped_exact_diagrams,
    path_sublevel_h0,
    vectorize_diagram,
)
from .protocol import (
    CampaignCache,
    CellCalibration,
    MODE_REGISTRY,
    RunResult,
    SplitContext,
    calibrate_cell,
    run_campaign,
    run_mode,
    run_mode_detailed,
    select_by_validation,
    target_sanity_check,
)
from .topo_bias import (
    AetParams,
    CHANNELS,
    aet_calibrate,
    bias_stacks,
)

__version__ = "0.1.0"
