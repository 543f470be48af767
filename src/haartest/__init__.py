"""Numerical laboratory for weighted Haar systems and truncated singular
kernels on dyadic meshes: testing constants, frame bounds, and the cube
constructions behind them."""

from .dyadic import DyadicCube, Grid, MeshExhaustedError
from .measure import (
    DegenerateMeasureError,
    DoublingReport,
    MeshMeasure,
    custom_cells,
    doubling_constant,
    lebesgue,
    level_masses,
    load_measure_csv,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
    save_measure_csv,
)
from .haar import (
    HaarSystem,
    HaarWavelet,
    build_system,
)
from .operators import (
    HaarMatrix,
    Kernel,
    Truncation,
    TruncationError,
    apply,
    assemble_haar_matrix,
    default_truncation,
    make_kernel,
    smoothstep,
)
from .characteristics import (
    CharacteristicReport,
    LpConfig,
    a2_lambda,
    ap_lambda,
    cube_testing,
    haar_testing,
    haar_testing_dual,
    lp_haar_testing,
    lp_haar_testing_dual,
    matched_haar_testing,
    operator_norm,
    pair_bundle,
    quadratic_haar_testing,
    quadratic_offset_ap,
    quadratic_subcube_ap,
    reevaluate,
)
from .experiments import (
    AlignedTriple,
    AlignmentError,
    ExperimentReport,
    HaloCover,
    MatrixCounterexampleConfig,
    PhiReport,
    SectorConfig,
    SignDominanceError,
    a2_lower_bound_experiment,
    build_aligned_triple,
    counterexample_search,
    halo_cover,
    kernel_difference_report,
    matrix_counterexample,
    phi_test_function,
    quadratic_ap_experiment,
    select_delta,
    triple_absorption_experiment,
)

__version__ = "0.1.0"
