"""Exact simulator for block one-hot constrained QAOA, plus a grid-search hybrid TSP solver."""

from .analysis import (
    BaselineReport,
    MomentReport,
    TwirlEstimate,
    angle_averaged_transition,
    block_design_moments,
    classical_baselines,
    find_good_permutation,
    lie_algebra_dimension,
    transition_closed_form,
    twirl_average,
)
from .encoded import (
    BlockLayout,
    BlockPermutation,
    DimensionCapError,
    EncodedState,
    index_to_label,
    indices_to_labels,
    label_to_index,
    labels_to_indices,
    uniform_initial_state,
)
from .hamiltonian import (
    AnchoredTsp,
    BruteForceResult,
    CostDiagonal,
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    default_penalty_weight,
    tour_cities,
)
from .instances import InstanceParseError, parse_instance
from .layers import (
    DEFAULT_NORMALIZATION,
    Column,
    MixerNormalization,
    MixerSpectrum,
    apply_mixer,
    apply_phase,
    mixer_block_matrix,
    mixer_spectrum,
    run_circuit,
)
from .phqc import (
    AngleGrid,
    GridPointStat,
    PhqcResult,
    ShotSet,
    default_grid,
    derive_seed,
    phqc_solve,
    required_shots,
    sample_shots,
    score_shots,
    square_grid,
)
from .qubitref import (
    GateOp,
    block_xy_mixer_gates,
    count_two_qubit_gates,
    fidelity,
    multi_block_prepare,
    one_hot_block_prepare,
    project_to_encoded,
    run_gates,
    zero_state,
)

__version__ = "0.1.0"
