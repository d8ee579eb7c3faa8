"""Exact simulator for block one-hot constrained QAOA, plus a grid-search hybrid TSP solver.

The package exports the names that the command line, the `verify` suites and
the README use; the analysis and gate-level tools stay in their modules
(`ceqaoa.analysis`, `ceqaoa.qubitref`).
"""

from .analysis import classical_baselines
from .encoded import (
    BlockLayout,
    DimensionCapError,
    EncodedState,
    index_to_label,
    indices_to_labels,
    labels_to_indices,
    uniform_initial_state,
)
from .hamiltonian import (
    CostDiagonal,
    FeasibleSet,
    TspInstance,
    anchor,
    brute_force_optimum,
    build_cost_diagonal,
    tour_cities,
)
from .instances import InstanceParseError, parse_instance
from .layers import (
    Column,
    apply_mixer,
    apply_phase,
    mixer_block_matrix,
    mixer_spectrum,
    run_circuit,
)
from .phqc import (
    PhqcResult,
    derive_seed,
    phqc_solve,
    square_grid,
)

__version__ = "0.1.0"
