"""photonmesh: compile qubit circuits onto MZI meshes and simulate them exactly.

Qubits are path-encoded: each one owns an auxiliary waveguide and two rail
waveguides, single-qubit gates are single MZIs on the rail pair, and
entangling gates are post-selected networks succeeding with probability
1/9.  The simulator tracks exact sparse Fock amplitudes, so success
probabilities and post-selected states come out exact to machine
precision.

See :mod:`photonmesh.fock` for the state/convention details,
:mod:`photonmesh.gates` for the gate library,
:mod:`photonmesh.compiler` for circuit lowering and mesh placement, and
:mod:`photonmesh.analysis` for feasibility studies.
"""

from .linalg import (
    IDENTITY_SETTING,
    MziSetting,
    UnitarityReport,
    bs_general,
    check_unitary,
    embed_block,
    equal_mod_global_phase,
    permanent,
    phase_shifter,
    solve_mzi_settings,
)
from .fock import (
    NetworkProgram,
    PhotonicState,
    PostSelectionResult,
    amplitude_via_permanent,
    apply_linear,
    canonical_global_phase,
    decode_logical,
    dense_amplitudes,
    light_cone,
    prepare_computational_basis,
    project_qubit_structure,
    run_certified,
    run_program,
    run_program_pruned,
    truncate_aux,
)
from .gates import (
    GateDescriptor,
    cnot_ps,
    cz_ps_nonregular,
    cz_ps_regular,
    gate_library,
    r13_matrices,
    single_qubit_matrix,
    single_qubit_setting,
    swap_networks,
)
from .compiler import (
    CircuitIR,
    CircuitParseError,
    CompileOptions,
    CompileResult,
    IllegalCascade,
    MeshAssignment,
    PlacementOverflow,
    SimulationResult,
    compile_circuit,
    compile_ghz_swap_variant,
    enumerate_placements,
    parse_circuit,
    place_in_mesh,
    simulate_circuit,
)
from .analysis import (
    FeasibilityReport,
    cz_constraint_residual,
    ghz_probability_scan,
    search_cz_in_4x4,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY_SETTING",
    "MziSetting",
    "UnitarityReport",
    "bs_general",
    "check_unitary",
    "embed_block",
    "equal_mod_global_phase",
    "permanent",
    "phase_shifter",
    "solve_mzi_settings",
    "NetworkProgram",
    "PhotonicState",
    "PostSelectionResult",
    "amplitude_via_permanent",
    "apply_linear",
    "canonical_global_phase",
    "decode_logical",
    "dense_amplitudes",
    "light_cone",
    "prepare_computational_basis",
    "project_qubit_structure",
    "run_certified",
    "run_program",
    "run_program_pruned",
    "truncate_aux",
    "GateDescriptor",
    "cnot_ps",
    "cz_ps_nonregular",
    "cz_ps_regular",
    "gate_library",
    "r13_matrices",
    "single_qubit_matrix",
    "single_qubit_setting",
    "swap_networks",
    "CircuitIR",
    "CircuitParseError",
    "CompileOptions",
    "CompileResult",
    "IllegalCascade",
    "MeshAssignment",
    "PlacementOverflow",
    "SimulationResult",
    "compile_circuit",
    "compile_ghz_swap_variant",
    "enumerate_placements",
    "parse_circuit",
    "place_in_mesh",
    "simulate_circuit",
    "FeasibilityReport",
    "cz_constraint_residual",
    "ghz_probability_scan",
    "search_cz_in_4x4",
    "__version__",
]
