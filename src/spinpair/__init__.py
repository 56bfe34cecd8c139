"""Dynamics and entanglement of two exchange-coupled qubits.

The Hamiltonian is an anisotropic exchange between two qubits in
time-varying, generally unequal transverse fields.  It is block
diagonal in parity, so everything reduces to two 2x2 blocks: closed
propagators exist when each block's coupling tracks its field
(:class:`IC1Setup`) or when the mixing angle rotates at a rate matched
to the splitting (:class:`IC2Setup`); rotating-wave and first-order
treatments cover near-resonant sinusoidal drives; a Magnus-4
propagator integrates any drive set, checked against a fixed-step RK4
oracle.  Entanglement comes as pure-state and Wootters concurrence plus
closed forms for the standard initial states.  The ``simulate`` console script runs configs, parameter
sweeps and packaged figure presets.
"""

from .approx import (
    RwaMode,
    RwaSetup,
    perturb_validity,
    perturb_x1,
    perturb_x2,
    rwa_evolve,
    rwa_orthogonal,
)
from .config import RunConfig, SweepSpec, load_config, parse_config
from .drive import (
    Constant,
    DriveProfile,
    Scaled,
    Sinusoid,
    evaluate,
    frequencies,
    integral,
    integral_abs,
    is_static,
    negate,
    single_term,
)
from .entangle import (
    Basis,
    DensityMatrix,
    FourState,
    basis_convert,
    concurrence_generic,
    concurrence_ic1,
    concurrence_ic2,
    concurrence_pure,
    concurrence_wootters,
    spin_flip_matrix,
)
from .errors import (
    AdmissibilityError,
    BranchExitError,
    ConfigError,
    InvalidDensityMatrixError,
    NormDriftError,
    NotIntegrableError,
    NotStaticError,
    ResonancePoleError,
    SpinpairError,
)
from .exact import (
    Admissibility,
    BlockAmplitudes,
    IC1Setup,
    IC2Setup,
    PhaseConvention,
    ic1_evolve,
    ic1_phase,
    ic2_admissible,
    ic2_breakpoints,
    ic2_derived_field,
    ic2_evolve,
    ic2_kernel_coeffs,
    ic2_theta,
)
from .model import (
    COUPLED_LABELS,
    UNCOUPLED_LABELS,
    ModelParams,
    Spectrum,
    StaticGroundState,
    basis_change_matrix,
    block,
    hamiltonian_coupled,
    hamiltonian_uncoupled,
    spectrum,
    static_ground_state,
)
from .oracle import (
    IntegratorConfig,
    Trace,
    integrate_block_fn,
    integrate_block_ic2,
    integrate_full,
    magnus_full,
    suggest_step,
)
from .symmetry import (
    Parity,
    map_params_I_to_II,
    map_params_global_flip,
    map_state_I_to_II,
    map_state_global_flip,
    parity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # drive
    "Constant",
    "Sinusoid",
    "Scaled",
    "DriveProfile",
    "evaluate",
    "integral",
    "integral_abs",
    "is_static",
    "negate",
    "single_term",
    "frequencies",
    # model
    "ModelParams",
    "Spectrum",
    "StaticGroundState",
    "hamiltonian_uncoupled",
    "hamiltonian_coupled",
    "block",
    "spectrum",
    "static_ground_state",
    "basis_change_matrix",
    "UNCOUPLED_LABELS",
    "COUPLED_LABELS",
    # exact propagators
    "PhaseConvention",
    "BlockAmplitudes",
    "IC1Setup",
    "IC2Setup",
    "Admissibility",
    "ic1_phase",
    "ic1_evolve",
    "ic2_admissible",
    "ic2_theta",
    "ic2_evolve",
    "ic2_derived_field",
    "ic2_breakpoints",
    "ic2_kernel_coeffs",
    # approximations
    "RwaMode",
    "RwaSetup",
    "perturb_x1",
    "perturb_x2",
    "perturb_validity",
    "rwa_evolve",
    "rwa_orthogonal",
    # entanglement
    "Basis",
    "FourState",
    "DensityMatrix",
    "basis_convert",
    "concurrence_pure",
    "concurrence_wootters",
    "concurrence_generic",
    "concurrence_ic1",
    "concurrence_ic2",
    "spin_flip_matrix",
    # symmetry
    "Parity",
    "parity",
    "map_params_I_to_II",
    "map_state_I_to_II",
    "map_params_global_flip",
    "map_state_global_flip",
    # numeric oracle
    "IntegratorConfig",
    "Trace",
    "suggest_step",
    "integrate_full",
    "integrate_block_fn",
    "integrate_block_ic2",
    "magnus_full",
    # configuration
    "RunConfig",
    "SweepSpec",
    "load_config",
    "parse_config",
]
