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

from . import approx, drive, entangle, exact, model, oracle, symmetry
from .approx import *
from .config import RunConfig, SweepSpec, load_config, parse_config
from .drive import *
from .entangle import *
from .errors import *  # importable, but kept out of __all__
from .exact import *
from .model import *
from .oracle import *
from .symmetry import *

__version__ = "0.1.0"

# each module's __all__ is its public surface; config's is wider than the four here
__all__ = ["__version__"]
__all__ += drive.__all__
__all__ += model.__all__
__all__ += exact.__all__
__all__ += approx.__all__
__all__ += entangle.__all__
__all__ += symmetry.__all__
__all__ += oracle.__all__
__all__ += ["RunConfig", "SweepSpec", "load_config", "parse_config"]
# symmetry re-exports model's map_params_I_to_II
__all__.remove("map_params_I_to_II")
