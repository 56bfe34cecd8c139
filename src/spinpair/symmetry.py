"""Discrete symmetries of the model as executable transformations.

The Hamiltonian conserves the joint spin parity, splitting the Hilbert
space into two 2x2 blocks, and carries two further discrete symmetries:
a reflection exchanging the blocks and a global flip negating the
fields.  Each is implemented as a parameter and/or state transform;
all are exact involutions built from structural negation, so applying
one twice returns an equal object.  The program reads subspace II
through :func:`map_params_I_to_II` (defined in :mod:`spinpair.model`);
the other maps are cross-checks that the propagators and concurrence
formulas must commute with.
"""

from __future__ import annotations

from enum import Enum

from . import drive
from .entangle import Basis, FourState
from .model import ModelParams, map_params_I_to_II

__all__ = [
    "Parity",
    "parity",
    "map_params_I_to_II",
    "map_state_I_to_II",
    "map_params_global_flip",
    "map_state_global_flip",
]


class Parity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def parity(basis_state: str) -> Parity:
    """Joint spin parity of an uncoupled basis state label.

    ``"pp"`` and ``"mm"`` are positive (subspace I); ``"pm"`` and
    ``"mp"`` negative (subspace II).  Parity is conserved exactly by
    the block-diagonal evolution.
    """
    if basis_state in ("pp", "mm"):
        return Parity.POSITIVE
    if basis_state in ("pm", "mp"):
        return Parity.NEGATIVE
    raise ValueError(f"unknown basis state label {basis_state!r}")


def map_state_I_to_II(state: FourState) -> FourState:
    """Relabel amplitudes under the block-exchanging spin reflection.

    Flips the second spin: ``|++> <-> |+->`` and ``|--> <-> |-+>``,
    exchanging the two parity subspaces.  Uncoupled order only.
    """
    if state.basis is not Basis.UNCOUPLED:
        raise ValueError("subspace relabeling is defined on the uncoupled order")
    f0, f1, f2, f3 = state.amplitudes
    return FourState(Basis.UNCOUPLED, (f2, f3, f0, f1))


def map_params_global_flip(params: ModelParams) -> ModelParams:
    """Negate both local fields (``omega_1 -> -omega_1``, ``omega_2 -> -omega_2``).

    Together with :func:`map_state_global_flip` this commutes with the
    evolution.  Exact involution.
    """
    return ModelParams(
        lambda_x=params.lambda_x,
        lambda_y=params.lambda_y,
        lambda_z=params.lambda_z,
        omega_1=drive.negate(params.omega_1),
        omega_2=drive.negate(params.omega_2),
    )


def map_state_global_flip(state: FourState) -> FourState:
    """Flip both spins: ``|++> <-> |-->`` and ``|+-> <-> |-+>``.

    Uncoupled order only.  Concurrence is invariant under the flip.
    """
    if state.basis is not Basis.UNCOUPLED:
        raise ValueError("the global flip is defined on the uncoupled order")
    f0, f1, f2, f3 = state.amplitudes
    return FourState(Basis.UNCOUPLED, (f1, f0, f3, f2))
