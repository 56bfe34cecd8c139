"""Two-qubit exchange model: Hamiltonians, blocks, and instantaneous spectra.

Basis conventions (frozen contract):

* uncoupled order: ``|++>, |-->, |+->, |-+>``
* coupled order:   ``|++>, |-->, |s>, |a>`` with
  ``|s> = (|+-> + |-+>)/sqrt(2)`` and ``|a> = (|+-> - |-+>)/sqrt(2)``

The Hamiltonian is block diagonal in both orders; the first block acts
on ``{|++>, |-->}`` (subspace I), the second on the remaining pair
(subspace II).  Each block is ``[[field + z, coupling], [coupling,
-field + z]]``.  :class:`ModelParams` reads subspace I's: field
``omega_plus = (omega_1 + omega_2)/2``, coupling ``lambda_m =
(lambda_x - lambda_y)/4``, ``z = lambda_z/4``.  The subspace-II block
is subspace I's block of :func:`map_params_I_to_II`, the paper's
block-exchanging symmetry: field ``omega_minus``, coupling
``lambda_p``, ``z = -lambda_z/4``.  Every reader of subspace II goes
through that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drive
from .drive import Constant, DriveProfile, Sinusoid
from .errors import ConfigError, NotStaticError

__all__ = [
    "ModelParams",
    "map_params_I_to_II",
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
]

UNCOUPLED_LABELS = ("pp", "mm", "pm", "mp")
COUPLED_LABELS = ("pp", "mm", "s", "a")


def _combine(c1: float, p1: DriveProfile, c2: float, p2: DriveProfile) -> DriveProfile:
    """c1*p1 + c2*p2 as a single profile, if the two kinds allow it."""
    a1, b1, ph1, o1 = drive.single_term(p1)
    a2, b2, ph2, o2 = drive.single_term(p2)
    a1, o1 = c1 * a1, c1 * o1
    a2, o2 = c2 * a2, c2 * o2
    offset = o1 + o2
    terms = [(a, b, ph) for a, b, ph in ((a1, b1, ph1), (a2, b2, ph2)) if a != 0.0]
    if len(terms) == 2:
        if terms[0][1:] == terms[1][1:]:
            terms = [(terms[0][0] + terms[1][0], terms[0][1], terms[0][2])]
            if terms[0][0] == 0.0:
                terms = []
        else:
            raise ConfigError(
                "profile combination mixes incommensurate sinusoids; "
                "specify the primitive profiles directly"
            )
    if not all(map(math.isfinite, [offset] + [a for a, _b, _ph in terms])):
        raise ConfigError("profile combination overflows; specify the primitive profiles")
    if not terms:
        return Constant(offset)
    amp, freq, phase = terms[0]
    if offset != 0.0:
        raise ConfigError(
            "profile combination mixes a sinusoid with a constant offset; "
            "specify the primitive profiles directly"
        )
    return Sinusoid(amp, freq, phase)


@dataclass(frozen=True)
class ModelParams:
    """Five primitive drive profiles defining the Hamiltonian."""

    lambda_x: DriveProfile
    lambda_y: DriveProfile
    lambda_z: DriveProfile
    omega_1: DriveProfile
    omega_2: DriveProfile

    @classmethod
    def from_derived(
        cls,
        omega_plus: DriveProfile = Constant(0.0),
        omega_minus: DriveProfile = Constant(0.0),
        lambda_m: DriveProfile = Constant(0.0),
        lambda_p: DriveProfile = Constant(0.0),
        lambda_z: DriveProfile = Constant(0.0),
    ) -> "ModelParams":
        """Build primitives from the derived combinations.

        Raises :class:`ConfigError` when a required sum (for example
        ``lambda_x = 2*lambda_p + 2*lambda_m``) is not one constant or one
        sinusoid.
        """
        return cls(
            lambda_x=_combine(2.0, lambda_p, 2.0, lambda_m),
            lambda_y=_combine(2.0, lambda_p, -2.0, lambda_m),
            lambda_z=lambda_z,
            omega_1=_combine(1.0, omega_plus, 1.0, omega_minus),
            omega_2=_combine(1.0, omega_plus, -1.0, omega_minus),
        )

    # -- subspace I's block; the coefficients are powers of two, so each
    # value is exactly the rounded (pa +- pb)/2 or /4 --

    def _block(self, f, t):
        return (
            0.5 * f(self.omega_1, t) + 0.5 * f(self.omega_2, t),
            0.25 * f(self.lambda_x, t) - 0.25 * f(self.lambda_y, t),
            0.25 * f(self.lambda_z, t),
        )

    def block_values(self, t: float | np.ndarray) -> tuple:
        """(field, coupling, z) of subspace I's block at t, a float or an array of times."""
        return self._block(drive.evaluate, t)

    def block_integrals(self, t: float | np.ndarray) -> tuple:
        """Exact integrals over [0, t] of :meth:`block_values`."""
        return self._block(drive.integral, t)

    def block_terms(self) -> tuple[float, ...]:
        """The subspace-I block as the 21 floats the RK4 and Magnus kernels step with.

        Field, coupling and ``4*z`` as two-term drives
        ``(a1, b1, p1, a2, b2, p2, off)``, each meaning
        ``a1*sin(b1*t + p1) + a2*sin(b2*t + p2) + off``; exact for every
        parameter set.
        """

        def pair(pa, ca, pb, cb):
            a1, b1, p1, o1 = drive.single_term(pa)
            a2, b2, p2, o2 = drive.single_term(pb)
            return (ca * a1, b1, p1, cb * a2, b2, p2, ca * o1 + cb * o2)

        a, b, p, o = drive.single_term(self.lambda_z)
        coupling = pair(self.lambda_x, 0.25, self.lambda_y, -0.25)
        return pair(self.omega_1, 0.5, self.omega_2, 0.5) + coupling + (a, b, p, 0.0, 0.0, 0.0, o)

    def is_static(self) -> bool:
        return all(
            drive.is_static(p)
            for p in (self.lambda_x, self.lambda_y, self.lambda_z, self.omega_1, self.omega_2)
        )

    def all_frequencies(self) -> list[float]:
        out: list[float] = []
        for p in (self.lambda_x, self.lambda_y, self.lambda_z, self.omega_1, self.omega_2):
            out.extend(drive.frequencies(p))
        return out


def map_params_I_to_II(params: ModelParams) -> ModelParams:
    """Parameters whose subspace-I block is the original subspace-II block.

    Swaps the roles of the two blocks by the replacement
    ``lambda_m <-> lambda_p``, ``omega_plus <-> omega_minus``,
    ``lambda_z -> -lambda_z``; on the primitive profiles this is
    ``lambda_y -> -lambda_y``, ``lambda_z -> -lambda_z``,
    ``omega_2 -> -omega_2``.  Exact involution.
    """
    return ModelParams(
        lambda_x=params.lambda_x,
        lambda_y=drive.scale(-1.0, params.lambda_y),
        lambda_z=drive.scale(-1.0, params.lambda_z),
        omega_1=params.omega_1,
        omega_2=drive.scale(-1.0, params.omega_2),
    )


def _two_by_two(field, coupling, z) -> np.ndarray:
    return np.array([[field + z, coupling], [coupling, -field + z]], dtype=complex)


def hamiltonian_uncoupled(params: ModelParams, t: float) -> np.ndarray:
    """4x4 Hamiltonian in the uncoupled order; off-block entries exactly zero."""
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = block(params, t)
    h[2:, 2:] = block(map_params_I_to_II(params), t)
    return h


def basis_change_matrix() -> np.ndarray:
    """Coordinate map from uncoupled to coupled order (involutory, orthogonal)."""
    r = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, r, r],
            [0.0, 0.0, r, -r],
        ],
        dtype=complex,
    )


def hamiltonian_coupled(params: ModelParams, t: float) -> np.ndarray:
    """4x4 Hamiltonian in the coupled order (symmetric / antisymmetric pair)."""
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = block(params, t)
    # on {|s>, |a>} the subspace-II field and coupling trade places
    field, coupling, z = map_params_I_to_II(params).block_values(t)
    h[2:, 2:] = _two_by_two(coupling, field, z)
    return h


def block(params: ModelParams, t: float) -> np.ndarray:
    """2x2 Hermitian subspace-I block of the uncoupled Hamiltonian.

    The subspace-II block is ``block(map_params_I_to_II(params), t)``.
    """
    return _two_by_two(*params.block_values(t))


@dataclass(frozen=True)
class Spectrum:
    """Instantaneous eigen-decomposition summary of subspace I's block.

    ``theta`` is the mixing angle of the instantaneous eigenvectors,
    ``gap`` the nonnegative half-splitting, and ``eps_plus/eps_minus``
    the two eigenvalues (``eps_plus - eps_minus = 2*gap``).  When both
    the field and the coupling vanish the angle is undefined; it is
    reported as 0 with ``degenerate`` set.
    """

    theta: float
    gap: float
    eps_plus: float
    eps_minus: float
    degenerate: bool


def spectrum(params: ModelParams, t: float) -> Spectrum:
    """Mixing angle and eigenvalues of subspace I's block at time t.

    theta = atan2(coupling, field)/2, giving 2*theta in (-pi, pi].
    The subspace-II spectrum is ``spectrum(map_params_I_to_II(params), t)``.
    """
    field, coupling, diag = params.block_values(t)
    degenerate = field == 0.0 and coupling == 0.0
    theta = 0.0 if degenerate else 0.5 * math.atan2(coupling, field)
    gap = math.hypot(field, coupling)
    return Spectrum(
        theta=theta,
        gap=gap,
        eps_plus=diag + gap,
        eps_minus=diag - gap,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class StaticGroundState:
    """Ground-state classification of a time-independent Hamiltonian.

    ``kind`` is one of ``"phi2"``, ``"phi4"``, ``"degenerate_pair"``.
    For the degenerate pair the state is an equal mixture of the two
    lowest eigenstates; the relative phase between them is free and is
    deliberately left unspecified.  ``energy_one``/``energy_two`` are the
    lower eigenvalues of the two subspaces.
    """

    kind: str
    eta: float
    zeta: float
    energy_one: float
    energy_two: float


def static_ground_state(params: ModelParams) -> StaticGroundState:
    """Classify the ground state, comparing eta against lambda_z/4 + zeta."""
    if not params.is_static():
        raise NotStaticError("ground-state classification requires static profiles")
    s1 = spectrum(params, 0.0)
    s2 = spectrum(map_params_I_to_II(params), 0.0)
    eta, zeta = s1.gap, s2.gap
    lz4 = params.block_values(0.0)[2]
    margin = eta - (lz4 + zeta)
    tol = 1e-12 * max(1.0, abs(eta))
    if abs(margin) <= tol:
        kind = "degenerate_pair"
    elif margin > 0.0:
        kind = "phi2"
    else:
        kind = "phi4"
    return StaticGroundState(
        kind=kind,
        eta=eta,
        zeta=zeta,
        energy_one=s1.eps_minus,
        energy_two=s2.eps_minus,
    )
