"""Closed-form propagators for the two integrable drive regimes.

Each 2x2 block of the Hamiltonian admits an exact propagator in two
situations:

* **Proportional drive** (:class:`IC1Setup`): the block coupling is a
  fixed multiple of the block field, so the instantaneous eigenvectors
  never rotate and evolution is a pure phase per eigenstate.
* **Rate-matched drive** (:class:`IC2Setup`): the eigenvector mixing
  angle rotates at a rate proportional to the instantaneous level
  splitting, which closes the equations of motion in the rotating
  eigenbasis.

Both produce the amplitude pairs of the canonical initial eigenstates.
The pairs are exactly unitary and mutually orthogonal for all times.

Each closed form is written for subspace I's block only; subspace II
needs no code of its own, since the Hamiltonian's discrete symmetry maps
it onto subspace I (:func:`spinpair.model.map_params_I_to_II`).  So the
proportional ``phi3``/``phi4`` are ``phi1``/``phi2`` of
``IC1Setup(setup.k2, setup.theta20)`` on the mapped parameters, and a
rate-matched subspace II is the subspace-I block on the mirrored setup
``(chi, theta20, lambda_p, -lambda_z)`` (see
:func:`spinpair.config.build_ic2`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive
from ._kernels import _ic2_field
from .drive import Constant, DriveProfile
from .errors import ConfigError, BranchExitError, NotIntegrableError
from .model import ModelParams, map_params_I_to_II
from .oracle import _MAX_STEPS

__all__ = [
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
]

_PROPORTIONALITY_TOL = 1e-10
_BRANCH_SLACK = 1e-12
# rate-matched closed forms take rate**-2, which overflows below ~1e-154
_MIN_RATE = 1e-150


class PhaseConvention(Enum):
    """Sign treatment of the accumulated splitting phase.

    ``SIGNED`` integrates the signed splitting along the drive; with a
    frozen eigenvector angle this is the exact propagator phase, and it
    is the default.  ``NONNEGATIVE`` integrates the magnitude of the
    splitting instead, which reproduces plots drawn with the
    nonnegative gap; the two agree until the block field first changes
    sign.
    """

    SIGNED = "signed"
    NONNEGATIVE = "nonnegative"


@dataclass(frozen=True)
class BlockAmplitudes:
    """Amplitude pair of one propagated canonical eigenstate.

    Attributes
    ----------
    a1, a2 : complex or ndarray
        Components on the block's ordered basis pair, shaped like the
        evolution time(s).
    """

    a1: complex
    a2: complex

    def norm(self) -> float | np.ndarray:
        """|a1|**2 + |a2|**2; exactly 1 up to rounding for all propagators here."""
        return abs(self.a1) ** 2 + abs(self.a2) ** 2


@dataclass(frozen=True)
class IC1Setup:
    """Proportional-drive regime: block coupling tracks the block field.

    ``k`` is the subspace-I ratio coupling/field, and ``theta10`` the
    frozen mixing angle it implies; the two must agree via
    ``tan(2*theta10) = k``.  ``theta20`` plays the same role for
    subspace II (its implied ratio is ``tan(2*theta20)``).

    Parameters
    ----------
    k : float
        Ratio of the subspace-I coupling to the subspace-I field.
    theta10 : float
        Frozen subspace-I mixing angle, radians.
    theta20 : float, optional
        Frozen subspace-II mixing angle, radians.  Defaults to 0
        (subspace II uncoupled).
    """

    k: float
    theta10: float
    theta20: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.k, self.theta10, self.theta20)):
            raise ValueError("k, theta10 and theta20 must be finite")
        resid = abs(math.tan(2.0 * self.theta10) - self.k)
        if not resid <= 1e-12 * max(1.0, abs(self.k)):
            raise ValueError(
                "theta10 inconsistent with k: tan(2*theta10) must equal k"
            )

    @classmethod
    def from_ratios(cls, k: float, k2: float = 0.0) -> "IC1Setup":
        """Build from the two coupling/field ratios on the principal branch."""
        return cls(k=k, theta10=0.5 * math.atan(k), theta20=0.5 * math.atan(k2))

    @property
    def k2(self) -> float:
        """Implied subspace-II ratio tan(2*theta20)."""
        return math.tan(2.0 * self.theta20)


def _block_combination(
    params: ModelParams, c_field: float, c_coupling: float
) -> tuple[dict[float, tuple[float, float]], float]:
    # c_field*field + c_coupling*coupling of subspace I's block, exactly, as
    # ({frequency > 0: (sin part, cos part)}, offset): each term
    # a*sin(b*t + p) adds a*cos(p) to the sin(b*t) and a*sin(p) to the
    # cos(b*t) coefficient of |b|, after (a, b, p) -> (-a, -b, -p) for b < 0
    terms = params.block_terms()
    parts: dict[float, tuple[float, float]] = {}
    offset = c_field * terms[6] + c_coupling * terms[13]
    for coef, i in ((c_field, 0), (c_field, 3), (c_coupling, 7), (c_coupling, 10)):
        amp, freq, ph = coef * terms[i], terms[i + 1], terms[i + 2]
        if amp == 0.0:
            continue
        if freq == 0.0:
            offset += amp * math.sin(ph)
            continue
        if freq < 0.0:
            amp, freq, ph = -amp, -freq, -ph
        s, c = parts.get(freq, (0.0, 0.0))
        parts[freq] = (s + amp * math.cos(ph), c + amp * math.sin(ph))
    return parts, offset


def _require_proportional(setup: IC1Setup, params: ModelParams) -> None:
    # cos(2*theta10)*coupling - sin(2*theta10)*field must vanish for all t;
    # its sup is bounded by the summed term amplitudes plus the offset,
    # scaled by the larger summed amplitude of the field and the coupling
    theta0 = setup.theta10
    parts, offset = _block_combination(params, -math.sin(2.0 * theta0), math.cos(2.0 * theta0))
    resid = sum(math.hypot(s, c) for s, c in parts.values()) + abs(offset)
    terms = params.block_terms()
    scale = max(1.0, *(abs(terms[i]) + abs(terms[i + 3]) + abs(terms[i + 6]) for i in (0, 7)))
    if not resid <= _PROPORTIONALITY_TOL * scale:
        raise NotIntegrableError(
            f"coupling is not proportional to its field (scaled residual {resid / scale:.3e})"
        )


def _splitting_integral(
    params: ModelParams,
    theta0: float,
    t: np.ndarray,
    convention: PhaseConvention,
    field: np.ndarray,
    coupling: np.ndarray,
) -> np.ndarray:
    # integral over [0, t] of the splitting along the frozen eigenbasis,
    # g = cos(2*theta0)*field + sin(2*theta0)*coupling, or of |g|;
    # field and coupling are the block's own integrals over [0, t]
    c2 = math.cos(2.0 * theta0)
    s2 = math.sin(2.0 * theta0)
    if convention is PhaseConvention.SIGNED:
        return c2 * field + s2 * coupling
    if np.any(t < 0.0):
        raise ValueError("the nonnegative phase convention requires t >= 0")
    parts, offset = _block_combination(params, c2, s2)
    parts = {freq: sc for freq, sc in parts.items() if sc != (0.0, 0.0)}
    if not all(map(math.isfinite, [offset, *(v for sc in parts.values() for v in sc)])):
        raise NotIntegrableError("splitting overflows")
    if not parts:
        return drive.integral_abs(Constant(offset), t)
    if len(parts) == 1 and offset == 0.0:
        ((freq, (s, c)),) = parts.items()
        return drive.integral_abs(drive.Sinusoid(math.hypot(s, c), freq, math.atan2(c, s)), t)
    raise NotIntegrableError(
        "splitting mixes several frequencies or a sinusoid with an offset, "
        "so its magnitude has no closed integral; "
        "use the signed phase convention"
    )


def ic1_phase(
    setup: IC1Setup,
    params: ModelParams,
    t: float | np.ndarray,
    j: int,
    convention: PhaseConvention = PhaseConvention.SIGNED,
) -> complex | np.ndarray:
    """Unit-modulus evolution phase of the j-th canonical eigenstate.

    Parameters
    ----------
    setup : IC1Setup
        Frozen-angle configuration.
    params : ModelParams
        Drive profiles; each block's coupling must be proportional to
        its field with the ratio implied by ``setup``.
    t : float or ndarray
        Evolution time, or an array of times.
    j : int
        Eigenstate index, 1..4 (1, 2 in subspace I; 3, 4 in subspace II).
    convention : PhaseConvention, optional
        Sign treatment of the splitting phase; see
        :class:`PhaseConvention`.

    Returns
    -------
    complex or ndarray
        ``exp(-i * integral of the eigenvalue over [0, t])``, shaped
        like ``t``.

    Raises
    ------
    NotIntegrableError
        If the block's coupling is not exactly proportional to its
        field, decided from the drive coefficients for all times, or
        if the nonnegative convention meets a splitting with several
        frequencies or a sinusoid plus an offset.
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("eigenstate index must be 1, 2, 3 or 4")
    if j > 2:
        # subspace II is subspace I of the mirrored setup and parameters
        setup, params = IC1Setup(setup.k2, setup.theta20), map_params_I_to_II(params)
    t = np.asarray(t, dtype=float)
    field, coupling, diag = params.block_integrals(t)
    try:
        _require_proportional(setup, params)
        split = _splitting_integral(params, setup.theta10, t, convention, field, coupling)
    except NotIntegrableError as exc:
        raise NotIntegrableError(f"subspace {'I' if j <= 2 else 'II'} {exc}") from None
    # j = 1, 3: the upper eigenvalue diag + splitting; j = 2, 4: the lower
    return np.exp(-1j * (diag + split if j % 2 else diag - split))


def ic1_evolve(
    setup: IC1Setup,
    params: ModelParams,
    t: float | np.ndarray,
    initial: str,
    convention: PhaseConvention = PhaseConvention.SIGNED,
) -> BlockAmplitudes:
    """Propagate one canonical eigenstate under proportional drive.

    ``initial`` selects the eigenstate: ``"phi1"``/``"phi2"`` span
    subspace I, ``"phi3"``/``"phi4"`` subspace II.  With a frozen
    mixing angle the components simply acquire the eigenphase:
    ``x(t) = (cos(theta10), sin(theta10)) * I1`` and
    ``y(t) = (-sin(theta10), cos(theta10)) * I2`` (analogous for
    subspace II with ``theta20``, ``I3``, ``I4``).  ``t`` is a float or
    an array of times; the amplitudes are shaped like it.

    Raises
    ------
    NotIntegrableError
        If the block's proportionality fails.
    """
    names = ["phi1", "phi2", "phi3", "phi4"]
    if initial not in names:
        raise ValueError(f"initial must be one of {names}, got {initial!r}")
    j = names.index(initial) + 1
    theta0 = setup.theta10 if j <= 2 else setup.theta20
    c0, s0 = math.cos(theta0), math.sin(theta0)
    ph = ic1_phase(setup, params, t, j, convention)
    # j = 1, 3: the first of the block's pair; j = 2, 4: the orthogonal one
    return BlockAmplitudes(c0 * ph, s0 * ph) if j % 2 else BlockAmplitudes(-s0 * ph, c0 * ph)


@dataclass(frozen=True)
class IC2Setup:
    """Rate-matched regime of one block: the mixing angle rotates with the splitting.

    The block is driven by the coupling ``lambda_m`` with rate constant
    ``kappa``; ``lambda_z`` contributes only a common phase.  Written
    for subspace I; subspace II is the same block on the mirrored
    setup (see the module docstring).

    Parameters
    ----------
    kappa : float
        Rate constant, nonzero.
    theta10 : float
        Initial mixing angle, in ``[0, pi/2]``.
    lambda_m : DriveProfile
        Coupling drive.
    lambda_z : DriveProfile, optional
        Common diagonal drive; defaults to zero.
    """

    kappa: float
    theta10: float
    lambda_m: DriveProfile
    lambda_z: DriveProfile = Constant(0.0)

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa == 0.0:
            raise ValueError("kappa must be finite and nonzero")
        if abs(self.kappa) < _MIN_RATE:
            raise ValueError(f"|kappa| must be at least {_MIN_RATE:g}")
        if not 0.0 <= self.theta10 <= 0.5 * math.pi:
            raise ValueError("theta10 must lie in [0, pi/2]")


@dataclass(frozen=True)
class Admissibility:
    """Verdict of the rate-matched branch-confinement inequality."""

    valid: bool
    reason: str | None = None


def _coupling_sinusoid(profile: DriveProfile) -> tuple[float, float, float] | None:
    # (amplitude, frequency, phase) with frequency > 0, or None if the
    # profile is not a pure sinusoid
    amp, freq, phase, offset = drive.single_term(profile)
    if freq == 0.0 or offset != 0.0 or amp == 0.0:
        return None
    if freq < 0.0:
        amp, freq, phase = -amp, -freq, -phase
    return amp, freq, phase


def ic2_admissible(setup: IC2Setup) -> Admissibility:
    """Check that the mixing angle stays on the principal branch for all t.

    The coupling drive must be a pure sinusoid ``mu*sin(beta*t + phi)``.
    For an interior initial angle the confinement inequality is
    ``beta/(2*rate*mu) >= max(2/(1+cos(2*theta0)), 2/(1-cos(2*theta0)))``;
    for ``theta0 = 0`` the phase must vanish and
    ``0 <= 4*rate*mu/beta <= 1``.  Returns a verdict, never raises.
    """
    rate, theta0 = setup.kappa, setup.theta10
    sinus = _coupling_sinusoid(setup.lambda_m)
    if sinus is None:
        return Admissibility(
            False, "coupling drive must be a pure sinusoid with nonzero amplitude"
        )
    mu, beta, phi = sinus
    if theta0 == 0.0:
        if phi != 0.0:
            return Admissibility(
                False, "initial phase must vanish when the angle starts at 0"
            )
        x = 4.0 * rate * mu / beta
        if x < 0.0:
            return Admissibility(
                False,
                "rate*amplitude/frequency must be nonnegative when the angle starts at 0",
            )
        if x > 1.0 + _BRANCH_SLACK:
            return Admissibility(
                False, f"|4*rate*amplitude/frequency| = {x:.6g} exceeds 1"
            )
        return Admissibility(True)
    c0 = math.cos(2.0 * theta0)
    hi = math.inf if 1.0 + c0 <= 0.0 else 2.0 / (1.0 + c0)
    lo = math.inf if 1.0 - c0 <= 0.0 else 2.0 / (1.0 - c0)
    bound = max(hi, lo)
    product = 2.0 * rate * mu
    # the product can underflow to a signed zero: the angle then never moves
    lhs = beta / product if product else math.copysign(math.inf, product)
    # ">=" must survive rounding: equality is the tangent-touch case
    if lhs < bound - _BRANCH_SLACK * max(1.0, abs(bound)):
        return Admissibility(
            False,
            f"frequency/(2*rate*amplitude) = {lhs:.6g} is below the "
            f"confinement bound {bound:.6g}",
        )
    return Admissibility(True)


def ic2_theta(setup: IC2Setup, t: float | np.ndarray) -> float | np.ndarray:
    """Mixing angle at time t on the principal branch ``2*theta in [0, pi]``.

    ``cos(2*theta(t)) = cos(2*theta0) - 2*rate*integral(coupling, [0, t])``.
    ``t`` is a float or an array of times; the angle is shaped like it.

    Raises
    ------
    BranchExitError
        If the cosine argument leaves ``[-1, 1]`` by more than 1e-12 at
        any of the times (an admissible setup never does).
    """
    t = np.asarray(t, dtype=float)
    c = math.cos(2.0 * setup.theta10) - 2.0 * setup.kappa * drive.integral(setup.lambda_m, t)
    exits = np.flatnonzero(np.abs(c) > 1.0 + _BRANCH_SLACK)
    if exits.size:
        i = exits[0]
        raise BranchExitError(
            f"cos(2*theta) = {np.ravel(c)[i]:.17g} left the principal branch "
            f"at t = {t.flat[i]:.17g}"
        )
    return 0.5 * np.arccos(np.clip(c, -1.0, 1.0))


def ic2_evolve(setup: IC2Setup, t: float | np.ndarray, initial: str) -> BlockAmplitudes:
    """Propagate one canonical eigenstate under rate-matched drive.

    With ``theta`` the angle from :func:`ic2_theta`,
    ``delta = (theta - theta0)*sqrt(1 + rate**-2)``,
    ``rbar = 1/sqrt(1 + rate**-2)`` and ``L`` the accumulated diagonal
    phase ``exp(-i*integral(lambda_z)/4)``:

    ``x1 = L*(cos(theta)*(cos(delta) - i*rbar*sin(delta)/rate) + sin(theta)*rbar*sin(delta))``
    ``x2 = L*(sin(theta)*(cos(delta) - i*rbar*sin(delta)/rate) - cos(theta)*rbar*sin(delta))``

    and the orthogonal pair

    ``y1 = L*(-sin(theta)*(cos(delta) + i*rbar*sin(delta)/rate) + cos(theta)*rbar*sin(delta))``
    ``y2 = L*(cos(theta)*(cos(delta) + i*rbar*sin(delta)/rate) + sin(theta)*rbar*sin(delta))``.

    ``initial`` is ``"phi1"`` (the pair ``x``) or ``"phi2"`` (``y``).
    The pairs are exactly unitary and orthogonal.  ``t`` is a float or
    an array of times; the amplitudes are shaped like it.

    Raises
    ------
    BranchExitError
        If the angle leaves the principal branch (inadmissible setup).
    """
    if initial not in ("phi1", "phi2"):
        raise ValueError(f"initial must be 'phi1' or 'phi2', got {initial!r}")
    rate = setup.kappa
    theta = ic2_theta(setup, t)
    stretch = math.sqrt(1.0 + rate**-2)
    rbar = 1.0 / stretch
    delta = (theta - setup.theta10) * stretch
    lz = 0.25 * drive.integral(setup.lambda_z, t)
    lam = np.exp(-1j * lz)
    cth, sth = np.cos(theta), np.sin(theta)
    cd, sd = np.cos(delta), np.sin(delta)
    inv = rbar / rate
    if initial == "phi1":
        a1 = lam * (cth * (cd - 1j * inv * sd) + sth * rbar * sd)
        a2 = lam * (sth * (cd - 1j * inv * sd) - cth * rbar * sd)
    else:
        a1 = lam * (-sth * (cd + 1j * inv * sd) + cth * rbar * sd)
        a2 = lam * (cth * (cd + 1j * inv * sd) + sth * rbar * sd)
    return BlockAmplitudes(a1, a2)


def ic2_derived_field(setup: IC2Setup, t: float) -> float:
    """Block field implied by the rate matching: coupling/tan(2*theta).

    Evaluated cancellation-free; the removable singularity at
    ``theta = pi/4`` gives 0.  At isolated branch-touch times
    (:func:`ic2_breakpoints`) the field has a jump; evaluation exactly
    there raises :class:`BranchExitError` (take one-sided limits from
    inside a segment instead).

    Raises
    ------
    ConfigError
        If the coupling is not a pure sinusoid.
    """
    sinus = _coupling_sinusoid(setup.lambda_m)
    if sinus is None:
        raise ConfigError("derived field requires a pure sinusoidal coupling")
    mu, beta, phi = sinus
    c0 = math.cos(2.0 * setup.theta10)
    # the same scalar helper integrate_block_ic2's RK4 steps with
    return _ic2_field(mu, beta, phi, setup.kappa, c0, 1.0 - c0, t)


def ic2_breakpoints(setup: IC2Setup, t_end: float) -> list[float]:
    """Times in (0, t_end) where the angle touches the branch edge.

    The derived field jumps at these times, so numeric integration
    must not step across them.  Solves ``cos(2*theta(t)) = +-1``
    exactly.

    Raises
    ------
    ValueError
        If ``t_end`` is not finite.
    ConfigError
        If the touches number more than the oracle's step budget.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    rate, profile = setup.kappa, setup.lambda_m
    if t_end <= 0.0:
        return []
    c0 = math.cos(2.0 * setup.theta10)
    out: list[float] = []
    sinus = _coupling_sinusoid(profile)
    if sinus is not None:
        mu, beta, phi = sinus
        # cos(2*theta(t)) = c0 - (2*rate*mu/beta)*(cos(phi) - cos(beta*t + phi));
        # a product 2*rate*mu that underflows to 0 means an infinite scale
        denom = 2.0 * rate * mu
        scale = beta / denom if denom != 0.0 else math.inf
        # beta*t + phi = branch + 2*pi*n for n0 <= n < n_end, which ends
        # a period past t_end to leave room for rounding
        runs = []
        for edge in (1.0, -1.0):
            # the shift is 0 at edge == c0 for every scale, also an infinite one
            shift = 0.0 if edge == c0 else (edge - c0) * scale
            target = math.cos(phi) + shift
            if abs(target) > 1.0:
                if abs(target) > 1.0 + _BRANCH_SLACK:
                    continue
                target = math.copysign(1.0, target)
            base = math.acos(target)
            # a set: at the edge itself (base 0) the two branches are one
            for branch in {base, -base}:
                n0 = math.floor((phi - branch) / (2.0 * math.pi))
                n_end = (beta * t_end + phi - branch) / (2.0 * math.pi) + 2.0
                runs.append((branch, n0, n_end))
        # each touch costs the oracle's march a step; an inf count is refused too
        count = sum(n_end - n0 for _branch, n0, n_end in runs)
        if not count <= _MAX_STEPS:
            raise ConfigError(
                f"the drive touches the branch edge about {count:.3e} times before "
                f"t_end, over the step budget of {_MAX_STEPS:.0e}; shorten the run"
            )
        for branch, n0, n_end in runs:
            n = np.arange(n0, math.floor(n_end), dtype=float)
            # the same arithmetic per n as one scalar at a time
            tt = (branch + 2.0 * math.pi * n - phi) / beta
            out.extend(tt[(tt > 0.0) & (tt < t_end)].tolist())
    else:
        # a constant, or a zero-amplitude sinusoid whose offset is 0;
        # a speed that underflows to 0 never reaches an edge
        speed = 2.0 * rate * drive.single_term(profile)[3]
        if speed != 0.0:
            for edge in (1.0, -1.0):
                tt = (c0 - edge) / speed
                if 0.0 < tt < t_end:
                    out.append(tt)
    out.sort()
    deduped: list[float] = []
    for tt in out:
        if not deduped or tt - deduped[-1] > 1e-12 * max(1.0, tt):
            deduped.append(tt)
    return deduped


def ic2_kernel_coeffs(setup: IC2Setup) -> tuple[float, ...]:
    """Coefficient vector driving the rate-matched numeric kernel.

    Layout: ``(mu, beta, phi, kappa, cos(2*theta10), 1 - cos(2*theta10))``
    followed by the two-term diagonal drive.
    Feed to :func:`spinpair.oracle.integrate_block_ic2` together with
    :func:`ic2_breakpoints`.

    Raises
    ------
    ConfigError
        If the coupling is not a pure sinusoid.
    """
    sinus = _coupling_sinusoid(setup.lambda_m)
    if sinus is None:
        raise ConfigError("kernel coefficients require a pure sinusoidal coupling")
    mu, beta, phi = sinus
    c0 = math.cos(2.0 * setup.theta10)
    amp, freq, phase, offset = drive.single_term(setup.lambda_z)
    return (mu, beta, phi, setup.kappa, c0, 1.0 - c0, amp, freq, phase, 0.0, 0.0, 0.0, offset)
