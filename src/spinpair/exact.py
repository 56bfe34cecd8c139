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

Both produce the amplitude pairs of the four canonical initial
eigenstates, labelled ``x``/``y`` for subspace I and ``z``/``w`` for
subspace II.  The pairs are exactly unitary and mutually orthogonal
for all times.
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
from .model import ModelParams, Subspace, diagonal_sign

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

# initial eigenstate -> (amplitude label, subspace)
_INITIALS = {
    "phi1": ("x", Subspace.ONE),
    "phi2": ("y", Subspace.ONE),
    "phi3": ("z", Subspace.TWO),
    "phi4": ("w", Subspace.TWO),
}

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
    subspace : Subspace
        Block the amplitudes live in.
    label : str
        ``"x"``/``"y"`` (subspace I) or ``"z"``/``"w"`` (subspace II).
    """

    a1: complex
    a2: complex
    subspace: Subspace
    label: str

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
    params: ModelParams, subspace: Subspace, c_field: float, c_coupling: float
) -> tuple[dict[float, tuple[float, float]], float]:
    # c_field*field + c_coupling*coupling, exactly, as
    # ({frequency > 0: (sin part, cos part)}, offset): each term
    # a*sin(b*t + p) adds a*cos(p) to the sin(b*t) and a*sin(p) to the
    # cos(b*t) coefficient of |b|, after (a, b, p) -> (-a, -b, -p) for b < 0
    terms = params.block_terms(subspace)
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


def _require_proportional(setup: IC1Setup, params: ModelParams, subspace: Subspace) -> None:
    # cos(2*theta0)*coupling - sin(2*theta0)*field must vanish for all t;
    # its sup is bounded by the summed term amplitudes plus the offset,
    # scaled by the larger summed amplitude of the field and the coupling
    theta0 = setup.theta10 if subspace is Subspace.ONE else setup.theta20
    parts, offset = _block_combination(
        params, subspace, -math.sin(2.0 * theta0), math.cos(2.0 * theta0)
    )
    resid = sum(math.hypot(s, c) for s, c in parts.values()) + abs(offset)
    terms = params.block_terms(subspace)
    scale = max(1.0, *(abs(terms[i]) + abs(terms[i + 3]) + abs(terms[i + 6]) for i in (0, 7)))
    if not resid <= _PROPORTIONALITY_TOL * scale:
        raise NotIntegrableError(
            f"subspace {subspace.value} coupling is not proportional to its "
            f"field (scaled residual {resid / scale:.3e})"
        )


def _splitting_integral(
    params: ModelParams,
    subspace: Subspace,
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
    parts, offset = _block_combination(params, subspace, c2, s2)
    parts = {freq: sc for freq, sc in parts.items() if sc != (0.0, 0.0)}
    if not parts:
        return drive.integral_abs(Constant(offset), t)
    if len(parts) == 1 and offset == 0.0:
        ((freq, (s, c)),) = parts.items()
        return drive.integral_abs(drive.Sinusoid(math.hypot(s, c), freq, math.atan2(c, s)), t)
    raise NotIntegrableError(
        f"subspace {subspace.value} splitting mixes several frequencies or a "
        "sinusoid with an offset, so its magnitude has no closed integral; "
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
    subspace = Subspace.ONE if j <= 2 else Subspace.TWO
    _require_proportional(setup, params, subspace)
    theta0 = setup.theta10 if subspace is Subspace.ONE else setup.theta20
    t = np.asarray(t, dtype=float)
    field, coupling, diag = params.block_integrals(subspace, t)
    split = _splitting_integral(params, subspace, theta0, t, convention, field, coupling)
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
    try:
        label, subspace = _INITIALS[initial]
    except KeyError:
        raise ValueError(
            f"initial must be one of {sorted(_INITIALS)}, got {initial!r}"
        ) from None
    theta0 = setup.theta10 if subspace is Subspace.ONE else setup.theta20
    c0, s0 = math.cos(theta0), math.sin(theta0)
    if label in ("x", "z"):
        ph = ic1_phase(setup, params, t, 1 if subspace is Subspace.ONE else 3, convention)
        return BlockAmplitudes(c0 * ph, s0 * ph, subspace, label)
    ph = ic1_phase(setup, params, t, 2 if subspace is Subspace.ONE else 4, convention)
    return BlockAmplitudes(-s0 * ph, c0 * ph, subspace, label)


@dataclass(frozen=True)
class IC2Setup:
    """Rate-matched regime: the mixing angle rotates with the splitting.

    Subspace I is driven by the coupling ``lambda_m`` with rate
    constant ``kappa``; subspace II by ``lambda_p`` with rate constant
    ``chi``.  ``lambda_z`` contributes only a common (subspace-signed)
    phase.  ``chi=0`` (the default) marks subspace II as unused;
    subspace-II operations then raise :class:`ConfigError`.

    Parameters
    ----------
    kappa : float
        Subspace-I rate constant, nonzero.
    theta10 : float
        Initial subspace-I mixing angle, in ``[0, pi/2]``.
    lambda_m : DriveProfile
        Subspace-I coupling drive.
    lambda_z : DriveProfile, optional
        Common diagonal drive; defaults to zero.
    chi : float, optional
        Subspace-II rate constant; 0 disables subspace II.
    theta20 : float, optional
        Initial subspace-II mixing angle, in ``[0, pi/2]``.
    lambda_p : DriveProfile, optional
        Subspace-II coupling drive.
    """

    kappa: float
    theta10: float
    lambda_m: DriveProfile
    lambda_z: DriveProfile = Constant(0.0)
    chi: float = 0.0
    theta20: float = 0.0
    lambda_p: DriveProfile = Constant(0.0)

    def __post_init__(self):
        if self.kappa == 0.0:
            raise ValueError("kappa must be nonzero")
        for name, rate in (("kappa", self.kappa), ("chi", self.chi)):
            if 0.0 < abs(rate) < _MIN_RATE:
                raise ValueError(f"|{name}| must be 0 or at least {_MIN_RATE:g}")
        if not 0.0 <= self.theta10 <= 0.5 * math.pi:
            raise ValueError("theta10 must lie in [0, pi/2]")
        if not 0.0 <= self.theta20 <= 0.5 * math.pi:
            raise ValueError("theta20 must lie in [0, pi/2]")


@dataclass(frozen=True)
class Admissibility:
    """Verdict of the rate-matched branch-confinement inequality."""

    valid: bool
    reason: str | None = None


def _ic2_pair(setup: IC2Setup, subspace: Subspace) -> tuple[float, float, DriveProfile]:
    if subspace is Subspace.ONE:
        return setup.kappa, setup.theta10, setup.lambda_m
    if setup.chi == 0.0:
        raise ConfigError("subspace II requested but chi is 0 (unused)")
    return setup.chi, setup.theta20, setup.lambda_p


def _coupling_sinusoid(profile: DriveProfile) -> tuple[float, float, float] | None:
    # (amplitude, frequency, phase) with frequency > 0, or None if the
    # profile is not a pure sinusoid
    amp, freq, phase, offset = drive.single_term(profile)
    if freq == 0.0 or offset != 0.0 or amp == 0.0:
        return None
    if freq < 0.0:
        amp, freq, phase = -amp, -freq, -phase
    return amp, freq, phase


def ic2_admissible(setup: IC2Setup, subspace: Subspace = Subspace.ONE) -> Admissibility:
    """Check that the mixing angle stays on the principal branch for all t.

    The coupling drive must be a pure sinusoid ``mu*sin(beta*t + phi)``.
    For an interior initial angle the confinement inequality is
    ``beta/(2*rate*mu) >= max(2/(1+cos(2*theta0)), 2/(1-cos(2*theta0)))``;
    for ``theta0 = 0`` the phase must vanish and
    ``0 <= 4*rate*mu/beta <= 1``.  Returns a verdict, never raises.
    """
    try:
        rate, theta0, profile = _ic2_pair(setup, subspace)
    except ConfigError as exc:
        return Admissibility(False, str(exc))
    sinus = _coupling_sinusoid(profile)
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


def ic2_theta(
    setup: IC2Setup, t: float | np.ndarray, subspace: Subspace = Subspace.ONE
) -> float | np.ndarray:
    """Mixing angle at time t on the principal branch ``2*theta in [0, pi]``.

    ``cos(2*theta(t)) = cos(2*theta0) - 2*rate*integral(coupling, [0, t])``.
    ``t`` is a float or an array of times; the angle is shaped like it.

    Raises
    ------
    BranchExitError
        If the cosine argument leaves ``[-1, 1]`` by more than 1e-12 at
        any of the times (an admissible setup never does).
    """
    rate, theta0, profile = _ic2_pair(setup, subspace)
    t = np.asarray(t, dtype=float)
    c = math.cos(2.0 * theta0) - 2.0 * rate * drive.integral(profile, t)
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
    phase ``exp(-i*integral(lambda_z)/4)`` (conjugated for subspace II):

    ``x1 = L*(cos(theta)*(cos(delta) - i*rbar*sin(delta)/rate) + sin(theta)*rbar*sin(delta))``
    ``x2 = L*(sin(theta)*(cos(delta) - i*rbar*sin(delta)/rate) - cos(theta)*rbar*sin(delta))``

    and the orthogonal pair

    ``y1 = L*(-sin(theta)*(cos(delta) + i*rbar*sin(delta)/rate) + cos(theta)*rbar*sin(delta))``
    ``y2 = L*(cos(theta)*(cos(delta) + i*rbar*sin(delta)/rate) + sin(theta)*rbar*sin(delta))``.

    Subspace II follows the same expressions with its own rate, angle
    and coupling.  The pairs are exactly unitary and orthogonal.  ``t``
    is a float or an array of times; the amplitudes are shaped like it.

    Raises
    ------
    BranchExitError
        If the angle leaves the principal branch (inadmissible setup).
    ConfigError
        If subspace II is requested while disabled.
    """
    try:
        label, subspace = _INITIALS[initial]
    except KeyError:
        raise ValueError(
            f"initial must be one of {sorted(_INITIALS)}, got {initial!r}"
        ) from None
    rate, theta0, _profile = _ic2_pair(setup, subspace)
    theta = ic2_theta(setup, t, subspace)
    stretch = math.sqrt(1.0 + rate**-2)
    rbar = 1.0 / stretch
    delta = (theta - theta0) * stretch
    lz = 0.25 * drive.integral(setup.lambda_z, t)
    lam = np.exp(-1j * diagonal_sign(subspace) * lz)
    cth, sth = np.cos(theta), np.sin(theta)
    cd, sd = np.cos(delta), np.sin(delta)
    inv = rbar / rate
    if label in ("x", "z"):
        a1 = lam * (cth * (cd - 1j * inv * sd) + sth * rbar * sd)
        a2 = lam * (sth * (cd - 1j * inv * sd) - cth * rbar * sd)
    else:
        a1 = lam * (-sth * (cd + 1j * inv * sd) + cth * rbar * sd)
        a2 = lam * (cth * (cd + 1j * inv * sd) + sth * rbar * sd)
    return BlockAmplitudes(a1, a2, subspace, label)


def ic2_derived_field(
    setup: IC2Setup, t: float, subspace: Subspace = Subspace.ONE
) -> float:
    """Block field implied by the rate matching: coupling/tan(2*theta).

    Evaluated cancellation-free; the removable singularity at
    ``theta = pi/4`` gives 0.  At isolated branch-touch times
    (:func:`ic2_breakpoints`) the field has a jump; evaluation exactly
    there raises :class:`BranchExitError` (take one-sided limits from
    inside a segment instead).

    Raises
    ------
    ConfigError
        If the coupling is not a pure sinusoid, or subspace II is
        requested while disabled.
    """
    rate, theta0, profile = _ic2_pair(setup, subspace)
    sinus = _coupling_sinusoid(profile)
    if sinus is None:
        raise ConfigError("derived field requires a pure sinusoidal coupling")
    mu, beta, phi = sinus
    c0 = math.cos(2.0 * theta0)
    # the same scalar helper the rate-matched RK4 kernel steps with
    return _ic2_field(mu, beta, phi, rate, c0, 1.0 - c0, t)


def ic2_breakpoints(
    setup: IC2Setup, t_end: float, subspace: Subspace = Subspace.ONE
) -> list[float]:
    """Times in (0, t_end) where the angle touches the branch edge.

    The derived field jumps at these times, so numeric integration
    must not step across them.  Solves ``cos(2*theta(t)) = +-1``
    exactly for sinusoidal and constant couplings.

    Raises
    ------
    ConfigError
        If the coupling is neither a pure sinusoid nor a constant, or
        subspace II is requested while disabled.
    """
    rate, theta0, profile = _ic2_pair(setup, subspace)
    if t_end <= 0.0:
        return []
    c0 = math.cos(2.0 * theta0)
    out: list[float] = []
    sinus = _coupling_sinusoid(profile)
    if sinus is not None:
        mu, beta, phi = sinus
        # cos(2*theta(t)) = c0 - (2*rate*mu/beta)*(cos(phi) - cos(beta*t + phi))
        scale = beta / (2.0 * rate * mu)
        for edge in (1.0, -1.0):
            target = math.cos(phi) + (edge - c0) * scale
            if abs(target) > 1.0:
                if abs(target) > 1.0 + _BRANCH_SLACK:
                    continue
                target = math.copysign(1.0, target)
            base = math.acos(target)
            for branch in (base, -base):
                # beta*t + phi = branch + 2*pi*n
                n0 = math.floor((phi - branch) / (2.0 * math.pi))
                n = n0
                while True:
                    tt = (branch + 2.0 * math.pi * n - phi) / beta
                    if tt >= t_end:
                        break
                    if tt > 0.0:
                        out.append(tt)
                    n += 1
    else:
        amp, freq, phase, offset = drive.single_term(profile)
        if freq != 0.0 or amp != 0.0:
            raise ConfigError(
                "breakpoints require a pure sinusoidal or constant coupling"
            )
        if offset != 0.0:
            for edge in (1.0, -1.0):
                tt = (c0 - edge) / (2.0 * rate * offset)
                if 0.0 < tt < t_end:
                    out.append(tt)
    out.sort()
    deduped: list[float] = []
    for tt in out:
        if not deduped or tt - deduped[-1] > 1e-12 * max(1.0, tt):
            deduped.append(tt)
    return deduped


def ic2_kernel_coeffs(
    setup: IC2Setup, subspace: Subspace = Subspace.ONE
) -> tuple[float, ...]:
    """Coefficient vector driving the rate-matched numeric kernel.

    Layout: ``(mu, beta, phi, rate, cos(2*theta0), 1 - cos(2*theta0))``
    followed by the two-term diagonal drive (negated for subspace II).
    Feed to :func:`spinpair.oracle.integrate_block_ic2` together with
    :func:`ic2_breakpoints`.

    Raises
    ------
    ConfigError
        If the coupling is not a pure sinusoid, or subspace II is
        requested while disabled.
    """
    rate, theta0, profile = _ic2_pair(setup, subspace)
    sinus = _coupling_sinusoid(profile)
    if sinus is None:
        raise ConfigError("kernel coefficients require a pure sinusoidal coupling")
    mu, beta, phi = sinus
    c0 = math.cos(2.0 * theta0)
    amp, freq, phase, offset = drive.single_term(setup.lambda_z)
    sign = diagonal_sign(subspace)
    return (
        mu, beta, phi, rate, c0, 1.0 - c0, sign * amp, freq, phase, 0.0, 0.0, 0.0, sign * offset
    )
