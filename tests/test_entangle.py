import cmath
import math

import numpy as np
import pytest

from spinpair.drive import Sinusoid
from spinpair.entangle import (
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
from spinpair.errors import InvalidDensityMatrixError
from spinpair.exact import BlockAmplitudes, IC1Setup, IC2Setup, ic1_evolve, ic1_phase, ic2_evolve

R2 = math.sqrt(0.5)

SY = np.array([[0, -1j], [1j, 0]])
# tensor order {++, +-, -+, --} -> uncoupled order {++, --, +-, -+}
PERM = [0, 3, 1, 2]


def random_pure(rng):
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = f / np.linalg.norm(f)
    return FourState.uncoupled(*f)


def random_unitary2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- pure-state machinery ---------------------------------------------------

def test_four_state_validation():
    with pytest.raises(ValueError):
        FourState.uncoupled(1.0, 1.0, 0.0, 0.0)
    state = FourState.uncoupled(R2, R2, 0.0, 0.0)
    assert state.basis is Basis.UNCOUPLED


def test_known_concurrences():
    assert concurrence_pure(FourState.uncoupled(1.0, 0.0, 0.0, 0.0)) == 0.0
    assert concurrence_pure(FourState.uncoupled(R2, R2, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_pure(FourState.uncoupled(0.0, 0.0, R2, R2)) == pytest.approx(1.0, abs=1e-15)
    # product state (|+> + |->)/sqrt(2) x |+>
    assert concurrence_pure(FourState.uncoupled(R2, 0.0, 0.0, R2)) == 0.0


def test_basis_convert_round_trip(rng):
    for _ in range(20):
        state = random_pure(rng)
        over = basis_convert(state, Basis.COUPLED)
        back = basis_convert(over, Basis.UNCOUPLED)
        assert np.allclose(back.as_array(), state.as_array(), atol=1e-15)
        assert concurrence_pure(over) == pytest.approx(concurrence_pure(state), abs=1e-12)


def test_basis_convert_mixes_only_last_pair():
    state = FourState.uncoupled(0.6, 0.8j, 0.0, 0.0)
    over = basis_convert(state, Basis.COUPLED)
    assert over.amplitudes[:2] == state.amplitudes[:2]


def test_spin_flip_matrix_is_permuted_pauli_product():
    tensor = np.kron(SY, SY)
    assert np.array_equal(spin_flip_matrix(), tensor[np.ix_(PERM, PERM)])


def test_concurrence_is_spin_flip_overlap(rng):
    y = spin_flip_matrix()
    for _ in range(20):
        state = random_pure(rng)
        f = state.as_array()
        assert concurrence_pure(state) == pytest.approx(abs(f @ y @ f), abs=1e-12)


def test_concurrence_local_unitary_invariance(rng):
    inv = np.argsort(PERM)
    for _ in range(10):
        state = random_pure(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        rotated = (u @ state.as_array()[inv])[PERM]
        after = FourState.uncoupled(*rotated)
        assert concurrence_pure(after) == pytest.approx(concurrence_pure(state), abs=1e-12)


# --- mixed states -----------------------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.eye(3))
    bad_herm = np.eye(4, dtype=complex) / 4.0
    bad_herm[0, 1] = 0.1
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(bad_herm).validate()
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.eye(4, dtype=complex) / 2.0).validate()
    negative = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(negative).validate()


def test_wootters_rejects_non_finite_matrices():
    one_nan = np.eye(4, dtype=complex) / 4.0
    one_nan[2, 2] = np.nan
    for m in (np.full((4, 4), np.nan), one_nan):
        with pytest.raises(InvalidDensityMatrixError, match="non-finite"):
            concurrence_wootters(DensityMatrix(m))


def test_wootters_equals_pure_formula(rng):
    for _ in range(50):
        state = random_pure(rng)
        rho = DensityMatrix.from_pure(state)
        assert concurrence_wootters(rho) == pytest.approx(concurrence_pure(state), abs=1e-9)


def test_wootters_coupled_basis_input(rng):
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = f / np.linalg.norm(f)
    state = FourState.coupled(*f)
    rho = DensityMatrix.from_pure(state)
    assert rho.basis is Basis.COUPLED
    assert concurrence_wootters(rho) == pytest.approx(concurrence_pure(state), abs=1e-9)


@pytest.mark.parametrize("p,expected", [
    (0.5, 0.25),
    (1.0 / 3.0, 0.0),
    (0.2, 0.0),
    (0.9, 0.85),
])
def test_wootters_werner_states(p, expected):
    bell = np.array([R2, R2, 0.0, 0.0], dtype=complex)
    rho = DensityMatrix(p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0)
    assert concurrence_wootters(rho) == pytest.approx(expected, abs=1e-9)


# --- assembled evolutions ----------------------------------------------------

def synthetic_pairs(rng, theta0):
    u = random_unitary2(rng)
    c0, s0 = math.cos(theta0), math.sin(theta0)
    x = u @ np.array([c0, s0])
    y = u @ np.array([-s0, c0])
    return (
        BlockAmplitudes(x[0], x[1]),
        BlockAmplitudes(y[0], y[1]),
    )


def test_generic_formula_matches_assembled_state(rng):
    for _ in range(10):
        theta10 = rng.uniform(0.0, 0.5 * math.pi)
        theta20 = rng.uniform(0.0, 0.5 * math.pi)
        x, y = synthetic_pairs(rng, theta10)
        z, w = synthetic_pairs(rng, theta20)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps = amps / np.linalg.norm(amps)
        a, b, c, d = amps
        alpha = a * math.cos(theta10) + b * math.sin(theta10)
        beta = -a * math.sin(theta10) + b * math.cos(theta10)
        gamma = c * math.cos(theta20) + d * math.sin(theta20)
        delta = -c * math.sin(theta20) + d * math.cos(theta20)
        f0 = alpha * x.a1 + beta * y.a1
        f1 = alpha * x.a2 + beta * y.a2
        f2 = gamma * z.a1 + delta * w.a1
        f3 = gamma * z.a2 + delta * w.a2
        assembled = concurrence_pure(FourState.uncoupled(f0, f1, f2, f3))
        got = concurrence_generic(a, b, c, d, x, y, z, w, theta10, theta20)
        assert got == pytest.approx(assembled, abs=1e-12)


INITIAL_AB = {
    "pp": (1.0, 0.0),
    "mm": (0.0, 1.0),
    "bell_s": (R2, R2),
    "bell_a": (R2, -R2),
}


@pytest.mark.parametrize("kind", sorted(INITIAL_AB))
@pytest.mark.parametrize("t", [0.0, 0.11, 0.73, 2.0])
def test_concurrence_ic1_matches_assembled_evolution(kind, t):
    from spinpair.drive import Constant, scale
    from spinpair.model import ModelParams

    wp = Sinusoid(2.0, 50.0, math.pi / 50)
    setup = IC1Setup.from_ratios(0.5)
    params = ModelParams.from_derived(
        omega_plus=wp, lambda_m=scale(0.5, wp), lambda_z=Constant(0.3)
    )
    x = ic1_evolve(setup, params, t, "phi1")
    y = ic1_evolve(setup, params, t, "phi2")
    a, b = INITIAL_AB[kind]
    assembled = concurrence_generic(a, b, 0, 0, x, y, x, y, setup.theta10, 0.0)
    # reduced form depends on the splitting phase only through pi-periodic terms
    ph1 = ic1_phase(setup, params, t, 1)
    ph2 = ic1_phase(setup, params, t, 2)
    j_mod = -0.5 * cmath.phase(ph1 * ph2.conjugate())
    assert concurrence_ic1(kind, setup.theta10, j_mod) == pytest.approx(assembled, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(INITIAL_AB))
@pytest.mark.parametrize("t", [0.0, 0.17, 0.49, 0.9])
def test_concurrence_ic2_matches_assembled_evolution(kind, t):
    setup = IC2Setup(kappa=0.1, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 50.0, math.pi / 50))
    x = ic2_evolve(setup, t, "phi1")
    y = ic2_evolve(setup, t, "phi2")
    a, b = INITIAL_AB[kind]
    assembled = concurrence_generic(a, b, 0, 0, x, y, x, y, setup.theta10, 0.0)
    assert concurrence_ic2(kind, setup, t) == pytest.approx(assembled, abs=1e-12)


def test_opposite_poles_share_concurrence():
    setup = IC2Setup(kappa=0.1, theta10=0.3, lambda_m=Sinusoid(4.0, 50.0))
    for t in (0.1, 0.37, 0.8):
        assert concurrence_ic2("pp", setup, t) == pytest.approx(
            concurrence_ic2("mm", setup, t), abs=1e-14
        )
        assert concurrence_ic1("pp", 0.3, 1.1 * t) == pytest.approx(
            concurrence_ic1("mm", 0.3, 1.1 * t), abs=1e-14
        )


def test_closed_forms_reject_unknown_kind():
    setup = IC2Setup(kappa=0.1, theta10=0.3, lambda_m=Sinusoid(4.0, 50.0))
    with pytest.raises(ValueError):
        concurrence_ic1("psi", 0.3, 1.0)
    with pytest.raises(ValueError):
        concurrence_ic2("psi", setup, 0.1)


def test_concurrence_peak_values_proportional_drive():
    # sin(2*theta10)**2 = k**2/(1+k**2); the peak over the phase is
    # 2*s*sqrt(1 - s**2) for s**2 < 1/2 and exactly 1 beyond
    for k, peak in ((0.5, 0.8), (1.0, 1.0), (2.0, 1.0)):
        theta10 = 0.5 * math.atan(k)
        best = max(
            concurrence_ic1("pp", theta10, j) for j in np.linspace(0.0, math.pi, 20001)
        )
        assert best == pytest.approx(peak, abs=1e-6)
