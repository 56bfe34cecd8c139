import math

import numpy as np
import pytest

from spinpair.drive import Constant, Sinusoid
from spinpair.entangle import Basis, FourState, basis_convert, concurrence_ic2, concurrence_pure
from spinpair.exact import IC2Setup
from conftest import tensor_hamiltonian
from spinpair import drive
from spinpair.model import ModelParams, block, hamiltonian_uncoupled
from spinpair.oracle import IntegratorConfig, integrate_full
from spinpair.symmetry import (
    Parity,
    map_params_global_flip,
    map_params_I_to_II,
    map_state_global_flip,
    map_state_I_to_II,
    parity,
)

PARAMS = ModelParams(
    lambda_x=Sinusoid(1.2, 5.0),
    lambda_y=Constant(0.4),
    lambda_z=Sinusoid(0.6, 3.0),
    omega_1=Constant(1.5),
    omega_2=Sinusoid(0.8, 5.0, 0.2),
)


def random_state(rng):
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    return f / np.linalg.norm(f)


def test_parity_labels():
    assert parity("pp") is Parity.POSITIVE
    assert parity("mm") is Parity.POSITIVE
    assert parity("pm") is Parity.NEGATIVE
    assert parity("mp") is Parity.NEGATIVE
    with pytest.raises(ValueError):
        parity("ps")


def test_parity_conserved_exactly():
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_full(PARAMS, [0.6, 0.8j, 0.0, 0.0], 1.0, cfg, sample_times=[1.0])
    assert trace.amplitudes[0, 2] == 0.0
    assert trace.amplitudes[0, 3] == 0.0


def test_param_maps_are_involutions():
    assert map_params_I_to_II(map_params_I_to_II(PARAMS)) == PARAMS
    assert map_params_global_flip(map_params_global_flip(PARAMS)) == PARAMS


def test_state_maps_are_involutions(rng):
    state = FourState.uncoupled(*random_state(rng))
    assert map_state_I_to_II(map_state_I_to_II(state)).amplitudes == state.amplitudes
    assert map_state_global_flip(map_state_global_flip(state)).amplitudes == state.amplitudes


def test_state_maps_require_uncoupled_order(rng):
    state = basis_convert(FourState.uncoupled(*random_state(rng)), Basis.COUPLED)
    with pytest.raises(ValueError):
        map_state_I_to_II(state)
    with pytest.raises(ValueError):
        map_state_global_flip(state)


@pytest.mark.parametrize("t", [0.0, 0.37, 1.9])
def test_swapped_params_exchange_blocks(t):
    mapped = map_params_I_to_II(PARAMS)
    # against the spin-operator Hamiltonian, which knows nothing of the map
    values = [drive.evaluate(getattr(PARAMS, name), t) for name in
              ("lambda_x", "lambda_y", "lambda_z", "omega_1", "omega_2")]
    assert np.allclose(block(mapped, t), tensor_hamiltonian(*values)[2:, 2:], atol=1e-14)
    # negation is exact, so the exchanged blocks are compared bitwise
    h, h_mapped = hamiltonian_uncoupled(PARAMS, t), hamiltonian_uncoupled(mapped, t)
    assert h_mapped[:2, :2].tobytes() == h[2:, 2:].tobytes()
    assert h_mapped[2:, 2:].tobytes() == h[:2, :2].tobytes()


def test_subspace_swap_commutes_with_evolution(rng):
    cfg = IntegratorConfig(step=1e-3)
    mapped = map_params_I_to_II(PARAMS)
    for _ in range(10):
        f = random_state(rng)
        swapped = np.array(map_state_I_to_II(FourState.uncoupled(*f)).amplitudes)
        direct = integrate_full(PARAMS, f, 1.0, cfg, sample_times=[1.0]).amplitudes[0]
        routed = integrate_full(mapped, swapped, 1.0, cfg, sample_times=[1.0]).amplitudes[0]
        back = np.array(map_state_I_to_II(FourState.uncoupled(*routed)).amplitudes)
        assert np.max(np.abs(direct - back)) < 1e-8


def test_global_flip_commutes_with_evolution(rng):
    cfg = IntegratorConfig(step=1e-3)
    mapped = map_params_global_flip(PARAMS)
    for _ in range(10):
        f = random_state(rng)
        flipped = np.array(map_state_global_flip(FourState.uncoupled(*f)).amplitudes)
        direct = integrate_full(PARAMS, f, 1.0, cfg, sample_times=[1.0]).amplitudes[0]
        routed = integrate_full(mapped, flipped, 1.0, cfg, sample_times=[1.0]).amplitudes[0]
        back = np.array(map_state_global_flip(FourState.uncoupled(*routed)).amplitudes)
        assert np.max(np.abs(direct - back)) < 1e-8


def test_concurrence_invariant_under_state_maps(rng):
    for _ in range(20):
        state = FourState.uncoupled(*random_state(rng))
        c = concurrence_pure(state)
        assert concurrence_pure(map_state_global_flip(state)) == pytest.approx(c, abs=1e-12)
        assert concurrence_pure(map_state_I_to_II(state)) == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("theta10", [0.2, math.pi / 4, 1.1])
def test_rate_matched_entanglement_mirror(theta10):
    # evolving |--> is equivalent to evolving |++> with the angle
    # reflected and the rate constant negated
    lm = Sinusoid(4.0, 50.0, math.pi / 50)
    setup = IC2Setup(kappa=0.1, theta10=theta10, lambda_m=lm)
    mirror = IC2Setup(kappa=-0.1, theta10=0.5 * math.pi - theta10, lambda_m=lm)
    t = np.linspace(0.0, 1.0, 21)
    assert concurrence_ic2("mm", setup, t) == pytest.approx(
        concurrence_ic2("pp", mirror, t), abs=1e-9
    )
