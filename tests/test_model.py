import math

import numpy as np
import pytest

from conftest import tensor_hamiltonian
from spinpair.drive import Constant, Sinusoid, scale
from spinpair.errors import ConfigError, NotStaticError
from spinpair.model import (
    COUPLED_LABELS,
    UNCOUPLED_LABELS,
    ModelParams,
    basis_change_matrix,
    block,
    hamiltonian_coupled,
    hamiltonian_uncoupled,
    map_params_I_to_II,
    spectrum,
    static_ground_state,
)

# the parameters whose subspace-I block is each subspace's block
SUBSPACES = [
    pytest.param(lambda p: p, id="Subspace.ONE"),
    pytest.param(map_params_I_to_II, id="Subspace.TWO"),
]


PARAM_SETS = [
    ModelParams(
        lambda_x=Constant(1.3),
        lambda_y=Constant(-0.4),
        lambda_z=Constant(0.9),
        omega_1=Constant(2.0),
        omega_2=Constant(-0.7),
    ),
    ModelParams(
        lambda_x=Sinusoid(2.0, 5.0, 0.3),
        lambda_y=scale(-1.0, Sinusoid(2.0, 5.0, 0.3)),
        lambda_z=Constant(0.0),
        omega_1=Sinusoid(1.0, 5.0, 0.3),
        omega_2=Sinusoid(1.0, 5.0, 0.3),
    ),
]


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("t", [0.0, 0.37, 2.5])
def test_hamiltonian_matches_spin_operator_construction(params, t):
    import spinpair.drive as drive

    reference = tensor_hamiltonian(
        drive.evaluate(params.lambda_x, t),
        drive.evaluate(params.lambda_y, t),
        drive.evaluate(params.lambda_z, t),
        drive.evaluate(params.omega_1, t),
        drive.evaluate(params.omega_2, t),
    )
    assert np.allclose(hamiltonian_uncoupled(params, t), reference, atol=1e-14)


def test_labels():
    assert UNCOUPLED_LABELS == ("pp", "mm", "pm", "mp")
    assert len(COUPLED_LABELS) == 4


def test_basis_change_is_involutory_and_orthogonal():
    b = basis_change_matrix()
    assert np.allclose(b @ b, np.eye(4), atol=1e-15)
    assert np.allclose(b, b.T.conj(), atol=0)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("t", [0.0, 1.1])
def test_coupled_hamiltonian_is_conjugated_uncoupled(params, t):
    b = basis_change_matrix()
    expected = b @ hamiltonian_uncoupled(params, t) @ b
    assert np.allclose(hamiltonian_coupled(params, t), expected, atol=1e-14)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("t", [0.0, 0.8])
def test_block_extracts_uncoupled_corners(params, t):
    h = hamiltonian_uncoupled(params, t)
    # the same floats, compared bitwise
    assert block(params, t).tobytes() == h[:2, :2].tobytes()
    assert block(map_params_I_to_II(params), t).tobytes() == h[2:, 2:].tobytes()


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("subspace", SUBSPACES)
@pytest.mark.parametrize("t", [0.0, 0.61, 3.0])
def test_spectrum_matches_numpy(params, subspace, t):
    spec = spectrum(subspace(params), t)
    evals = np.linalg.eigvalsh(block(subspace(params), t))
    assert spec.eps_minus == pytest.approx(evals[0], abs=1e-12)
    assert spec.eps_plus == pytest.approx(evals[1], abs=1e-12)
    assert spec.gap == pytest.approx(0.5 * (evals[1] - evals[0]), abs=1e-12)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("subspace", SUBSPACES)
def test_spectrum_angle_gives_eigenvector(params, subspace):
    t = 0.45
    spec = spectrum(subspace(params), t)
    if spec.degenerate:
        return
    v = np.array([math.cos(spec.theta), math.sin(spec.theta)])
    h = block(subspace(params), t)
    assert np.allclose(h @ v, spec.eps_plus * v, atol=1e-12)


def test_spectrum_degenerate_flag():
    params = ModelParams(
        lambda_x=Constant(0.0),
        lambda_y=Constant(0.0),
        lambda_z=Constant(1.0),
        omega_1=Constant(0.0),
        omega_2=Constant(0.0),
    )
    spec = spectrum(params, 0.0)
    assert spec.degenerate
    assert spec.theta == 0.0
    assert spec.gap == 0.0


def test_from_derived_round_trip():
    wp = Sinusoid(2.0, 50.0, math.pi / 50)
    params = ModelParams.from_derived(
        omega_plus=wp,
        lambda_m=scale(0.5, wp),
        lambda_z=Constant(0.4),
    )
    for t in (0.0, 0.3, 1.9):
        field, coupling, z = params.block_values(t)
        assert field == pytest.approx(2.0 * math.sin(50.0 * t + math.pi / 50), abs=1e-14)
        assert coupling == pytest.approx(0.5 * field, abs=1e-14)
        assert z == 0.4 / 4
        assert map_params_I_to_II(params).block_values(t) == (0.0, 0.0, -0.4 / 4)


def test_from_derived_rejects_incommensurate_mix():
    with pytest.raises(ConfigError):
        ModelParams.from_derived(
            omega_plus=Sinusoid(1.0, 3.0),
            omega_minus=Sinusoid(1.0, 5.0),
        )
    with pytest.raises(ConfigError):
        ModelParams.from_derived(
            omega_plus=Sinusoid(1.0, 3.0),
            omega_minus=Constant(0.5),
        )
    # omega_1 = omega_plus + omega_minus overflows; profiles refuse inf
    with pytest.raises(ConfigError, match="overflows"):
        ModelParams.from_derived(omega_plus=Constant(1e308), omega_minus=Constant(1e308))


# each derived drive's place in the blocks: (the parameters whose
# subspace-I block it is in, entry of block_values); lambda_z is the
# diagonal of both blocks
BLOCK_ENTRIES = {
    "omega_plus": [(lambda p: p, 0)],
    "lambda_m": [(lambda p: p, 1)],
    "omega_minus": [(map_params_I_to_II, 0)],
    "lambda_p": [(map_params_I_to_II, 1)],
    "lambda_z": [(lambda p: p, 2), (map_params_I_to_II, 2)],
}


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize(
    "name", ["omega_plus", "omega_minus", "lambda_m", "lambda_p", "lambda_z"]
)
def test_derived_two_term_reconstructs_accessor(params, name):
    # each (terms, offset) sum of sines of block_terms, evaluated, equals
    # its block value: field, coupling and z alike, in either subspace
    for subspace, entry in BLOCK_ENTRIES[name]:
        block_params = subspace(params)
        terms, offset = block_params.block_terms()[entry]
        assert all(a != 0.0 for a, _b, _p in terms)
        for t in (0.0, 0.7, 2.3):
            value = offset + sum(a * math.sin(b * t + p) for a, b, p in terms)
            assert block_params.block_values(t)[entry] == pytest.approx(value, abs=1e-13)


def test_all_frequencies_and_is_static():
    params = PARAM_SETS[1]
    assert sorted(set(params.all_frequencies())) == [5.0]
    assert not params.is_static()
    assert PARAM_SETS[0].is_static()


def test_static_ground_state_kinds():
    def make(wp, wm, lp, lz):
        return ModelParams.from_derived(
            omega_plus=Constant(wp),
            omega_minus=Constant(wm),
            lambda_p=Constant(lp),
            lambda_z=Constant(lz),
        )

    deep_field = static_ground_state(make(2.0, 0.1, 0.1, 0.4))
    assert deep_field.kind == "phi2"
    assert deep_field.eta == pytest.approx(2.0)
    assert deep_field.energy_one == pytest.approx(0.1 - 2.0)

    strong_pair = static_ground_state(make(0.1, 1.5, 0.8, 0.4))
    assert strong_pair.kind == "phi4"
    assert strong_pair.zeta == pytest.approx(math.hypot(1.5, 0.8))

    balanced = static_ground_state(make(1.0, 1.0, 0.0, 0.0))
    assert balanced.kind == "degenerate_pair"


def test_static_ground_state_energies_match_numpy():
    params = ModelParams(
        lambda_x=Constant(1.3),
        lambda_y=Constant(-0.4),
        lambda_z=Constant(0.9),
        omega_1=Constant(2.0),
        omega_2=Constant(-0.7),
    )
    gs = static_ground_state(params)
    h = hamiltonian_uncoupled(params, 0.0)
    evals1 = np.linalg.eigvalsh(h[:2, :2])
    evals2 = np.linalg.eigvalsh(h[2:, 2:])
    assert gs.energy_one == pytest.approx(evals1[0], abs=1e-12)
    assert gs.energy_two == pytest.approx(evals2[0], abs=1e-12)


def test_static_ground_state_requires_static_profiles():
    params = ModelParams.from_derived(omega_plus=Sinusoid(1.0, 2.0))
    with pytest.raises(NotStaticError):
        static_ground_state(params)
