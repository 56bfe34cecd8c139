import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import quadrature
from spinpair.drive import (
    Constant,
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

PROFILES = [
    Constant(0.0),
    Constant(0.7),
    Constant(-2.0),
    Sinusoid(2.0, 50.0, math.pi / 50),
    Sinusoid(-1.5, 3.0),
    Sinusoid(4.0, 10.0, 1.3),
    Scaled(0.5, Sinusoid(2.0, 50.0, math.pi / 50)),
    Scaled(-2.0, Scaled(0.25, Constant(3.0))),
    Scaled(0.0, Sinusoid(1.0, 2.0)),
]


def test_evaluate_known_values():
    assert evaluate(Constant(0.7), 12.3) == 0.7
    assert evaluate(Sinusoid(2.0, 5.0, 0.5), 1.1) == 2.0 * math.sin(5.0 * 1.1 + 0.5)
    assert evaluate(Scaled(-3.0, Constant(2.0)), 0.0) == -6.0


def test_sinusoid_rejects_zero_frequency():
    with pytest.raises(ValueError):
        Sinusoid(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profiles_reject_non_finite_numbers(bad):
    # a NaN profile used to pass ic2_admissible and give NaN amplitudes
    for make in (
        lambda: Constant(bad),
        lambda: Sinusoid(bad, 5.0),
        lambda: Sinusoid(1.0, bad),
        lambda: Sinusoid(1.0, 5.0, bad),
        lambda: Scaled(bad, Constant(1.0)),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, -0.9, 12.0])
def test_integral_matches_quadrature(profile, t):
    expected = quadrature(lambda s: evaluate(profile, s), 0.0, t)
    assert integral(profile, t) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 12.0])
def test_integral_abs_matches_quadrature(profile, t):
    expected = quadrature(lambda s: abs(evaluate(profile, s)), 0.0, t, tol=1e-12)
    assert integral_abs(profile, t) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("profile", PROFILES)
def test_integral_abs_bounds_integral(profile):
    for t in (0.2, 1.0, 7.7):
        assert integral_abs(profile, t) >= abs(integral(profile, t)) - 1e-12


@given(
    amp=st.floats(-5, 5),
    freq=st.floats(0.1, 40),
    phase=st.floats(-3, 3),
    t=st.floats(0, 4),
)
def test_integral_derivative_is_value(amp, freq, phase, t):
    profile = Sinusoid(amp, freq, phase)
    h = 1e-6
    deriv = (integral(profile, t + h) - integral(profile, t - h)) / (2 * h)
    assert deriv == pytest.approx(evaluate(profile, t), abs=1e-4 * max(1, abs(amp) * freq))


def test_quadrature_known_integral():
    assert quadrature(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-10)
    assert quadrature(lambda s: s * s, -1.0, 2.0) == pytest.approx(3.0, abs=1e-10)
    assert quadrature(math.cos, 0.0, 0.0) == 0.0


def test_is_static():
    assert is_static(Constant(1.0))
    assert is_static(Scaled(2.0, Constant(1.0)))
    assert not is_static(Sinusoid(1.0, 2.0))
    assert not is_static(Scaled(0.0, Sinusoid(1.0, 2.0)))


@pytest.mark.parametrize("profile", PROFILES)
def test_negate_pointwise_and_involution(profile):
    flipped = negate(profile)
    for t in (0.0, 0.4, 2.2):
        assert evaluate(flipped, t) == -evaluate(profile, t)
    assert negate(flipped) == profile


@pytest.mark.parametrize("profile", PROFILES)
def test_single_term_reconstructs_profile(profile):
    amp, freq, phase, offset = single_term(profile)
    for t in (0.0, 0.9, 3.3):
        reference = amp * math.sin(freq * t + phase) + offset
        assert evaluate(profile, t) == pytest.approx(reference, abs=1e-14)


def test_single_term_scaled_distributes():
    assert single_term(Scaled(3.0, Sinusoid(2.0, 5.0, 0.1))) == (6.0, 5.0, 0.1, 0.0)
    assert single_term(Scaled(-2.0, Constant(4.0))) == (0.0, 0.0, 0.0, -8.0)


def test_frequencies():
    assert frequencies(Constant(2.0)) == []
    assert frequencies(Sinusoid(1.0, -7.0)) == [7.0]
    assert frequencies(Scaled(0.5, Sinusoid(1.0, 3.0))) == [3.0]
