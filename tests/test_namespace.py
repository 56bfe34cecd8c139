import importlib

import spinpair

RE_EXPORTED = ("approx", "drive", "entangle", "exact", "model", "oracle", "symmetry")

# the package surface, written out so that a name cannot drop out unseen
PUBLIC = {
    "__version__",
    # drive
    "Constant", "Sinusoid", "DriveProfile", "evaluate", "integral", "integral_abs",
    "is_static", "scale", "single_term", "frequencies",
    # model
    "ModelParams", "Spectrum", "StaticGroundState", "hamiltonian_uncoupled",
    "hamiltonian_coupled", "block", "spectrum", "static_ground_state",
    "basis_change_matrix", "UNCOUPLED_LABELS", "COUPLED_LABELS",
    # exact
    "PhaseConvention", "BlockAmplitudes", "IC1Setup", "IC2Setup", "Admissibility",
    "ic1_phase", "ic1_evolve", "ic2_admissible", "ic2_theta", "ic2_evolve",
    "ic2_derived_field", "ic2_breakpoints", "ic2_kernel_coeffs",
    # approx
    "RwaMode", "RwaSetup", "perturb_x1", "perturb_x2", "perturb_validity",
    "rwa_evolve", "rwa_orthogonal",
    # entangle
    "Basis", "FourState", "DensityMatrix", "basis_convert", "concurrence_pure",
    "concurrence_wootters", "concurrence_generic", "concurrence_ic1",
    "concurrence_ic2", "spin_flip_matrix",
    # symmetry
    "Parity", "parity", "map_params_I_to_II", "map_state_I_to_II",
    "map_params_global_flip", "map_state_global_flip",
    # oracle
    "IntegratorConfig", "Trace", "suggest_step", "integrate_full",
    "integrate_block_fn", "integrate_block_ic2", "magnus_full",
    # config
    "RunConfig", "SweepSpec", "load_config", "parse_config",
}

ERRORS = (
    "SpinpairError", "ConfigError", "NotStaticError", "NotIntegrableError",
    "BranchExitError", "AdmissibilityError", "ResonancePoleError",
    "NormDriftError", "InvalidDensityMatrixError",
)


def test_package_all_is_the_stated_surface():
    assert len(spinpair.__all__) == len(set(spinpair.__all__)) == 69
    assert set(spinpair.__all__) == PUBLIC


def test_module_names_are_the_package_objects():
    for name in RE_EXPORTED:
        module = importlib.import_module(f"spinpair.{name}")
        for public in module.__all__:
            assert getattr(spinpair, public) is getattr(module, public), (name, public)
    for public in ("RunConfig", "SweepSpec", "load_config", "parse_config"):
        assert getattr(spinpair, public) is getattr(spinpair.config, public)


def test_errors_importable_but_not_listed():
    for name in ERRORS:
        assert getattr(spinpair, name) is getattr(spinpair.errors, name)
        assert name not in spinpair.__all__


def test_config_builders_stay_in_config():
    for name in set(spinpair.config.__all__) - PUBLIC:
        assert not hasattr(spinpair, name), name
