"""The library boundary, fuzzed: every public function returns, or raises a ZenosimError,
whatever value it is given for one of its array or number parameters, and never warns.

Each call in CALLS starts from valid arguments, and one of its array or number
parameters is replaced by an odd value: a number of any kind or size (bools, complex,
None, ints past int64 and past the float range, NaN and inf), a string, a dict, a set,
a ragged or empty list, or a small numpy array of ndim 0 to 3 and one of five dtypes.
Parameters typed as a bundle, record or resolution stay valid: those may stay
duck-typed and raise AttributeError.  So do message names, linalg's dimension and flag
options, and the text of ``parse_config``.  No odd value is an integer count between 64
and 2**63, so no projective series takes more than 64 measurement rounds, and no sample
count is one a run could try to allocate.
"""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import zenosim
from zenosim import linalg
from zenosim.errors import ZenosimError

KICKED, CONTINUOUS = zenosim.four_level_kicked(), zenosim.four_level_continuous()
PROJECTIVE = zenosim.three_level_projective()
RES3, RES_K, RES_C = PROJECTIVE.res, KICKED.resolution(), CONTINUOUS.resolution()
PSI3, PSI4 = np.array([0, 1, 1]) / np.sqrt(2), np.array([0, 1, 1, 0]) / np.sqrt(2)
RHO3 = np.outer(PSI3, PSI3)
EVALUATOR = linalg.hermitian_evolution(KICKED.H)
KICK = dict(h=KICKED.H, u_kick=KICKED.U_kick, t=1.0)
COUPLE = dict(h=CONTINUOUS.H, h_c=CONTINUOUS.H_c, t=1.0)

# name -> (call, valid keyword arguments, the parameters that take odd values)
CALLS = {
    "evolve_projective": (zenosim.evolve_projective,
                          dict(rho0=RHO3, h=PROJECTIVE.H, res=RES3, t=1.0, n=4, samples=3)),
    "evolve_kicked": (zenosim.evolve_kicked, dict(state0=PSI4, **KICK, n=4, samples=3)),
    "evolve_continuous": (zenosim.evolve_continuous,
                          dict(state0=PSI4, **COUPLE, coupling=2.0, samples=3)),
    "evolve_zeno_limit": (zenosim.evolve_zeno_limit,
                          dict(rho0=RHO3, h=PROJECTIVE.H, res=RES3, t=1.0, samples=3)),
    "zeno_propagators": (zenosim.zeno_propagators, dict(h=PROJECTIVE.H, res=RES3, t=1.0)),
    "kicked_propagator": (zenosim.kicked_propagator, dict(**KICK, n=4)),
    "continuous_propagator": (zenosim.continuous_propagator, dict(**COUPLE, coupling=2.0)),
    "asymptotic_kicked_propagator": (zenosim.asymptotic_kicked_propagator,
                                     dict(h=KICKED.H, res=RES_K, t=1.0, n=4)),
    "asymptotic_continuous_propagator": (zenosim.asymptotic_continuous_propagator,
                                         dict(h=CONTINUOUS.H, res=RES_C, t=1.0, coupling=2.0)),
    "extracted_kick_limit": (zenosim.extracted_kick_limit, dict(**KICK, n=[4, 8])),
    "extracted_continuous_limit": (zenosim.extracted_continuous_limit,
                                   dict(**COUPLE, coupling=[2.0, 4.0])),
    "projective_survival": (zenosim.projective_survival,
                            dict(state0=PSI3, h=PROJECTIVE.H, res=RES3, sector=0, t=1.0, n=4)),
    "EvolutionRecord": (zenosim.EvolutionRecord,
                        dict(times_or_steps=[0.0, 1.0], states=[PSI3, PSI3],
                             trace_corrections=())),
    "subspace_probabilities": (zenosim.subspace_probabilities, dict(rho=RHO3, res=RES3)),
    "purity": (zenosim.purity, dict(rho=RHO3)),
    "coherence_block_norm": (zenosim.coherence_block_norm, dict(rho=RHO3, res=RES3, n=0, m=1)),
    "convergence_curve": (zenosim.convergence_curve,
                          dict(bundle=CONTINUOUS, t=1.0, parameter_values=[4.0, 8.0, 16.0])),
    "projective_convergence_curve": (zenosim.projective_convergence_curve,
                                     dict(bundle=PROJECTIVE, rho0=RHO3, t=1.0,
                                          n_values=[4, 8, 16])),
    "decay_protection_sweep": (zenosim.decay_protection_sweep,
                               dict(omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
                                    k_values=[0.0, 10.0], t=1.0, threshold=0.9)),
    "ConvergenceCurve": (zenosim.ConvergenceCurve,
                         dict(parameter_name="N", parameter_values=[4, 8, 16],
                              distances=[0.3, 0.2, 0.1])),
    "DecayProtectionResult": (zenosim.DecayProtectionResult,
                              dict(couplings=[1.0, 2.0], survivals=[0.5, 0.95], threshold=0.9)),
    "ObservableSeries": (zenosim.ObservableSeries,  # a container: stores what it is given
                         dict(times=[0.0], subspace_probabilities=[[1.0]], purity=[1.0],
                              coherence_blocks={}, leakage=[0.0])),
    "ModelBundle": (zenosim.ModelBundle, dict(H=KICKED.H, U_kick=KICKED.U_kick)),
    "ModelBundle-coupled": (zenosim.ModelBundle,
                            dict(H=CONTINUOUS.H, H_c=CONTINUOUS.H_c, K=1.0)),
    **{name: (getattr(zenosim, name), {}) for name in (
        "three_level_projective", "four_level_kicked", "four_level_continuous",
        "simplified_kicked", "simplified_continuous", "decay_model")},
    "ResolutionOfIdentity": (zenosim.ResolutionOfIdentity,
                             dict(projectors=RES3.projectors, labels=RES3.labels)),
    "ResolutionOfIdentity.projector": (RES3.projector, dict(n=1)),
    "projections_of_hermitian": (zenosim.projections_of_hermitian, dict(h=CONTINUOUS.H_c)),
    "projections_of_unitary": (zenosim.projections_of_unitary, dict(u=KICKED.U_kick)),
    "pinch": (zenosim.pinch, dict(x=RHO3, res=RES3)),
    "zeno_hamiltonian": (zenosim.zeno_hamiltonian, dict(h=PROJECTIVE.H, res=RES3)),
    "eigh": (zenosim.eigh, dict(h=KICKED.H)),
    "expm": (zenosim.expm, dict(a=KICKED.H)),
    "frobenius": (zenosim.frobenius, dict(a=KICKED.H)),
    "opnorm": (zenosim.opnorm, dict(a=KICKED.H)),
    "propagator": (zenosim.propagator, dict(h=KICKED.H, t=1.0)),
    # linalg's own gates, and an evaluator's times
    "as_square_matrix": (linalg.as_square_matrix, dict(a=KICKED.H)),
    "require_hermitian": (linalg.require_hermitian, dict(a=KICKED.H)),
    "require_unitary": (linalg.require_unitary, dict(u=KICKED.U_kick)),
    "unitary_eig": (linalg.unitary_eig, dict(u=KICKED.U_kick)),
    "hermitian_evolution": (linalg.hermitian_evolution, dict(h=KICKED.H)),
    "nonhermitian_evolution": (linalg.nonhermitian_evolution,
                               dict(h=(CONTINUOUS.H - 0.1j * CONTINUOUS.H_c)[None])),
    "check_state_vector": (linalg.check_state_vector, dict(psi=PSI3)),
    "check_density_matrix": (linalg.check_density_matrix, dict(rho=RHO3)),
    "evaluator": (EVALUATOR, dict(x=1.0)),
    "evaluator.states": (lambda xs: EVALUATOR.states(xs, PSI4), dict(xs=[0.0, 1.0])),
}
# typed parameters: the payloads, a message name, and linalg's dimension and flag options
TYPED = ("res", "bundle", "record", "parameter_name", "trace_corrections", "coherence_blocks",
         "name", "dim", "subnormalized")
# public names whose every parameter is typed: a record and a resolution, scenario text,
# and the validated scenario that validate_document fills
ALL_TYPED = {"observables", "parse_config", "ScenarioConfig"}


def _parameters(name: str) -> list[str]:
    call, _ = CALLS[name]
    return [p for p in inspect.signature(call).parameters if p not in TYPED]


PARAMETERS = [(name, p) for name in CALLS for p in _parameters(name)]

# floats that are no count a projective series could step through in the time it has:
# none is an integer in (64, 2**63)
FLOATS = [0.0, -0.0, 0.5, 1.0, -2.5, 64.0, 5e-324, 1e-300, 2.0**-129, 2.0**128, 3e38, 1e300,
          np.nan, np.inf, -np.inf]
VALUES = FLOATS + [
    0, -1, 3, 2**63, 2**64 - 1, 10**400, -10**400, True, False, None, 1j, 1 + 0j,
    np.int64(-7), np.uint64(2**64 - 1), np.float32(3.0), "abc", "1.0", b"4", {"a": 1}, {1, 2},
    (), [], [[]], [[1, 2], [3]], [2, [3]], ["a", "b"], [2, 4, 10**30], [1.0, np.nan], [1.0],
    [16, 8, 4], [[4, 8]], [True, False], [None], [1j, 2j], [[0, 1], [0, 0]], [[1.0]],
    np.array(1.0), np.array(2.0**128), np.array([0.0]), np.array([1.0, 1.0]),
    np.array([-1.0, 2.0]), np.array([1e200, 2e200]), np.array([2**62, 2**62 + 1]),
    np.eye(2), np.eye(3), np.eye(4), -np.eye(4), 1j * np.eye(4), np.eye(3, dtype=bool),
    np.diag([1, 1, -1]), np.diag([1j, 1, -1, -1j]), np.array([[0, 1j], [-1j, 0]]),
    np.ones((3, 4)), np.ones((4, 4)), np.ones((2, 3, 3)), np.ones((1, 4, 4)),
    np.ones((1, 2, 3)), np.full((1, 2, 2), np.nan), np.full((2, 2, 2), np.inf),
    np.zeros((0, 0)), np.zeros((0, 3, 3)), np.full((3, 3), np.nan), np.array([[np.inf]]),
    1e200 * np.eye(4), 2.0**128 * np.eye(4), np.full((2, 2), 1e154), np.full((4, 4), 1e-320),
    np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object)]
ELEMENTS = {np.float64: st.sampled_from(FLOATS),
            np.float32: st.sampled_from([x for x in FLOATS if not 3e38 < abs(x) < np.inf]),
            np.complex128: st.sampled_from(FLOATS + [1j, 1 - 1j, complex(np.nan, 1.0)]),
            np.int64: st.integers(-3, 64), np.bool_: st.booleans()}
ARRAYS = st.sampled_from(sorted(ELEMENTS, key=str)).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=ELEMENTS[dtype], fill=st.nothing()))


def _returns_or_refuses(name: str, parameter: str, value) -> None:
    call, kwargs = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**{**kwargs, parameter: value})
        except ZenosimError:
            pass


def test_every_public_callable_is_called():
    """The table names every callable the package exports, except its exception classes
    and the three whose every parameter is typed."""
    exported = {name for name in dir(zenosim) if not name.startswith("_")
                and callable(getattr(zenosim, name))
                and not (isinstance(getattr(zenosim, name), type)
                         and issubclass(getattr(zenosim, name), Exception))}
    called = {name.split("-")[0] for name in CALLS} | ALL_TYPED
    assert sorted(exported - called) == []
    assert all(_parameters(name) for name in CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_arguments_return(name):
    """Each call's own arguments pass, so an odd value is what a refusal refuses."""
    call, kwargs = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**kwargs)


def test_every_listed_value_returns_or_raises_a_zenosim_error():
    """Each parameter in turn takes every one of VALUES."""
    for name, parameter in PARAMETERS:
        for value in VALUES:
            _returns_or_refuses(name, parameter, value)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(which=st.sampled_from(PARAMETERS), value=st.sampled_from(VALUES) | ARRAYS)
def test_every_argument_value_returns_or_raises_a_zenosim_error(which, value):
    _returns_or_refuses(*which, value)
