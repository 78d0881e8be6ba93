import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab.concurrence import cut_concurrence, parse_cut
from conclab.errors import NotNormalizedError
from conclab.states import PureState, bell, ghz, parse_state, random_pure, state_from_json, w

from oracles import partial_trace_keep

SQ2 = 1 / np.sqrt(2)
C12 = parse_cut("1|2")


def test_bell_product_limit():
    psi = bell(1.0)
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0], atol=0)
    assert cut_concurrence(psi.to_density(), C12) == 0.0


def test_bell_maximal():
    psi = bell(SQ2)
    assert np.allclose(psi.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)
    assert abs(cut_concurrence(psi.to_density(), C12) - 1.0) < 1e-12


def test_bell_intermediate_concurrence():
    # pure-state concurrence 2*alpha*sqrt(1-alpha^2)
    assert abs(cut_concurrence(bell(0.6).to_density(), C12) - 0.96) < 1e-12


def test_bell_range_check():
    with pytest.raises(ValueError):
        bell(1.5)
    with pytest.raises(ValueError):
        bell(-0.1)


def test_ghz_amplitudes():
    g3 = ghz(3)
    assert np.allclose(g3.amplitudes[[0, 7]], [SQ2, SQ2], atol=1e-15)
    assert np.count_nonzero(g3.amplitudes) == 2
    g4 = ghz(4)
    assert np.allclose(g4.amplitudes[[0, 15]], [SQ2, SQ2], atol=1e-15)


def test_w_amplitudes():
    w3 = w(3)
    assert np.allclose(w3.amplitudes[[1, 2, 4]], [1 / np.sqrt(3)] * 3, atol=1e-15)
    assert np.count_nonzero(w3.amplitudes) == 3
    w4 = w(4)
    assert np.allclose(w4.amplitudes[[1, 2, 4, 8]], [0.5] * 4, atol=1e-15)


def test_unsupported_qubit_counts():
    for n in (2, 5):
        with pytest.raises(ValueError):
            ghz(n)
        with pytest.raises(ValueError):
            w(n)


@pytest.mark.parametrize("maker,n", [(ghz, 3), (w, 3), (ghz, 4), (w, 4)])
def test_symmetric_states_permutation_invariant(maker, n):
    psi = maker(n)
    for perm in permutations(range(1, n + 1)):
        assert np.array_equal(psi.permuted(perm).amplitudes, psi.amplitudes)


def test_ghz_reduced_state_is_maximally_mixed():
    for n in (3, 4):
        rho = ghz(n).to_density().mat
        for q in range(1, n + 1):
            red = partial_trace_keep(rho, n, (q,))
            assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_w3_reduced_single_qubit():
    red = partial_trace_keep(w(3).to_density().mat, 3, (3,))
    assert np.allclose(red, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_random_pure_deterministic():
    a = random_pure(3, np.random.default_rng(5))
    b = random_pure(3, np.random.default_rng(5))
    assert np.array_equal(a.amplitudes, b.amplitudes)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
def test_random_pure_unit_norm(seed, n):
    psi = random_pure(n, np.random.default_rng(seed))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


def test_random_two_qubit_mean_concurrence():
    # Monte-Carlo value frozen from this exact sampler and seed; the Haar
    # average of the two-qubit pure-state concurrence is 3*pi/16 ~ 0.589.
    rng = np.random.default_rng(7)
    mean = np.mean([cut_concurrence(random_pure(2, rng).to_density(), C12) for _ in range(1000)])
    assert abs(mean - 0.5946001458360688) < 1e-6
    assert abs(mean - 3 * np.pi / 16) < 0.02


def test_norm_validation():
    with pytest.raises(NotNormalizedError):
        PureState([1.0, 1.0])


@pytest.mark.parametrize("spec", ["[NaN, 0]", "[1, NaN]", "[[0, NaN], 0]"])
def test_nan_norm_fails_the_norm_check(spec):
    with pytest.raises(NotNormalizedError, match="^state norm nan "):
        parse_state(spec)
    amplitudes = [complex(*e) if isinstance(e, list) else e for e in json.loads(spec)]
    with pytest.raises(NotNormalizedError, match="^state norm nan "):
        PureState(amplitudes)


def test_parse_named_states():
    assert parse_state("bell").n_qubits == 2
    assert parse_state("GHZ3").n_qubits == 3
    assert parse_state("w4").n_qubits == 4
    assert np.allclose(parse_state("bell:alpha=0.6").amplitudes, [0.6, 0, 0, 0.8], atol=1e-15)


def test_parse_state_errors():
    with pytest.raises(ValueError):
        parse_state("ghz5")
    with pytest.raises(ValueError):
        parse_state("bell:beta=0.6")
    with pytest.raises(ValueError):
        parse_state("w3:alpha=0.2")


def test_state_from_json_amplitudes():
    obj = {"amplitudes": [[0.6, 0.0], 0, 0, [0.8, 0.0]]}
    psi = state_from_json(obj)
    assert np.allclose(psi.amplitudes, [0.6, 0, 0, 0.8], atol=0)
    psi2 = parse_state(json.dumps([0.6, 0, 0, 0.8]))
    assert np.array_equal(psi2.amplitudes, psi.amplitudes)
