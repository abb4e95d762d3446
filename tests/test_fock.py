"""Tests for the shared Fock-space helpers and plain-array states."""

import math

import numpy as np

from hybridcat.fock_core import log_factorials
from hybridcat.oracle import MODES, herald
from hybridcat.resource_states import coherent_amplitudes


def test_log_factorials_are_exact():
    table = log_factorials(30)
    assert table[0] == table[1] == 0.0
    for n in (5, 20, 29):
        assert table[n] == math.log(math.factorial(n))
    assert not table.flags.writeable


def test_tensor_and_inner():
    left = coherent_amplitudes(0.3, 10)
    right = coherent_amplitudes(0.3 + 0.1j, 10)
    joint = np.multiply.outer(left, right)
    assert math.isclose(np.linalg.norm(joint), 1.0, rel_tol=0, abs_tol=1e-9)
    # inner product of coherent states: exp(-|a|^2/2 - |b|^2/2 + conj(a) b)
    a, b = 0.3, 0.3 + 0.1j
    expected = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    got = np.vdot(coherent_amplitudes(a, 24), coherent_amplitudes(b, 24))
    assert abs(got - expected) < 1e-10


def test_to_density_and_fidelity_roundtrip():
    state = coherent_amplitudes(0.8, 14)
    rho = np.outer(state, state.conj())
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(np.vdot(state, rho @ state) - 1.0) < 1e-12



def test_ensemble_expectation_is_weighted():
    # with unit detector weights the oracle's herald is the partial trace,
    # so each branch of a mixture enters the state with its weight
    dims = (2,) + (1,) * 6
    zero, one = np.zeros(dims), np.zeros(dims)
    zero[0], one[1] = 1.0, 1.0
    pattern = dict.fromkeys(MODES[2:6], np.ones(1))
    ((probability, post),) = herald([(0.25, zero), (0.75, one)], [pattern])
    assert abs(probability - 1.0) < 1e-12
    assert np.allclose(post, np.diag([0.25, 0.75]), rtol=0, atol=1e-12)
