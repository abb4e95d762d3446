"""Tests for fidelity, negativity and the target state."""

import math

import numpy as np
import pytest

from hybridcat import analytic, metrics
from hybridcat.errors import ValidationError
from hybridcat.metrics import matrix_negativity
from hybridcat.oracle import target_hybrid
from hybridcat.resource_states import coherent_amplitudes


def _target_dims(alpha_f):
    field_cutoff = max(10, int(8.0 * alpha_f * alpha_f) + 8)
    return (2, 2, field_cutoff + 1)


def _density(state):
    vec = state.ravel()
    return np.outer(vec, vec.conj())


def _negativity(rho):
    """The (A_H, A_V | B) negativity of a state on (A_H, A_V, B)."""
    return matrix_negativity(rho, 4)


def test_target_is_normalized():
    for alpha_f in (0.5, 1.0):
        state = target_hybrid(alpha_f, math.pi, _target_dims(alpha_f))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_target_branch_structure():
    alpha_f = 0.8
    dims = _target_dims(alpha_f)
    state = target_hybrid(alpha_f, math.pi, dims)
    # projecting onto H leaves the +alpha field branch with weight 1/2
    plus = coherent_amplitudes(alpha_f, dims[2] - 1)
    amp = np.vdot(plus, state[1, 0, :])
    assert abs(abs(amp) - 1.0 / math.sqrt(2.0)) < 1e-9


def test_fidelity_of_state_with_itself():
    state = target_hybrid(0.7, math.pi, _target_dims(0.7))
    vec = state.ravel()
    assert abs(np.vdot(vec, _density(state) @ vec).real - 1.0) < 1e-12


def test_negativity_of_product_state_is_zero():
    signal = np.zeros((2, 2))
    signal[1, 0] = 1.0
    product = np.multiply.outer(signal, coherent_amplitudes(0.8, 12))
    assert abs(_negativity(_density(product))) < 1e-12


def test_negativity_of_bell_pair_is_one():
    bell = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
    value = matrix_negativity(_density(bell), 2)
    assert abs(value - 1.0) < 1e-12


def test_target_negativity_matches_closed_form():
    """The hybrid target's negativity is sqrt(1 - e^{-4 alpha^2})."""
    for alpha_f in (0.4, 0.7, 1.0):
        state = target_hybrid(alpha_f, math.pi, _target_dims(alpha_f))
        value = _negativity(_density(state))
        assert abs(value - analytic.ideal_negativity(alpha_f)) < 1e-9


def test_target_negativity_phase_invariant():
    dims = _target_dims(0.7)
    for phi in (0.0, 1.3, math.pi):
        value = _negativity(_density(target_hybrid(0.7, phi, dims)))
        assert abs(value - analytic.ideal_negativity(0.7)) < 1e-9


def test_matrix_negativity_is_invariant_under_local_isometry():
    """The target lives on span{|1, 0>, |0, 1>} (x) span{|a>, |-a>}; a noisy
    mixture with a product state keeps that support, so its negativity
    equals that of its projection onto the product of the two bases."""
    alpha_f = 0.7
    dims = _target_dims(alpha_f)
    cutoff = dims[2] - 1
    field = np.stack(
        [coherent_amplitudes(sign * alpha_f, cutoff) for sign in (1.0, -1.0)], axis=1
    )
    field /= np.linalg.norm(field, axis=0)
    basis_b, _ = np.linalg.qr(field)
    basis_a = np.eye(4)[:, [2, 1]]
    signal = np.zeros((2, 2))
    signal[0, 1] = 1.0
    noise = _density(np.multiply.outer(signal, field[:, 1]))
    for phi in (0.0, 0.7, math.pi):
        rho = _density(target_hybrid(alpha_f, phi, dims))
        mixed = 0.8 * rho + 0.2 * noise
        full = _negativity(mixed)
        assert full > 0.1
        isometry = np.kron(basis_a, basis_b)
        projected = isometry.conj().T @ mixed @ isometry
        assert abs(matrix_negativity(projected, 2) - full) < 1e-12


def test_negativity_cap_names_the_eigensolved_dimension(monkeypatch):
    dims = _target_dims(0.7)
    rho = _density(target_hybrid(0.7, math.pi, dims))
    monkeypatch.setattr(metrics, "MAX_NEGATIVITY_DIM", 3)
    with pytest.raises(ValidationError, match=f"dimension {math.prod(dims)} exceeds"):
        _negativity(rho)
    # the cap sees the matrix handed in, whatever its factors
    with pytest.raises(ValidationError, match="dimension 4 exceeds"):
        matrix_negativity(np.eye(4) / 4, 2)
