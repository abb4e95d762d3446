"""Tests for the multimode Fock-space containers and primitives."""

import math

import numpy as np
import pytest

from hybridcat.errors import CutoffError, ValidationError
from hybridcat.fock_core import DensityOperator, build_register
from hybridcat.oracle import Ensemble, basis_state, inner, tensor, to_density
from hybridcat.resource_states import coherent


def test_register_and_basis_state():
    reg = build_register((("a", 2), ("b", 3)))
    state = basis_state(reg, (1, 2))
    assert state.amplitude((1, 2)) == 1.0
    assert state.amplitude((0, 0)) == 0.0
    assert math.isclose(state.norm(), 1.0, rel_tol=0, abs_tol=1e-15)


def test_basis_state_occupation_mapping():
    reg = build_register((("a", 2), ("b", 2)))
    state = basis_state(reg, {"b": 1, "a": 0})
    assert state.amplitude((0, 1)) == 1.0


def test_basis_state_rejects_overflow():
    reg = build_register((("a", 2),))
    with pytest.raises(CutoffError):
        basis_state(reg, (3,))


def test_duplicate_labels_rejected():
    with pytest.raises(ValidationError):
        build_register((("a", 2), ("a", 3)))


def test_tensor_and_inner():
    left = coherent(0.3, 10, label="x")
    right = coherent(0.3 + 0.1j, 10, label="y")
    joint = tensor(left, right)
    assert math.isclose(joint.norm(), 1.0, rel_tol=0, abs_tol=1e-9)
    # inner product of coherent states: exp(-|a|^2/2 - |b|^2/2 + conj(a) b)
    a, b = 0.3, 0.3 + 0.1j
    expected = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    got = inner(coherent(a, 24, label="x"), coherent(b, 24, label="x"))
    assert abs(got - expected) < 1e-10


def test_relabel_and_reorder():
    reg = build_register((("a", 2), ("b", 2)))
    state = basis_state(reg, (1, 0))
    swapped = state.relabeled({"a": "b", "b": "a"}).reordered(("a", "b"))
    assert swapped.amplitude((0, 1)) == 1.0


def test_to_density_and_fidelity_roundtrip():
    state = coherent(0.8, 14, label="m")
    rho = to_density(state)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert abs(rho.expectation(state) - 1.0) < 1e-12


def test_ensemble_expectation_is_weighted():
    reg = coherent(0.5, 10, label="m").register
    zero = basis_state(reg, (0,))
    one = basis_state(reg, (1,))
    ens = Ensemble(reg, ((0.25, zero), (0.75, one)))
    rho = to_density(ens)
    assert abs(rho.expectation(zero) - 0.25) < 1e-12
    assert abs(rho.expectation(one) - 0.75) < 1e-12


def test_density_operator_validates_hermiticity():
    reg = build_register((("m", 1),))
    bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        DensityOperator(reg, bad)
