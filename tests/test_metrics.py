"""Tests for fidelity, negativity and the target state."""

import math

import numpy as np
import pytest

from hybridcat import analytic, metrics
from hybridcat.errors import ValidationError
from hybridcat.fock_core import (
    DensityOperator,
    basis_state,
    build_register,
    tensor,
    to_density,
)
from hybridcat.metrics import (
    Bipartition,
    fidelity,
    negativity,
    partial_transpose,
    support_negativity,
    target_hybrid,
)
from hybridcat.resource_states import coherent


def _target_register(alpha_f):
    field_cutoff = max(10, int(8.0 * alpha_f * alpha_f) + 8)
    return build_register((("A_H", 1), ("A_V", 1), ("B", field_cutoff)))


def test_target_is_normalized():
    for alpha_f in (0.5, 1.0):
        state = target_hybrid(alpha_f, math.pi, _target_register(alpha_f))
        assert abs(state.norm() - 1.0) < 1e-12


def test_target_branch_structure():
    alpha_f = 0.8
    reg = _target_register(alpha_f)
    state = target_hybrid(alpha_f, math.pi, reg)
    # projecting onto H leaves the +alpha field branch with weight 1/2
    field_cutoff = reg.modes[reg.axis("B")].cutoff
    plus = coherent(alpha_f, field_cutoff, label="B")
    amp = 0.0
    for n, c in enumerate(plus.amps):
        amp += np.conj(c) * state.amplitude((1, 0, n))
    assert abs(abs(amp) - 1.0 / math.sqrt(2.0)) < 1e-9


def test_fidelity_of_state_with_itself():
    state = target_hybrid(0.7, math.pi, _target_register(0.7))
    assert abs(fidelity(to_density(state), state) - 1.0) < 1e-12


def test_partial_transpose_is_involution():
    state = target_hybrid(0.9, math.pi, _target_register(0.9))
    rho = to_density(state)
    twice = partial_transpose(partial_transpose(rho, ("A_H", "A_V")), ("A_H", "A_V"))
    assert np.max(np.abs(twice.matrix - rho.matrix)) < 1e-14


def test_partial_transpose_preserves_trace():
    state = target_hybrid(0.6, math.pi, _target_register(0.6))
    rho = to_density(state)
    pt = partial_transpose(rho, ("A_H", "A_V"))
    assert abs(np.trace(pt.matrix) - 1.0) < 1e-12


def test_negativity_of_product_state_is_zero():
    product = tensor(
        tensor(
            basis_state(build_register((("A_H", 1),)), (1,)),
            basis_state(build_register((("A_V", 1),)), (0,)),
        ),
        coherent(0.8, 12, label="B"),
    )
    value = negativity(to_density(product), Bipartition(("A_H", "A_V"), ("B",)))
    assert abs(value) < 1e-12


def test_negativity_of_bell_pair_is_one():
    reg = build_register((("x", 1), ("y", 1)))
    bell = (basis_state(reg, (0, 1)) + basis_state(reg, (1, 0))) * (
        1.0 / math.sqrt(2.0)
    )
    value = negativity(to_density(bell), Bipartition(("x",), ("y",)))
    assert abs(value - 1.0) < 1e-12


def test_target_negativity_matches_closed_form():
    """The hybrid target's negativity is sqrt(1 - e^{-4 alpha^2})."""
    for alpha_f in (0.4, 0.7, 1.0):
        state = target_hybrid(alpha_f, math.pi, _target_register(alpha_f))
        value = negativity(
            to_density(state), Bipartition(("A_H", "A_V"), ("B",))
        )
        assert abs(value - analytic.ideal_negativity(alpha_f)) < 1e-9


def test_target_negativity_phase_invariant():
    reg = _target_register(0.7)
    part = Bipartition(("A_H", "A_V"), ("B",))
    for phi in (0.0, 1.3, math.pi):
        state = target_hybrid(0.7, phi, reg)
        value = negativity(to_density(state), part)
        assert abs(value - analytic.ideal_negativity(0.7)) < 1e-9


def test_support_negativity_matches_dense_negativity():
    """The target lives on span{|1, 0>, |0, 1>} (x) span{|a>, |-a>}; a noisy
    mixture with a product state keeps that support."""
    alpha_f = 0.7
    reg = _target_register(alpha_f)
    part = Bipartition(("A_H", "A_V"), ("B",))
    cutoff = reg.mode("B").cutoff
    field = np.stack(
        [coherent(sign * alpha_f, cutoff, label="B").amps for sign in (1.0, -1.0)],
        axis=1,
    )
    basis_b, _ = np.linalg.qr(field)
    basis_a = np.eye(4)[:, [2, 1]]
    noise = to_density(
        tensor(
            basis_state(build_register((("A_H", 1), ("A_V", 1))), (0, 1)),
            coherent(-alpha_f, cutoff, label="B"),
        )
    )
    for phi in (0.0, 0.7, math.pi):
        rho = to_density(target_hybrid(alpha_f, phi, reg))
        mixed = DensityOperator(reg, 0.8 * rho.matrix + 0.2 * noise.matrix)
        full = negativity(mixed, part)
        assert full > 0.1
        assert abs(support_negativity(mixed, part, basis_a, basis_b) - full) < 1e-12
    with pytest.raises(ValidationError):
        support_negativity(mixed, part, basis_b, basis_a)


def test_negativity_cap_names_the_eigensolved_dimension(monkeypatch):
    reg = _target_register(0.7)
    rho = to_density(target_hybrid(0.7, math.pi, reg))
    part = Bipartition(("A_H", "A_V"), ("B",))
    monkeypatch.setattr(metrics, "MAX_NEGATIVITY_DIM", 3)
    with pytest.raises(ValidationError, match=f"dimension {reg.size} exceeds"):
        negativity(rho, part)
    # the cap sees the 4 = 2 x 2 support, before anything is projected
    basis = np.eye(reg.size // 4, 2)
    with pytest.raises(ValidationError, match="dimension 4 exceeds"):
        support_negativity(rho, part, np.eye(4, 2), basis)
