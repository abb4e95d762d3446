"""Tests for the detector models and the herald projection."""

import math

import numpy as np
import pytest

from hybridcat.detection import build_scheme_herald, povm_click, povm_pnr
from hybridcat.errors import HeraldImpossibleError
from hybridcat.fock_core import build_register
from hybridcat.oracle import Ensemble, basis_state, herald


def test_pnr_weights_are_binomial_loss():
    eta = 0.7
    cutoff = 6
    for n in (0, 1, 2):
        weights = povm_pnr(n, eta, cutoff).weights
        for k in range(cutoff + 1):
            if k < n:
                expected = 0.0
            else:
                expected = (
                    math.comb(k, n) * eta**n * (1.0 - eta) ** (k - n)
                )
            assert abs(weights[k] - expected) < 1e-12


def test_pnr_completeness():
    eta = 0.6
    cutoff = 5
    total = sum(povm_pnr(n, eta, cutoff).weights for n in range(cutoff + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_click_complements_vacuum_outcome():
    eta = 0.45
    cutoff = 6
    click = povm_click(eta, cutoff).weights
    quiet = povm_pnr(0, eta, cutoff).weights
    assert np.max(np.abs(click + quiet - 1.0)) < 1e-12
    for k in range(cutoff + 1):
        assert abs(click[k] - (1.0 - (1.0 - eta) ** k)) < 1e-12


def test_perfect_pnr_is_projective():
    weights = povm_pnr(1, 1.0, 5).weights
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.max(np.abs(weights - expected)) < 1e-15


def _register():
    return build_register(
        (
            ("A_H", 1),
            ("A_V", 1),
            ("5H", 3),
            ("5V", 3),
            ("6H", 3),
            ("6V", 3),
            ("B_H", 4),
        )
    )


def test_herald_pattern_assignment():
    reg = _register()
    plain = dict(build_scheme_herald(reg, "pnr", 0.8).elements)
    assert plain["5V"].kind == "pnr[1]"
    assert plain["6H"].kind == "pnr[1]"
    assert plain["5H"].kind == "pnr[0]"
    assert plain["6V"].kind == "pnr[0]"
    flipped = dict(build_scheme_herald(reg, "pnr", 0.8, flipped=True).elements)
    assert flipped["5H"].kind == "pnr[1]"
    assert flipped["6V"].kind == "pnr[1]"


def test_herald_probability_single_photons():
    """One photon on each bright detector heralds with probability eta^2."""
    reg = _register()
    eta = 0.8
    state = basis_state(reg, {"A_H": 1, "5V": 1, "6H": 1})
    result = herald(state, build_scheme_herald(reg, "pnr", eta))
    assert abs(result.probability - eta * eta) < 1e-12
    assert set(result.post.register.labels) == {"A_H", "A_V", "B_H"}
    # the surviving state is the unchanged A_H photon
    survivor = basis_state(result.post.register, {"A_H": 1})
    assert abs(result.post.expectation(survivor) - 1.0) < 1e-12


def test_herald_dark_mode_suppresses():
    # an extra photon on a dark detector costs a no-click factor (1 - eta)
    reg = _register()
    eta = 0.8
    state = basis_state(reg, {"A_H": 1, "5V": 1, "6H": 1, "5H": 1})
    result = herald(state, build_scheme_herald(reg, "pnr", eta))
    assert abs(result.probability - eta * eta * (1.0 - eta)) < 1e-12


def test_herald_two_photons_on_bright_mode():
    reg = _register()
    eta = 0.8
    state = basis_state(reg, {"A_H": 1, "5V": 2, "6H": 1})
    result = herald(state, build_scheme_herald(reg, "pnr", eta))
    expected = (2.0 * eta * (1.0 - eta)) * eta
    assert abs(result.probability - expected) < 1e-12


def test_onoff_accepts_multiphoton():
    reg = _register()
    eta = 0.8
    spec = build_scheme_herald(reg, "onoff", eta)
    two = herald(basis_state(reg, {"5V": 2, "6H": 1}), spec)
    one = herald(basis_state(reg, {"5V": 1, "6H": 1}), spec)
    # click probability grows with photon number instead of dropping to the
    # one-photon coincidence
    assert two.probability > one.probability


def test_impossible_pattern_raises():
    reg = _register()
    state = basis_state(reg, {"A_H": 1, "5H": 1})
    with pytest.raises(HeraldImpossibleError):
        herald(state, build_scheme_herald(reg, "pnr", 0.9))


def test_herald_mixture_branches():
    reg = _register()
    bright = basis_state(reg, {"5V": 1, "6H": 1})
    brighter = basis_state(reg, {"5V": 2, "6H": 1})
    ens = Ensemble(reg, ((0.5, bright), (0.5, brighter)))
    eta = 0.7
    result = herald(ens, build_scheme_herald(reg, "pnr", eta))
    p1 = eta * eta
    p2 = (2.0 * eta * (1.0 - eta)) * eta
    assert abs(result.probability - 0.5 * (p1 + p2)) < 1e-12
