"""Tests for the detector models and the herald projection."""

import math

import numpy as np
import pytest

from hybridcat.detection import herald_pattern, povm_click, povm_pnr
from hybridcat.errors import HeraldImpossibleError, ValidationError
from hybridcat.oracle import MODES, flipped_pattern, herald


def test_pnr_weights_are_binomial_loss():
    eta = 0.7
    cutoff = 6
    for n in (0, 1, 2):
        weights = povm_pnr(n, eta, cutoff)
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
    total = sum(povm_pnr(n, eta, cutoff) for n in range(cutoff + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_click_complements_vacuum_outcome():
    eta = 0.45
    cutoff = 6
    click = povm_click(eta, cutoff)
    quiet = povm_pnr(0, eta, cutoff)
    assert np.max(np.abs(click + quiet - 1.0)) < 1e-12
    for k in range(cutoff + 1):
        assert abs(click[k] - (1.0 - (1.0 - eta) ** k)) < 1e-12


def test_perfect_pnr_is_projective():
    weights = povm_pnr(1, 1.0, 5)
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.max(np.abs(weights - expected)) < 1e-15


# detector channels 5H, 5V, 6H and 6V all have this cutoff in `_ket`
CUTOFF = 3
# the oracle's seven modes
DIMS = (2, 2) + (CUTOFF + 1,) * 4 + (5,)


def _ket(occupations):
    """The basis state on `MODES` with these occupations, vacuum elsewhere."""
    amps = np.zeros(DIMS, dtype=complex)
    amps[tuple(occupations.get(mode, 0) for mode in MODES)] = 1.0
    return amps


def test_herald_pattern_assignment():
    one, zero = povm_pnr(1, 0.8, CUTOFF), povm_pnr(0, 0.8, CUTOFF)
    plain = herald_pattern("pnr", 0.8, CUTOFF)
    assert list(plain) == ["5H", "5V", "6H", "6V"]
    for label, expected in (("5V", one), ("6H", one), ("5H", zero), ("6V", zero)):
        assert np.array_equal(plain[label], expected)
    flipped = flipped_pattern(plain)
    for label, expected in (("5H", one), ("6V", one), ("5V", zero), ("6H", zero)):
        assert np.array_equal(flipped[label], expected)
    onoff = herald_pattern("onoff", 0.8, CUTOFF)
    assert np.array_equal(onoff["5V"], povm_click(0.8, CUTOFF))
    assert np.array_equal(onoff["5H"], zero)


@pytest.mark.parametrize("detector", ["pnr", "onoff"])
def test_herald_pattern_weights_are_read_only(detector):
    pattern = herald_pattern(detector, 0.8, CUTOFF)
    for weights in pattern.values():
        with pytest.raises(ValueError):
            weights[0] = 0.5
    # the mapping is cached, so it is read-only too
    with pytest.raises(TypeError):
        pattern["5H"] = pattern["5V"]
    assert herald_pattern(detector, 0.8, CUTOFF) is pattern
    for weights in (povm_pnr(2, 0.8, CUTOFF), povm_click(0.8, CUTOFF)):
        assert not weights.flags.writeable


def test_herald_pattern_is_the_plain_pattern_only():
    # the run path heralds the plain pattern; the flipped one is the
    # oracle's relabelling of it, and no argument of the pattern asks for it
    with pytest.raises(TypeError):
        herald_pattern("pnr", 0.8, CUTOFF, True)
    plain = herald_pattern("pnr", 0.8, CUTOFF)
    twice = flipped_pattern(flipped_pattern(plain))
    assert list(twice) == list(plain)
    assert all(twice[label] is plain[label] for label in plain)


def test_herald_pattern_rejects_unknown_detector():
    with pytest.raises(ValidationError, match="unknown detector"):
        herald_pattern("apd", 0.8, CUTOFF)


@pytest.mark.parametrize("eta", [-0.1, 1.5, float("nan")])
def test_detectors_reject_efficiency_outside_unit_interval(eta):
    for make in (
        lambda: povm_pnr(1, eta, CUTOFF),
        lambda: povm_click(eta, CUTOFF),
        lambda: herald_pattern("pnr", eta, CUTOFF),
        lambda: herald_pattern("onoff", eta, CUTOFF),
    ):
        with pytest.raises(ValidationError, match="efficiency"):
            make()


def test_pnr_rejects_negative_photon_count():
    with pytest.raises(ValidationError, match="photon count"):
        povm_pnr(-1, 0.8, CUTOFF)


def test_detectors_reject_negative_cutoff():
    for make in (
        lambda: povm_pnr(0, 0.8, -1),
        lambda: povm_click(0.8, -1),
        lambda: herald_pattern("pnr", 0.8, -1),
    ):
        with pytest.raises(ValidationError, match="cutoff"):
            make()


def test_herald_rejects_weights_of_the_wrong_length():
    state = _ket({"5V": 1, "6H": 1})
    pattern = dict(herald_pattern("pnr", 0.8, CUTOFF))
    pattern["6H"] = povm_pnr(1, 0.8, CUTOFF + 1)
    with pytest.raises(ValidationError, match="'6H' has dimension 5, mode needs 4"):
        herald([(1.0, state)], [pattern])


def test_herald_probability_single_photons():
    """One photon on each bright detector heralds with probability eta^2."""
    eta = 0.8
    state = _ket({"A_H": 1, "5V": 1, "6H": 1})
    ((probability, post),) = herald([(1.0, state)], [herald_pattern("pnr", eta, CUTOFF)])
    assert abs(probability - eta * eta) < 1e-12
    # the post-state lives on (A_H, A_V, B)
    assert post.shape == (2 * 2 * 5,) * 2
    # the surviving state is the unchanged A_H photon
    survivor = np.zeros((2, 2, 5))
    survivor[1, 0, 0] = 1.0
    survivor = survivor.ravel()
    assert abs(np.vdot(survivor, post @ survivor) - 1.0) < 1e-12


def test_herald_dark_mode_suppresses():
    # an extra photon on a dark detector costs a no-click factor (1 - eta)
    eta = 0.8
    state = _ket({"A_H": 1, "5V": 1, "6H": 1, "5H": 1})
    ((probability, _),) = herald([(1.0, state)], [herald_pattern("pnr", eta, CUTOFF)])
    assert abs(probability - eta * eta * (1.0 - eta)) < 1e-12


def test_herald_two_photons_on_bright_mode():
    eta = 0.8
    state = _ket({"A_H": 1, "5V": 2, "6H": 1})
    ((probability, _),) = herald([(1.0, state)], [herald_pattern("pnr", eta, CUTOFF)])
    expected = (2.0 * eta * (1.0 - eta)) * eta
    assert abs(probability - expected) < 1e-12


def test_onoff_accepts_multiphoton():
    eta = 0.8
    pattern = [herald_pattern("onoff", eta, CUTOFF)]
    ((two, _),) = herald([(1.0, _ket({"5V": 2, "6H": 1}))], pattern)
    ((one, _),) = herald([(1.0, _ket({"5V": 1, "6H": 1}))], pattern)
    # click probability grows with photon number instead of dropping to the
    # one-photon coincidence
    assert two > one


def test_impossible_pattern_raises():
    state = _ket({"A_H": 1, "5H": 1})
    with pytest.raises(HeraldImpossibleError):
        herald([(1.0, state)], [herald_pattern("pnr", 0.9, CUTOFF)])


def test_herald_mixture_branches():
    bright = _ket({"5V": 1, "6H": 1})
    brighter = _ket({"5V": 2, "6H": 1})
    eta = 0.7
    ((probability, _),) = herald(
        [(0.5, bright), (0.5, brighter)], [herald_pattern("pnr", eta, CUTOFF)]
    )
    p1 = eta * eta
    p2 = (2.0 * eta * (1.0 - eta)) * eta
    assert abs(probability - 0.5 * (p1 + p2)) < 1e-12
