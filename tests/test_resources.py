"""Tests for the source-state constructors."""

import math

import numpy as np
import pytest

from hybridcat import analytic
from hybridcat.errors import CutoffError
from hybridcat.oracle import pair_source, phi_state
from hybridcat.resource_states import (
    PairSourceSpec,
    ScsSpec,
    SqueezedPhotonSpec,
    coherent_amplitudes,
    coherent_cutoff_for,
    source_amplitudes,
    squeezed_amplitudes,
    squeezed_cutoff_for,
)


def _pair_dims(cutoff=2):
    return (cutoff + 1,) * 4


def _bell_chi():
    """The polarization Bell pair (|1001> + |0110>)/sqrt(2), written out."""
    amps = np.zeros(_pair_dims())
    amps[1, 0, 0, 1] = amps[0, 1, 1, 0] = 1.0 / math.sqrt(2.0)
    return amps


def test_coherent_amplitudes():
    alpha = 0.8
    amps = coherent_amplitudes(alpha, 20)
    n = np.arange(21)
    expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    assert np.max(np.abs(amps - expected)) < 1e-12
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_coherent_cutoff_bound_is_tight_enough():
    for alpha in (0.5, 1.0, 1.5):
        cut = coherent_cutoff_for(alpha, tail=1e-12)
        amps = coherent_amplitudes(alpha, cut + 10)
        tail = float(np.sum(np.abs(amps[cut + 1 :]) ** 2))
        assert tail < 1e-12


def test_odd_cat_has_odd_support():
    amps = source_amplitudes(ScsSpec(alpha=0.9, phi=math.pi), 18, 18)
    assert np.max(np.abs(amps[0::2])) < 1e-14
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    # overlap with the constituent coherent state is N (1 - e^{-2 a^2})
    n = analytic.n_phi(0.9, math.pi)
    overlap = np.vdot(coherent_amplitudes(0.9, 18), amps)
    expected = n * (1.0 - math.exp(-2 * 0.81))
    assert abs(overlap - expected) < 1e-12


def test_even_cat_has_even_support():
    amps = source_amplitudes(ScsSpec(alpha=0.9, phi=0.0), 18, 18)
    assert np.max(np.abs(amps[1::2])) < 1e-14
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_squeezed_photon_expansion_structure():
    spec = SqueezedPhotonSpec(s=0.161)
    amps = squeezed_amplitudes(spec, 15)
    assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
    # squeezing pumps photons in pairs on top of the single photon, so the
    # expansion holds odd occupations only, to any photon number asked for
    assert np.max(np.abs(amps[0::2])) < 1e-14
    assert abs(amps[1]) > 0.9
    assert abs(amps[15]) > 0.0


def test_squeezed_photon_needs_room():
    # the contract the cat keeps: at most 1e-9 of the mass above the cutoff,
    # which at s = 0.2 takes 13 photons
    spec = SqueezedPhotonSpec(s=0.2)
    with pytest.raises(CutoffError, match="above 12 photons"):
        source_amplitudes(spec, 12, 20)
    assert abs(np.linalg.norm(source_amplitudes(spec, 13, 20)) - 1.0) < 1e-12


def test_squeezed_expansion_is_exact_at_any_length():
    """|c_(2n+1)|^2 = tanh^(2n) s (2n + 1)! / (cosh^3 s 4^n n!^2), summed in
    logarithms: 400 photons neither overflow nor lose norm, and the terms
    match the exact integer form where floats hold it."""
    spec = SqueezedPhotonSpec(s=0.313)
    amps = squeezed_amplitudes(spec, 400)
    assert np.all(np.isfinite(amps))
    assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
    tanh2, cosh3 = math.tanh(0.313) ** 2, math.cosh(0.313) ** 3
    for n in range(20):
        exact = tanh2**n * math.factorial(2 * n + 1) / (4**n * math.factorial(n) ** 2)
        assert abs(abs(amps[2 * n + 1]) ** 2 - exact / cosh3) <= 1e-14 * exact
    assert np.array_equal(squeezed_amplitudes(SqueezedPhotonSpec(s=0.0), 5),
                          np.eye(6)[1])


def test_squeezed_cutoff_resolves_the_tail_bound():
    """The smallest cutoff whose tail is at most the bound: 1e-12, the
    field cutoff's tail, at the figure 4/5 squeezings, and the 1e-9 of the
    contract at s = 0.1, 0.161 and 0.2."""
    for s, tail, cutoff in (
        (0.161, 1e-12, 15), (0.2, 1e-12, 17), (0.313, 1e-12, 25),
        (0.1, 1e-9, 9), (0.161, 1e-9, 11), (0.2, 1e-9, 13),
    ):
        assert squeezed_cutoff_for(s, tail) == cutoff
        mass = np.abs(squeezed_amplitudes(SqueezedPhotonSpec(s), 200)) ** 2
        assert float(mass[cutoff + 1 :].sum()) <= tail < float(mass[cutoff - 1 :].sum())


def test_squeezed_overlap_matches_closed_form():
    """Numeric |<cat|squeezed photon>|^2 equals the closed-form fidelity."""
    for alpha, s in ((0.7, 0.161), (1.0, 0.313)):
        cat = source_amplitudes(ScsSpec(alpha=alpha, phi=math.pi), 15, 15)
        amps = squeezed_amplitudes(SqueezedPhotonSpec(s=s), 15)
        overlap = abs(np.vdot(cat, amps)) ** 2
        assert abs(overlap - analytic.scs_fidelity(alpha, s)) < 1e-10


def test_bell_chi_amplitudes():
    state = phi_state(1, _pair_dims())
    root_half = 1.0 / math.sqrt(2.0)
    assert abs(state[1, 0, 0, 1] - root_half) < 1e-12
    assert abs(state[0, 1, 1, 0] - root_half) < 1e-12
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_phi_state_uniform_weights():
    for n in (0, 1, 2):
        state = phi_state(n, _pair_dims(cutoff=2))
        weight = 1.0 / math.sqrt(n + 1)
        for m in range(n + 1):
            occ = (m, n - m, n - m, m)
            assert abs(state[occ] - weight) < 1e-12
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_phi_one_is_bell_chi():
    overlap = np.vdot(phi_state(1, _pair_dims()), _bell_chi())
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_pair_source_chi_single_branch():
    branches = pair_source(PairSourceSpec(variant="chi"), _pair_dims())
    assert len(branches) == 1
    weight, state = branches[0]
    assert weight == 1.0
    assert abs(abs(np.vdot(state, _bell_chi())) - 1.0) < 1e-12


def test_pair_source_vacuum_mixture_weights():
    z = 0.37
    branches = pair_source(PairSourceSpec(variant="vacuum_mixed", z=z), _pair_dims())
    weights = sorted(w for w, _ in branches)
    assert abs(weights[0] - z) < 1e-15
    assert abs(weights[1] - (1.0 - z)) < 1e-15
    for weight, state in branches:
        if abs(weight - (1.0 - z)) < 1e-12:
            assert abs(state[0, 0, 0, 0] - 1.0) < 1e-12


def test_pair_source_spdc_expansion():
    # one branch per pair number n, the unit term |Phi_n> with the paper's
    # weight (1 - lambda^2) lambda^(2n), not renormalized after the cut: a
    # mixture, with no coherence between the terms
    dims = _pair_dims()
    lam = 0.2
    spec = PairSourceSpec(variant="spdc", lam=lam)
    branches = pair_source(spec, dims)
    assert len(branches) == 3
    for n, (weight, state) in enumerate(branches):
        assert weight == spec.sector_weights()[n]
        assert abs(weight - (1.0 - lam**2) * lam ** (2 * n)) < 1e-15
        assert abs(np.vdot(phi_state(n, dims), state) - 1.0) < 1e-12
    assert abs(sum(w for w, _ in branches) - (1.0 - lam**6)) < 1e-15


def test_sector_weights_cover_every_pair_source():
    assert PairSourceSpec("chi").sector_weights() == {1: 1.0}
    vacuum_mixed = PairSourceSpec("vacuum_mixed", z=0.37).sector_weights()
    assert vacuum_mixed == {0: 1.0 - 0.37, 1: 0.37}
    spdc = PairSourceSpec("spdc", lam=0.1).sector_weights()
    assert list(spdc) == [0, 1, 2]
