"""Tests for beam splitters, rotations and displacements."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from hybridcat import analytic, cli, pipeline
from hybridcat.errors import ValidationError
from hybridcat.optics import (
    displacement_matrix,
    mixer_amplitudes,
    required_displacement_cutoff,
    rotation,
    splitter,
)
from hybridcat.oracle import bs_fock_coefficient, mix
from hybridcat.resource_states import coherent_amplitudes


def _sector_unitary(matrix, dim, total):
    """Extract the photon-number sector (n_i + n_j = total) of a dense
    two-mode matrix, i-major, as [out, in] over (n_i, total - n_i)."""
    index = [(total - j, j) for j in range(total + 1)]
    block = np.zeros((total + 1, total + 1), dtype=complex)
    for row, (a, b) in enumerate(index):
        for col, (c, d) in enumerate(index):
            block[row, col] = matrix[a * dim + b, c * dim + d]
    return block


def _sector_amplitudes(amplitudes, total):
    """The same sector block read off `mixer_amplitudes`: [n, total - n, o]
    at row (o, total - o), column (n, total - n), in `_sector_unitary`'s
    order."""
    n = np.arange(total, -1, -1)
    return amplitudes[n, total - n][:, n].T


def test_kernel_matches_exponential_generator():
    """The mixer's amplitudes must equal expm of the quadratic generator.

    For scattering S = expm(i G) acting on the mode operators, the Fock
    representation is expm(i a^dag G a). Compared entry by entry on the
    interior so truncation plays no role.
    """
    from scipy.linalg import logm

    t = 0.73
    s = splitter(t)
    # generator G with expm(iG) = S (principal branch)
    g = logm(s) / 1j
    dim = 6
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    n_ops = {
        (0, 0): np.kron(a.conj().T @ a, np.eye(dim)),
        (0, 1): np.kron(a.conj().T, a),
        (1, 0): np.kron(a, a.conj().T),
        (1, 1): np.kron(np.eye(dim), a.conj().T @ a),
    }
    generator = sum(g[i, j] * n_ops[(i, j)] for i in range(2) for j in range(2))
    expected = expm(1j * generator)
    amplitudes = mixer_amplitudes(s, dim, dim)
    # compare on the interior where truncation cannot leak
    for total in range(4):
        got = _sector_amplitudes(amplitudes, total)
        want = _sector_unitary(expected, dim, total)
        assert np.max(np.abs(got - want)) < 1e-10


def test_bs_coefficient_square_sums():
    # the splitting coefficients square-sum to one for every input
    for n, m in ((0, 0), (1, 0), (2, 1), (3, 3)):
        total = sum(
            bs_fock_coefficient(n, m, p, q, 0.62) ** 2
            for p in range(n + 1)
            for q in range(m + 1)
        )
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("photons", [True, 1.0, -1, "1"], ids=repr)
def test_bs_coefficient_takes_photon_counts_only(photons):
    # photon numbers follow the integer rule: no bool, no integral float
    for args in ((photons, 0, 0, 0), (1, photons, 0, 0), (1, 1, photons, 0)):
        with pytest.raises(ValidationError):
            bs_fock_coefficient(*args, 0.5)


def test_bs_coefficient_matches_kernel_single_mode_input():
    # with one port empty the mixer's amplitudes are the printed
    # coefficient, sign included, on square and non-square dimensions;
    # outputs past a cutoff are dropped
    for t, (dim_i, dim_j) in itertools.product(
        (0.73, 0.81, 0.9, 1.0), ((7, 7), (5, 8))
    ):
        amplitudes = mixer_amplitudes(splitter(t), dim_i, dim_j)
        from_i = np.zeros((dim_i, dim_i))  # [n, o] of input |n, 0>
        for n in range(dim_i):
            for p in range(max(0, n - dim_j + 1), n + 1):
                from_i[n, p] = bs_fock_coefficient(n, 0, p, 0, t)
        from_j = np.zeros((dim_j, dim_i))  # [m, o] of input |0, m>
        for m in range(dim_j):
            # q photons stay in port j, m - q cross into port i
            for q in range(max(0, m - dim_i + 1), m + 1):
                from_j[m, m - q] = bs_fock_coefficient(0, m, 0, q, t)
        assert np.abs(amplitudes[:, 0] - from_i).max() <= 1e-12
        assert np.abs(amplitudes[0] - from_j).max() <= 1e-12


def _balanced_amplitude(n, m, o):
    """<o, n + m - o| of the 50:50 splitter applied to |n, m>, in exact
    integers and fractions: (a^dag - b^dag)^n (a^dag + b^dag)^m expands to
    sum_p C(n, p) (-1)^(n - p) C(m, o - p) at a^dag^o, times
    sqrt(o! (n + m - o)! / (n! m! 2^(n + m)))."""
    coeff = sum(
        math.comb(n, p) * (-1) ** (n - p) * math.comb(m, o - p)
        for p in range(max(0, o - m), min(n, o) + 1)
    )
    square = Fraction(
        coeff**2 * math.factorial(o) * math.factorial(n + m - o),
        math.factorial(n) * math.factorial(m) * 2 ** (n + m),
    )
    return math.copysign(math.sqrt(square), coeff)


@pytest.mark.parametrize("dim", [9, 14])
def test_balanced_kernel_matches_exact_integers(dim):
    # every entry, including the zeros of outputs past the cutoff
    expected = np.zeros((dim, dim, dim))
    for n in range(dim):
        for m in range(dim):
            for o in range(max(0, n + m - dim + 1), min(dim, n + m + 1)):
                expected[n, m, o] = _balanced_amplitude(n, m, o)
    amplitudes = mixer_amplitudes(splitter(0.5), dim, dim)
    assert np.abs(amplitudes - expected).max() <= 1e-12


@pytest.mark.parametrize("dims", [(6, 6), (4, 9)])
def test_full_transmission_kernel_is_the_identity(dims):
    # |n, m> -> |n, m>: one photon count o = n in mode i, exactly
    dim_i, dim_j = dims
    amplitudes = mixer_amplitudes(splitter(1.0), dim_i, dim_j)
    identity = np.broadcast_to(np.eye(dim_i)[:, None, :], (dim_i, dim_j, dim_i))
    assert np.array_equal(amplitudes, identity)


def test_mixer_amplitudes_keep_to_the_conserving_entries():
    # shape [n, m, o]; zero wherever the output (o, n + m - o) is not a
    # photon-number-conserving one inside the cutoffs, and every input
    # whose total fits both cutoffs keeps its norm
    for t, (dim_i, dim_j) in itertools.product(
        (0.5, 0.73, 1.0), ((1, 1), (5, 5), (4, 9), (9, 4), (14, 14), (36, 36))
    ):
        amplitudes = mixer_amplitudes(splitter(t), dim_i, dim_j)
        assert amplitudes.shape == (dim_i, dim_j, dim_i)
        n, m, o = np.indices(amplitudes.shape)
        inside = (o <= n + m) & (n + m - o < dim_j)
        assert not amplitudes[~inside].any()
        norms = (np.abs(amplitudes) ** 2).sum(axis=2)
        fits = np.add.outer(np.arange(dim_i), np.arange(dim_j)) < min(dim_i, dim_j)
        assert np.abs(norms[fits] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("shape", [(4, 9), (9, 4)])
def test_mix_applies_every_amplitude_to_the_axes_listed(shape):
    # |n, m> -> sum_o amplitudes[n, m, o] |o, n + m - o>, entry by entry,
    # the outputs past a cutoff dropped
    rng = np.random.default_rng(5)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    scattering = splitter(0.73)
    amplitudes = mixer_amplitudes(scattering, *shape)
    expected = np.zeros(shape, dtype=complex)
    for n, m, o in itertools.product(range(shape[0]), range(shape[1]), range(shape[0])):
        if 0 <= n + m - o < shape[1]:
            expected[o, n + m - o] += amplitudes[n, m, o] * amps[n, m]
    assert np.abs(mix(amps, (0, 1), scattering) - expected).max() <= 1e-14
    # the oracle lists the higher axis first, as (4, 2) and (5, 3): the
    # first listed is mode i, whatever its position
    for scattering in (splitter(0.73), rotation(0.3)):
        assert np.array_equal(
            mix(amps, (1, 0), scattering), mix(amps.T, (0, 1), scattering).T
        )
    # an input whose photon-number totals fit both cutoffs keeps its norm
    fits = np.add.outer(np.arange(shape[0]), np.arange(shape[1])) < min(shape)
    inside = np.where(fits, amps, 0.0) / np.linalg.norm(amps[fits])
    for axes, scattering in itertools.product(
        ((0, 1), (1, 0)), (splitter(0.5), splitter(0.9), rotation(-0.4))
    ):
        assert abs(np.linalg.norm(mix(inside, axes, scattering)) - 1.0) <= 1e-12


def test_hom_dip():
    """Two indistinguishable photons on a 50:50 splitter never split."""
    state = np.zeros((3, 3), dtype=complex)
    state[1, 1] = 1.0
    half = splitter(0.5)
    out = mix(state, (0, 1), half)
    assert abs(out[1, 1]) < 1e-12
    assert abs(abs(out[2, 0]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(out[0, 2]) - 1 / math.sqrt(2)) < 1e-12


def test_coherent_states_stay_coherent():
    """A coherent input scatters to coherent outputs at the matrix amplitudes."""
    alpha = 0.7
    t = 0.84
    s = splitter(t)
    state = np.multiply.outer(coherent_amplitudes(alpha, 14), coherent_amplitudes(0.0, 14))
    out = mix(state, (0, 1), s)
    expected = np.multiply.outer(
        coherent_amplitudes(s[0, 0] * alpha, 14), coherent_amplitudes(s[1, 0] * alpha, 14)
    )
    assert abs(abs(np.vdot(out, expected)) - 1.0) < 1e-9


def test_beam_splitter_preserves_norm():
    state = np.multiply.outer(coherent_amplitudes(0.5, 12), coherent_amplitudes(0.3, 12))
    out = mix(state, (0, 1), splitter(0.9))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_polarization_rotation_diagonal_to_h():
    diagonal = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2)
    out = mix(diagonal, (0, 1), rotation(math.pi / 4))
    assert abs(abs(out[1, 0]) - 1.0) < 1e-12
    assert abs(out[0, 1]) < 1e-12


def test_polarization_rotation_inverts():
    state = np.zeros((3, 3), dtype=complex)
    state[1, 1] = state[2, 0] = 1 / math.sqrt(2)
    theta = 0.3
    back = mix(mix(state, (0, 1), rotation(theta)), (0, 1), rotation(-theta))
    assert abs(abs(np.vdot(back, state)) - 1.0) < 1e-12


def test_real_arguments_give_real_matrices():
    """Every rotation and splitter is real, and so are the mixer's
    amplitudes and a real amplitude's displacement; a complex argument
    gives complex128. A real alpha passed as a complex number is cached,
    and built, as the real one."""
    assert rotation(0.3).dtype == splitter(0.9).dtype == np.float64
    assert mixer_amplitudes(splitter(0.5), 4, 5).dtype == np.float64
    phased = splitter(0.5) * np.array([[1.0, 1j], [1j, 1.0]])
    assert mixer_amplitudes(phased, 4, 5).dtype == np.complex128
    assert displacement_matrix(-0.7, 10).dtype == np.float64
    assert displacement_matrix(complex(-0.7), 10) is displacement_matrix(-0.7, 10)
    assert displacement_matrix(0.7j, 10).dtype == np.complex128


def test_displacement_matrix_unitary_interior():
    # truncation error drains from the top of the matrix; with eight
    # levels of headroom the low-lying block is unitary to high accuracy
    alpha = 0.45
    cutoff = required_displacement_cutoff(alpha) + 8
    d = displacement_matrix(alpha, cutoff)
    product = d.conj().T @ d
    interior = product[:6, :6]
    assert np.max(np.abs(interior - np.eye(6))) < 1e-10


def test_displacement_of_vacuum_is_coherent():
    alpha = 0.6
    cutoff = 14
    d = displacement_matrix(alpha, cutoff)
    column = d[:, 0]
    expected = coherent_amplitudes(alpha, cutoff)
    assert np.max(np.abs(column - expected)) < 1e-10


def test_displacements_compose():
    alpha = 0.5
    cutoff = required_displacement_cutoff(alpha) + 8
    d_plus = displacement_matrix(alpha, cutoff)
    d_minus = displacement_matrix(-alpha, cutoff)
    product = d_minus @ d_plus
    interior = product[:6, :6]
    assert np.max(np.abs(interior - np.eye(6))) < 1e-9


def _scipy_displacement(alpha, cutoff):
    """<r|D|c> from scipy's Laguerre polynomials, one element at a time."""
    dim = cutoff + 1
    x = abs(alpha) ** 2
    lg = gammaln(np.arange(dim) + 1.0)
    mat = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            lo, hi = min(r, c), max(r, c)
            beta = alpha if r >= c else -np.conj(alpha)
            mat[r, c] = (
                math.exp(0.5 * (lg[lo] - lg[hi]) - 0.5 * x)
                * beta ** (hi - lo)
                * eval_genlaguerre(lo, hi - lo, x)
            )
    return mat


def _figure_displacements():
    """(amplitude, cutoff) of every displacement the figure 2-5 grids and the
    alpha_f = 1.0, 1.5, 2.5 runs at t = 0.9 build; each is fixed by t and
    alpha_i alone."""
    configs = [pipeline.SchemeConfig(t=t, eta=0.9, alpha_f=1.0) for t in cli._FIG2_T]
    configs += [
        pipeline.SchemeConfig(t=0.99, eta=0.9, alpha_f=a) for a in cli._FIG3_ALPHA
    ]
    configs += [
        pipeline.SchemeConfig(t=t, eta=0.9, alpha_i=panel.alpha_i)
        for panel in analytic.PANELS.values()
        for t in (0.9, 0.99, 0.999)
    ]
    configs += [
        pipeline.SchemeConfig(t=0.9, eta=0.9, alpha_f=a) for a in (1.0, 1.5, 2.5)
    ]
    return {
        (pipeline._displacement_amplitude(c), pipeline.resolve_cutoffs(c).detector)
        for c in configs
    }


def test_displacement_matrix_matches_scipy_laguerre():
    pairs = _figure_displacements()
    pairs |= {(alpha, 24) for alpha in (0.0, 0.4, 0.9, 0.5 + 0.3j, -0.9)}
    for alpha, cutoff in pairs:
        got = displacement_matrix(alpha, cutoff)
        assert np.max(np.abs(got - _scipy_displacement(alpha, cutoff))) < 1e-14
    assert np.array_equal(displacement_matrix(0.0, 24), np.eye(25))


def test_required_displacement_cutoff_monotone():
    values = [required_displacement_cutoff(a) for a in (0.1, 0.5, 1.0, 2.0)]
    assert values == sorted(values)
    assert values[0] >= 4
