"""Matrices of the linear-optical elements in the truncated Fock basis.

Beam splitters and polarization rotations share one two-mode mixer,
parameterized by the 2x2 scattering matrix S that maps input creation
operators to output creation operators (columns = inputs). For a mode pair
(i, j) the convention is

    a_i^dag -> S00 a_i^dag + S10 a_j^dag,
    a_j^dag -> S01 a_i^dag + S11 a_j^dag,

and coherent amplitudes transform by the same matrix. A transmissivity-t
splitter uses S = [[sqrt(t), sqrt(r)], [-sqrt(r), sqrt(t)]] (r = 1 - t): a
beam entering mode j keeps its transmitted part +sqrt(t) in mode j and sends
+sqrt(r) into mode i, while a beam entering mode i picks up the minus sign on
its reflected part.

The mixer conserves photon number, so its amplitudes are indexed by the
input (n, m) and the output o in mode i alone (`mixer_amplitudes`), the one
form of the mixer that the run path and the dense test oracle both apply.
They are built without loops over Fock entries. Input |n, m> expands
binomially in the output creation operators (Campos, Saleh & Teich, PRA 40,
1371 (1989)), so the amplitude of o photons in output i is a convolution of
two per-input tables of exact binomials times powers of S; one matmul takes
it for every input pair, and a boson factor from `log_factorials` scales it.

Every matrix here takes the dtype its arguments force: a real scattering
matrix (every rotation and splitter) gives real mixer amplitudes, and a
real amplitude a real displacement matrix, float64 both; complex128 comes
only from a complex argument.

Displacement matrices come from the closed-form associated-Laguerre matrix
elements, not from exponentiating truncated generators, so low Fock
components are accurate to machine precision. The Laguerre values L_n^(k)(x)
for all n, k up to the cutoff come from the three-term recurrence in n
(Abramowitz & Stegun 22.7.12), run on L_n^(k)(x) / C(n + k, n) in difference
form for all k at once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CutoffError, ValidationError, real
from .fock_core import log_factorials

__all__ = [
    "transmissivity",
    "rotation",
    "splitter",
    "mixer_amplitudes",
    "displacement_matrix",
    "required_displacement_cutoff",
]


def transmissivity(t) -> float:
    """A splitter transmissivity as a float: a number in (0, 1], the one
    range check every transmissivity, a config's, a closed form's or a
    splitter's, goes through."""
    t = float(real("t", t))
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"transmissivity t must be in (0, 1], got {t}")
    return t


def rotation(angle: float) -> np.ndarray:
    """The real scattering matrix [[cos, sin], [-sin, cos]] of mixing angle
    `angle`. On the (H, V) polarizations of one spatial mode it turns the
    basis, so that at +45 degrees a diagonally polarized beam (equal H and
    V components) maps onto H."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def splitter(t) -> np.ndarray:
    """The real scattering matrix of a transmissivity-t beam splitter: the
    rotation by arccos(sqrt(t))."""
    return rotation(math.acos(math.sqrt(transmissivity(t))))


def _expansion_table(size: int, dim: int, to_i: complex, to_j: complex) -> np.ndarray:
    # row n, column p: C(n, p) to_i^p to_j^(n - p), zero for p > n, real for
    # real entries; integer powers keep 0 ** 0 = 1. The binomials follow
    # Pascal's rule in float64, exact while every C(n, p) is below 2^53
    # (n <= 56)
    binomials = np.zeros((size, dim))
    binomials[:, 0] = 1.0
    for row in range(1, size):
        binomials[row, 1:] = binomials[row - 1, 1:] + binomials[row - 1, :-1]
    n, p = np.arange(size)[:, None], np.arange(dim)
    powers = np.asarray(to_i) ** p * np.asarray(to_j) ** np.maximum(n - p, 0)
    return binomials * powers


def _scattering_entries(scattering: np.ndarray) -> tuple:
    # the four entries as floats, or as complex numbers where any of them
    # has an imaginary part
    mat = np.asarray(scattering, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValidationError("scattering matrix must be 2x2")
    return tuple((mat if mat.imag.any() else mat.real).ravel().tolist())


def mixer_amplitudes(scattering: np.ndarray, dim_i: int, dim_j: int) -> np.ndarray:
    """The two-mode mixer's photon-number-conserving amplitudes, indexed
    [n, m, o]: <o, n + m - o| of the mixer applied to input |n, m>, over
    dimensions (dim_i, dim_j), zero where that output falls outside them:
    the mixer's only nonzero Fock matrix elements, dim_i^2 dim_j of them
    against the (dim_i dim_j)^2 of its dense matrix; float64 for a real
    scattering matrix. The result is not cached: its callers cache what
    they build from it.
    """
    # Input |n, m> expands as (s00 a_i^dag + s10 a_j^dag)^n (s01 a_i^dag +
    # s11 a_j^dag)^m / sqrt(n! m!). The amplitude of o photons in output i
    # is the convolution over o = p + k of a[n, p] = C(n, p) s00^p
    # s10^(n - p) and b[m, k] = C(m, k) s01^k s11^(m - k), taken for every
    # (n, m) by one matmul of a against b shifted by p; the boson factor
    # sqrt(o! (n + m - o)! / (n! m!)) normalizes it. Outputs past either
    # cutoff are dropped.
    s00, s01, s10, s11 = _scattering_entries(scattering)
    a = _expansion_table(dim_i, dim_i, s00, s10)
    # b padded with a zero column at index dim_i, where k = o - p < 0 points
    b = _expansion_table(dim_j, dim_i + 1, s01, s11)
    b[:, dim_i] = 0.0
    o = np.arange(dim_i)
    k = o - o[:, None]  # [p, o]
    shifted = b[:, np.where(k >= 0, k, dim_i)]  # [m, p, o]
    conv = (a @ shifted.transpose(1, 0, 2).reshape(dim_i, -1)).reshape(
        dim_i, dim_j, dim_i
    )
    n, m = np.arange(dim_i)[:, None, None], np.arange(dim_j)[:, None]
    out_j = n + m - o
    lg = log_factorials(dim_i + dim_j + 1)
    # paired differences vanish exactly where o = n, so t = 1 is the identity;
    # past a cutoff out_j reads any entry of lg, and the amplitude is dropped
    boson = np.exp(0.5 * ((lg[o] - lg[n]) + (lg[out_j] - lg[m])))
    return np.where((out_j >= 0) & (out_j < dim_j), conv * boson, 0.0)


# ---------------------------------------------------------------------------
# displacement


def required_displacement_cutoff(alpha: complex) -> int:
    """Smallest mode cutoff accepted for a displacement of amplitude alpha."""
    a = abs(alpha)
    return math.ceil(a * a + 6.0 * a + 4.0)


@lru_cache(maxsize=256)
def _cached_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    # <r|D|c> = sqrt(lo!/hi!) beta^k e^(-x/2) L_lo^(k)(x) with lo, hi =
    # min, max(r, c), k = hi - lo and beta = alpha below the diagonal, -alpha*
    # above it, real for a real alpha. For q[n, k] = L_n^(k)(x) / C(n + k, n)
    # the recurrence reads (n + k + 1) q[n + 1] = (2n + k + 1 - x) q[n] -
    # n q[n - 1], run on the step d = q[n + 1] - q[n], which stays small where
    # q is nearly flat.
    dim = cutoff + 1
    x = abs(alpha) ** 2
    k = np.arange(dim)
    q = np.ones((dim, dim))
    d = np.zeros(dim)
    for n in range(dim - 1):
        d = (n * d - x * q[n]) / (n + 1 + k)
        q[n + 1] = q[n] + d
    row, col = k[:, None], k[None, :]
    lo, hi = np.minimum(row, col), np.maximum(row, col)
    beta = np.where(row >= col, alpha, -np.conj(alpha))
    lg = log_factorials(dim)
    # sqrt(lo!/hi!) C(hi, lo) = sqrt(hi!/lo!) / k!; integer powers keep
    # 0 ** 0 = 1, so alpha = 0 gives the identity
    mat = np.exp(0.5 * (lg[hi] - lg[lo]) - lg[hi - lo] - 0.5 * x) \
        * beta ** (hi - lo) * q[lo, hi - lo]
    mat.setflags(write=False)
    return mat


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Single-mode displacement operator on a truncated space, as a cached
    read-only matrix, float64 for a real alpha and complex128 otherwise.

    Matrix elements are the closed-form associated-Laguerre expressions,
    with the Laguerre table built by the three-term recurrence in n
    (Abramowitz & Stegun 22.7.12). The cutoff must be at least
    `required_displacement_cutoff(alpha)` so that the truncation error stays
    in the far tail.
    """
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValidationError(f"displacement amplitude {alpha} is not finite")
    needed = required_displacement_cutoff(alpha)
    if cutoff < needed:
        raise CutoffError(
            f"displacement with |alpha|={abs(alpha):.4g} needs cutoff >= "
            f"{needed}, got {cutoff}"
        )
    # a real alpha is cached, and built, as a float
    return _cached_displacement(alpha if alpha.imag else alpha.real, int(cutoff))
