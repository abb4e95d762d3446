"""Linear-optical elements in the truncated Fock basis.

Beam splitters and polarization rotations share one two-mode mixing kernel,
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

Displacement matrices come from the closed-form associated-Laguerre matrix
elements, not from exponentiating truncated generators, so low Fock
components are accurate to machine precision. The Laguerre values L_n^(k)(x)
for all n, k up to the cutoff come from the three-term recurrence in n
(Abramowitz & Stegun 22.7.12), run on L_n^(k)(x) / C(n + k, n) in difference
form for all k at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffError, TruncationError, ValidationError
from .fock_core import PureState, apply, log_factorials

__all__ = [
    "BsParams",
    "DisplacementSpec",
    "bs_fock_coefficient",
    "two_mode_kernel",
    "apply_beam_splitter",
    "displacement_matrix",
    "required_displacement_cutoff",
    "apply_displacement",
    "polarization_rotation",
]


@dataclass(frozen=True)
class BsParams:
    """Beam-splitter mixing angle xi; the scattering matrix is the real
    rotation [[cos xi, sin xi], [-sin xi, cos xi]]."""

    xi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.xi <= math.pi / 2:
            raise ValidationError(f"mixing angle {self.xi} outside [0, pi/2]")

    @classmethod
    def from_transmissivity(cls, t: float) -> "BsParams":
        if not 0.0 < t <= 1.0:
            raise ValidationError(f"transmissivity {t} outside (0, 1]")
        return cls(math.acos(math.sqrt(t)))

    def scattering_matrix(self) -> np.ndarray:
        c = math.cos(self.xi)
        s = math.sin(self.xi)
        return np.array([[c, s], [-s, c]], dtype=np.complex128)


def bs_fock_coefficient(n: int, m: int, p: int, q: int, t: float) -> float:
    """Combinatorial beam-splitter coefficient B_pq for |n, m> input.

    B_pq = [C(n,p) C(m,q) t^(p+q) r^(n+m-p-q)]^(1/2) (-1)^(n-p), with p
    photons transmitted out of n and q transmitted out of m. Squared over
    all (p, q) it sums to one; it is the full output amplitude only when one
    input port is empty, since it omits the bosonic normalization of
    multiply occupied output modes (see `two_mode_kernel`).
    """
    for name, value in (("n", n), ("m", m), ("p", p), ("q", q)):
        if int(value) != value or value < 0:
            raise ValidationError(f"{name} must be a nonnegative integer")
    if p > n or q > m:
        raise ValidationError(f"need p <= n and q <= m, got {(n, m, p, q)}")
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"transmissivity {t} outside (0, 1]")
    r = 1.0 - t
    value = math.comb(n, p) * math.comb(m, q) * t ** (p + q) * r ** (n + m - p - q)
    return math.sqrt(value) * (-1.0) ** (n - p)


@lru_cache(maxsize=256)
def _cached_kernel(entries: tuple, dim_i: int, dim_j: int) -> np.ndarray:
    s00, s01, s10, s11 = entries
    kernel = np.zeros((dim_i * dim_j, dim_i * dim_j), dtype=np.complex128)
    lg = log_factorials(dim_i + dim_j + 1)
    for n in range(dim_i):
        # amplitude polynomial in "photons sent to the i output" from each input
        from_i = np.array(
            [math.comb(n, p) * s00**p * s10 ** (n - p) for p in range(n + 1)],
            dtype=np.complex128,
        )
        for m in range(dim_j):
            from_j = np.array(
                [math.comb(m, k) * s01**k * s11 ** (m - k) for k in range(m + 1)],
                dtype=np.complex128,
            )
            conv = np.convolve(from_i, from_j)
            col = n * dim_j + m
            for out_i, amp in enumerate(conv):
                out_j = n + m - out_i
                if out_i >= dim_i or out_j >= dim_j:
                    continue
                boson = math.exp(
                    0.5 * (lg[out_i] + lg[out_j] - lg[n] - lg[m])
                )
                kernel[out_i * dim_j + out_j, col] = amp * boson
    kernel.setflags(write=False)
    return kernel


def two_mode_kernel(scattering: np.ndarray, dim_i: int, dim_j: int) -> np.ndarray:
    """Fock-basis matrix of the two-mode mixer with the given 2x2 scattering
    matrix, over dimensions (dim_i, dim_j); row/column index is i-major.

    Components whose output occupation exceeds a cutoff are dropped, so the
    matrix is an exact isometry only on inputs whose images fit. The result
    is cached and read-only.
    """
    mat = np.asarray(scattering, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValidationError("scattering matrix must be 2x2")
    entries = (
        complex(mat[0, 0]),
        complex(mat[0, 1]),
        complex(mat[1, 0]),
        complex(mat[1, 1]),
    )
    return _cached_kernel(entries, int(dim_i), int(dim_j))


def _checked_apply(kernel: np.ndarray, labels, state: PureState,
                   tail_tol) -> PureState:
    out = apply(kernel, labels, state)
    if tail_tol is not None:
        before = state.norm() ** 2
        after = out.norm() ** 2
        if before > 0 and before - after > tail_tol * before:
            raise TruncationError(
                f"mixing on {labels} lost {before - after:.3e} of "
                f"{before:.3e} probability mass (tolerance {tail_tol:.1e})"
            )
    return out


def apply_beam_splitter(state: PureState, mode_i: str, mode_j: str,
                        params: BsParams, tail_tol: float | None = None) -> PureState:
    """Mix two modes with a beam splitter (see module docstring for signs).

    With tail_tol set, raises TruncationError when the relative probability
    mass lost to the cutoffs exceeds it.
    """
    register = state.register
    kernel = two_mode_kernel(
        params.scattering_matrix(),
        register.mode(mode_i).dim,
        register.mode(mode_j).dim,
    )
    return _checked_apply(kernel, (mode_i, mode_j), state, tail_tol)


def polarization_rotation(state: PureState, mode_h: str, mode_v: str,
                          angle: float, tail_tol: float | None = None) -> PureState:
    """Rotate the polarization basis of one spatial mode by `angle`.

    Number-conserving two-mode mixing with the real rotation matrix
    [[cos, sin], [-sin, cos]] on (mode_h, mode_v): at +45 degrees a
    diagonally polarized beam (equal H and V components) maps onto H.
    """
    c, s = math.cos(angle), math.sin(angle)
    scattering = np.array([[c, s], [-s, c]], dtype=np.complex128)
    register = state.register
    kernel = two_mode_kernel(
        scattering, register.mode(mode_h).dim, register.mode(mode_v).dim
    )
    return _checked_apply(kernel, (mode_h, mode_v), state, tail_tol)


# ---------------------------------------------------------------------------
# displacement


@dataclass(frozen=True)
class DisplacementSpec:
    """Displacement amplitude and target mode label."""

    alpha: complex
    mode: str


def required_displacement_cutoff(alpha: complex) -> int:
    """Smallest mode cutoff accepted for a displacement of amplitude alpha."""
    a = abs(alpha)
    return math.ceil(a * a + 6.0 * a + 4.0)


@lru_cache(maxsize=256)
def _cached_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    # <r|D|c> = sqrt(lo!/hi!) beta^k e^(-x/2) L_lo^(k)(x) with lo, hi =
    # min, max(r, c), k = hi - lo and beta = alpha below the diagonal, -alpha*
    # above it. For q[n, k] = L_n^(k)(x) / C(n + k, n) the recurrence reads
    # (n + k + 1) q[n + 1] = (2n + k + 1 - x) q[n] - n q[n - 1], run on the
    # step d = q[n + 1] - q[n], which stays small where q is nearly flat.
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
    # sqrt(lo!/hi!) C(hi, lo) = sqrt(hi!/lo!) / k!; integer powers of a
    # complex array keep 0 ** 0 = 1, so alpha = 0 gives the identity
    mat = np.exp(0.5 * (lg[hi] - lg[lo]) - lg[hi - lo] - 0.5 * x) \
        * beta ** (hi - lo) * q[lo, hi - lo]
    mat.setflags(write=False)
    return mat


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Single-mode displacement operator on a truncated space, as a cached
    read-only matrix.

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
    return _cached_displacement(alpha, int(cutoff))


def apply_displacement(state: PureState, spec: DisplacementSpec,
                       tail_tol: float | None = None) -> PureState:
    """Displace one mode of a state."""
    cutoff = state.register.mode(spec.mode).cutoff
    kernel = displacement_matrix(spec.alpha, cutoff)
    return _checked_apply(kernel, (spec.mode,), state, tail_tol)

