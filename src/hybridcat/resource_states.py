"""Factories for the input states of the scheme, from `SchemeConfig`'s
plain fields.

Single-mode resources: coherent states, superpositions of coherent states
(SCS), and squeezed single photons. `sector_weights` gives the two-photon
resources, the polarization Bell pair, its vacuum-mixed variant and the
parametric pair source's vacuum, one-pair and two-pair terms, each as a
mixture of pair-number terms.

`source_amplitudes` is the beam source, the cat or, when a squeezing is
given, the squeezed photon, evaluated once from its exact expansion, held
to one cutoff contract and normalized; the raw amplitude functions
(`coherent_amplitudes`, `squeezed_amplitudes`) expand to any photon
number, and `coherent_cutoff_for` and `squeezed_cutoff_for` find where a
tail bound holds.

Amplitudes are real (float64) wherever the state is: a coherent state of
real amplitude, the squeezed photon, and the cat whose phase phi is a
multiple of pi (`cat_phase`). Only a cat of another phi is complex128, and
the run path computes in whichever dtype its source forces.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import n_phi
from .errors import CutoffError, ValidationError
from .fock_core import log_factorials

__all__ = [
    "PAIR_SOURCES",
    "cat_phase",
    "coherent_amplitudes",
    "coherent_cutoff_for",
    "sector_weights",
    "source_amplitudes",
    "squeezed_amplitudes",
    "squeezed_cutoff_for",
]

PAIR_SOURCES = ("chi", "vacuum_mixed", "spdc")


# ---------------------------------------------------------------------------
# pair sources


def sector_weights(
    pair_source: str, z: float | None, lam: float | None
) -> dict[int, float]:
    """The pair source of `PAIR_SOURCES` as a mixture of unit n-pair terms
    |Phi_n>, weights w_n by n: {1: 1} for the Bell pair, {0: 1 - z, 1: z}
    for the vacuum-mixed pair and, for the parametric source, the three
    terms of the paper's P_tot (arXiv:1410.6823), (1 - lam^2) lam^(2n) for
    n = 0, 1, 2; not renormalized. z and lam are read only by their source,
    and held to the ranges `SchemeConfig` checks."""
    if pair_source == "chi":
        return {1: 1.0}
    if pair_source == "vacuum_mixed":
        return {0: 1.0 - z, 1: z}
    lam2 = lam * lam
    return {n: (1.0 - lam2) * lam2**n for n in range(3)}


# ---------------------------------------------------------------------------
# single-mode resources


def cat_phase(phi: float):
    """The cat's relative phase e^(i phi): the float 1.0 or -1.0 where phi
    is a multiple of pi to double precision, so that the cat, and every
    array built from it, stays real, else a complex number."""
    k = round(phi / math.pi)
    if phi == k * math.pi:
        return -1.0 if k % 2 else 1.0
    return complex(np.exp(1j * phi))


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent-state amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!),
    float64 for a real alpha (its sign alternating with n where alpha < 0)
    and complex128 otherwise."""
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    n = np.arange(cutoff + 1)
    if alpha == 0:
        return np.where(n == 0, 1.0, 0.0)
    magnitude = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha))
                       - 0.5 * log_factorials(cutoff + 1))
    alpha = complex(alpha)
    if alpha.imag == 0.0:
        return magnitude * math.copysign(1.0, alpha.real) ** n
    return magnitude * np.exp(1j * np.angle(alpha) * n)


def coherent_cutoff_for(alpha: complex, tail: float) -> int:
    """Smallest cutoff whose truncated coherent tail mass is below `tail`."""
    x = abs(alpha) ** 2
    if x == 0.0:
        return 0
    # scan the Poisson tail
    term = math.exp(-x)
    total = term
    n = 0
    while 1.0 - total > tail:
        n += 1
        term *= x / n
        total += term
        if n > 10_000:
            raise ValidationError(f"amplitude {alpha} too large to truncate")
    return n


def squeezed_cutoff_for(s: float, tail: float) -> int:
    """Smallest cutoff whose squeezed-photon tail mass is at most `tail`:
    the terms |c_(2n+1)|^2 run from cosh^-3 s = (1 - tanh^2 s)^(3/2) by the
    ratio tanh^2 s (2n + 3) / (2n + 2)."""
    tanh2 = math.tanh(s) ** 2
    term = total = (1.0 - tanh2) ** 1.5
    n = 0
    while 1.0 - total > tail:
        term *= tanh2 * (2 * n + 3) / (2 * n + 2)
        total += term
        n += 1
        if n > 10_000:
            raise ValidationError(f"squeezing s={s} too large to truncate")
    return 2 * n + 1


def source_amplitudes(
    alpha: float, phi: float, s: float | None, cutoff: int, reach: int
) -> np.ndarray:
    """The beam source's amplitudes up to `reach` >= `cutoff` photons,
    normalized there, from one evaluation: the superposition of coherent
    states N (|alpha> + e^{i phi} |-alpha>) when `s` is None, else the
    squeezed single photon of squeezing `s`. Both expansions are exact, so
    one cutoff contract holds for either source: the raw amplitudes' mass
    above `cutoff` photons is at most 1e-9, or `CutoffError`."""
    if s is None:
        plus = coherent_amplitudes(alpha, reach)
        minus = coherent_amplitudes(-alpha, reach)
        amps = n_phi(alpha, phi) * (plus + cat_phase(phi) * minus)
    else:
        amps = squeezed_amplitudes(s, reach)
    lost = 1.0 - float(np.sum(np.abs(amps[: cutoff + 1]) ** 2))
    if lost > 1e-9:
        raise CutoffError(
            f"source tail mass {lost:.3e} above {cutoff} photons exceeds 1e-9"
        )
    return amps / float(np.linalg.norm(amps))


def squeezed_amplitudes(s: float, cutoff: int) -> np.ndarray:
    """The squeezed single photon S(s)|1>'s exact amplitudes up to `cutoff`
    photons, real and not renormalized: occupation 2n + 1 carries c_(2n+1) =
    tanh^n s cosh^(-3/2) s sqrt((2n + 1)!) / (2^n n!), |c_(2n+1)|^2 = tanh^(2n) s
    (2n + 1)! / (cosh^3 s 4^n n!^2) (Kim, de Oliveira & Knight, Phys. Rev. A
    40, 2494 (1989)), with the factorials in logarithms so that no photon
    number overflows.
    """
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    n = np.arange((cutoff + 1) // 2)
    lg = log_factorials(2 * n.size)
    x = math.tanh(s)
    amps = np.zeros(cutoff + 1)
    # plain powers, not logarithms: at s = 0 the photon needs 0 ** 0 = 1
    amps[1::2] = (1.0 - x * x) ** 0.75 * x**n \
        * np.exp(0.5 * lg[2 * n + 1] - lg[n] - n * math.log(2.0))
    return amps
