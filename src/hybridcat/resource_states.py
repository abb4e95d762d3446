"""Specs and factories for the input states of the scheme.

Single-mode resources: coherent states, superpositions of coherent states
(SCS), and squeezed single photons. `PairSourceSpec` describes the
two-photon resources: the polarization Bell pair, its vacuum-mixed variant,
and the parametric pair source's vacuum, one-pair and two-pair terms, each
a mixture of pair-number terms whose weights it owns.

`source_amplitudes` is the beam source, the cat or the squeezed photon by
its spec, evaluated once from its exact expansion, held to one cutoff
contract and normalized; the raw amplitude functions
(`coherent_amplitudes`, `squeezed_amplitudes`) expand to any photon
number, and `coherent_cutoff_for` and `squeezed_cutoff_for` find where a
tail bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import interaction_strength, n_phi
from .errors import CutoffError, ValidationError, choice, nonnegative, real
from .fock_core import log_factorials

__all__ = [
    "PAIR_SOURCES",
    "ScsSpec",
    "SqueezedPhotonSpec",
    "PairSourceSpec",
    "coherent_amplitudes",
    "coherent_cutoff_for",
    "source_amplitudes",
    "squeezed_amplitudes",
    "squeezed_cutoff_for",
]

PAIR_SOURCES = ("chi", "vacuum_mixed", "spdc")


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class ScsSpec:
    """Superposition of coherent states N (|alpha> + e^{i phi} |-alpha>)."""

    alpha: float
    phi: float

    def __post_init__(self) -> None:
        # the closed forms' one check of the amplitude, the phase and
        # where the normalization diverges
        n_phi(self.alpha, self.phi)

    @property
    def normalization(self) -> float:
        return n_phi(self.alpha, self.phi)


@dataclass(frozen=True)
class SqueezedPhotonSpec:
    """Squeezed single photon S(s)|1> with squeezing s, on odd occupations."""

    s: float

    def __post_init__(self) -> None:
        nonnegative("s", self.s)


@dataclass(frozen=True)
class PairSourceSpec:
    """Photon-pair source: ideal Bell pair, vacuum-mixed, or parametric
    (`PAIR_SOURCES`)."""

    variant: str
    z: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        choice("pair_source", self.variant, PAIR_SOURCES)
        if self.variant == "vacuum_mixed" and not 0.0 < real("z", self.z) <= 1.0:
            raise ValidationError(f"pair weight z={self.z} outside (0, 1]")
        if self.variant == "spdc":
            interaction_strength(self.lam)

    def sector_weights(self) -> dict[int, float]:
        """The source as a mixture of unit n-pair terms |Phi_n>, weights w_n
        by n: {1: 1} for the Bell pair, {0: 1 - z, 1: z} for the
        vacuum-mixed pair and, for the parametric source, the three terms
        of the paper's P_tot (arXiv:1410.6823), (1 - lam^2) lam^(2n) for
        n = 0, 1, 2; not renormalized."""
        if self.variant == "chi":
            return {1: 1.0}
        if self.variant == "vacuum_mixed":
            return {0: 1.0 - self.z, 1: self.z}
        lam2 = self.lam * self.lam
        return {n: (1.0 - lam2) * lam2**n for n in range(3)}


# ---------------------------------------------------------------------------
# single-mode resources


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent-state amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!)."""
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    n = np.arange(cutoff + 1)
    if alpha == 0:
        return np.where(n == 0, 1.0, 0.0).astype(np.complex128)
    magnitude = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha))
                       - 0.5 * log_factorials(cutoff + 1))
    phase = np.exp(1j * np.angle(complex(alpha)) * n)
    return magnitude * phase


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
    spec: ScsSpec | SqueezedPhotonSpec, cutoff: int, reach: int
) -> np.ndarray:
    """The beam source's amplitudes up to `reach` >= `cutoff` photons,
    normalized there, from one evaluation: the superposition of coherent
    states N (|alpha> + e^{i phi} |-alpha>) of an `ScsSpec`, or the squeezed
    single photon of a `SqueezedPhotonSpec`. Both expansions are exact, so
    one cutoff contract holds for either source: the raw amplitudes' mass
    above `cutoff` photons is at most 1e-9, or `CutoffError`."""
    if isinstance(spec, ScsSpec):
        plus = coherent_amplitudes(spec.alpha, reach)
        minus = coherent_amplitudes(-spec.alpha, reach)
        amps = spec.normalization * (plus + np.exp(1j * spec.phi) * minus)
    else:
        amps = squeezed_amplitudes(spec, reach)
    lost = 1.0 - float(np.sum(np.abs(amps[: cutoff + 1]) ** 2))
    if lost > 1e-9:
        raise CutoffError(
            f"source tail mass {lost:.3e} above {cutoff} photons exceeds 1e-9"
        )
    return amps / float(np.linalg.norm(amps))


def squeezed_amplitudes(spec: SqueezedPhotonSpec, cutoff: int) -> np.ndarray:
    """The squeezed single photon's exact amplitudes up to `cutoff` photons,
    not renormalized: occupation 2n + 1 carries c_(2n+1) = tanh^n s
    cosh^(-3/2) s sqrt((2n + 1)!) / (2^n n!), |c_(2n+1)|^2 = tanh^(2n) s
    (2n + 1)! / (cosh^3 s 4^n n!^2) (Kim, de Oliveira & Knight, Phys. Rev. A
    40, 2494 (1989)), with the factorials in logarithms so that no photon
    number overflows.
    """
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    n = np.arange((cutoff + 1) // 2)
    lg = log_factorials(2 * n.size)
    x = math.tanh(spec.s)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    # plain powers, not logarithms: at s = 0 the photon needs 0 ** 0 = 1
    amps[1::2] = (1.0 - x * x) ** 0.75 * x**n \
        * np.exp(0.5 * lg[2 * n + 1] - lg[n] - n * math.log(2.0))
    return amps
