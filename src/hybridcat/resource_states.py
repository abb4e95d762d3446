"""Specs and factories for the input states of the scheme.

Single-mode resources: coherent states, superpositions of coherent states
(SCS), and squeezed single photons. `PairSourceSpec` describes the
two-photon resources: the polarization Bell pair, its vacuum-mixed variant,
and parametric pair sources with vacuum plus higher-order components, each
a mixture of pair-number terms whose weights it owns.

`source_amplitudes` is the beam source, the cat or the squeezed photon by
its spec, evaluated once and normalized; truncation deficits can be probed
through the raw amplitude functions (`coherent_amplitudes`,
`squeezed_amplitudes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import interaction_strength, n_phi
from .errors import CutoffError, ValidationError, choice, integer, nonnegative, real
from .fock_core import log_factorials

__all__ = [
    "PAIR_SOURCES",
    "SPDC_WEIGHTINGS",
    "ScsSpec",
    "SqueezedPhotonSpec",
    "PairSourceSpec",
    "coherent_amplitudes",
    "coherent_cutoff_for",
    "source_amplitudes",
    "squeezed_amplitudes",
]

COHERENT_TAIL_BOUND = 1e-10
PAIR_SOURCES = ("chi", "vacuum_mixed", "spdc")
SPDC_WEIGHTINGS = ("paper", "exact")


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class ScsSpec:
    """Superposition of coherent states N (|alpha> + e^{i phi} |-alpha>)."""

    alpha: float
    phi: float

    def __post_init__(self) -> None:
        nonnegative("alpha", self.alpha)
        if abs(math.cos(real("phi", self.phi)) + 1.0) < 1e-9 and self.alpha <= 1e-6:
            raise ValidationError(
                "odd superposition normalization diverges for alpha <= 1e-6"
            )

    @property
    def normalization(self) -> float:
        return n_phi(self.alpha, self.phi)


@dataclass(frozen=True)
class SqueezedPhotonSpec:
    """Squeezed single photon with squeezing s, summation cutoff n_cut.

    The state populates odd occupations 1, 3, ..., 2 n_cut + 1.
    """

    s: float
    n_cut: int = 7

    def __post_init__(self) -> None:
        nonnegative("s", self.s)
        if integer("n_cut", self.n_cut) < 1:
            raise ValidationError(f"n_cut must be >= 1, got {self.n_cut!r}")

    @property
    def fock_cutoff(self) -> int:
        return 2 * self.n_cut + 1

    def check_cutoff(self, cutoff: int) -> None:
        """Raises CutoffError unless a mode of `cutoff` holds the expansion."""
        if cutoff < self.fock_cutoff:
            raise CutoffError(
                f"squeezed single photon with n_cut={self.n_cut} needs mode "
                f"cutoff >= {self.fock_cutoff}, got {cutoff}"
            )


@dataclass(frozen=True)
class PairSourceSpec:
    """Photon-pair source: ideal Bell pair, vacuum-mixed, or parametric
    (`PAIR_SOURCES`)."""

    variant: str
    z: float = 1.0
    lam: float = 0.0
    order_max: int = 2
    weighting: str = "paper"

    def __post_init__(self) -> None:
        choice("pair_source", self.variant, PAIR_SOURCES)
        if self.variant == "vacuum_mixed" and not 0.0 < real("z", self.z) <= 1.0:
            raise ValidationError(f"pair weight z={self.z} outside (0, 1]")
        if self.variant == "spdc":
            interaction_strength(self.lam)
            if integer("order_max", self.order_max) < 1:
                raise ValidationError(f"order_max must be >= 1, got {self.order_max!r}")
            choice("spdc_weighting", self.weighting, SPDC_WEIGHTINGS)

    def sector_weights(self) -> dict[int, float]:
        """The source as a mixture of unit n-pair terms |Phi_n>, weights w_n
        by n: {1: 1} for the Bell pair, {0: 1 - z, 1: z} for the
        vacuum-mixed pair and, for the parametric source, n <= order_max
        with 'paper' (1 - lam^2) lam^(2n), the terms of the paper's P_tot
        (arXiv:1410.6823), or 'exact' (1 - lam^2)^2 (n + 1) lam^(2n), two
        two-mode squeezers regrouped by pair number; not renormalized."""
        if self.variant == "chi":
            return {1: 1.0}
        if self.variant == "vacuum_mixed":
            return {0: 1.0 - self.z, 1: self.z}
        lam2 = self.lam * self.lam
        orders = range(self.order_max + 1)
        if self.weighting == "paper":
            return {n: (1.0 - lam2) * lam2**n for n in orders}
        return {n: (1.0 - lam2) ** 2 * (n + 1) * lam2**n for n in orders}


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


def coherent_cutoff_for(alpha: complex, tail: float = COHERENT_TAIL_BOUND) -> int:
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


def source_amplitudes(
    spec: ScsSpec | SqueezedPhotonSpec, cutoff: int, reach: int
) -> np.ndarray:
    """The beam source's amplitudes up to `reach` >= `cutoff` photons,
    normalized there, from one evaluation: the superposition of
    coherent states N (|alpha> + e^{i phi} |-alpha>) of an `ScsSpec`, or the
    squeezed single photon of a `SqueezedPhotonSpec`, renormalized after its
    summation cutoff. The source's cutoff contract holds at `cutoff`, on the
    first cutoff + 1 raw entries: the superposition's tail mass there is at
    most 1e-9, and the squeezed photon's 2 n_cut + 1 photons fit."""
    if isinstance(spec, ScsSpec):
        plus = coherent_amplitudes(spec.alpha, reach)
        minus = coherent_amplitudes(-spec.alpha, reach)
        amps = spec.normalization * (plus + np.exp(1j * spec.phi) * minus)
        lost = 1.0 - float(np.sum(np.abs(amps[: cutoff + 1]) ** 2))
        if lost > 1e-9:
            raise CutoffError(
                f"superposition tail mass {lost:.3e} too large; "
                f"need cutoff >= {coherent_cutoff_for(spec.alpha)}"
            )
    else:
        spec.check_cutoff(cutoff)
        amps = squeezed_amplitudes(spec, reach)
    return amps / float(np.linalg.norm(amps))


def squeezed_amplitudes(spec: SqueezedPhotonSpec, cutoff: int) -> np.ndarray:
    """Raw truncated amplitudes of the squeezed single photon.

    Occupation 2n+1 carries (tanh s)^n (cosh s)^{-3/2} sqrt((2n+1)!)/(2^n n!)
    for n = 0 .. n_cut; the vector is not renormalized.
    """
    spec.check_cutoff(cutoff)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    tanh_s = math.tanh(spec.s)
    cosh_s = math.cosh(spec.s)
    for n in range(spec.n_cut + 1):
        weight = (
            tanh_s**n
            / cosh_s**1.5
            * math.sqrt(math.factorial(2 * n + 1))
            / (2**n * math.factorial(n))
        )
        amps[2 * n + 1] = weight
    return amps
