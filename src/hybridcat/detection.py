"""Detector models and the scheme's herald patterns.

Detectors are diagonal in the Fock basis, so every POVM element is a
read-only array of weights d_k over photon number k. A herald pattern maps
each measured mode label to one such array; its joint weight on an
occupation pattern is the product of the modes' weights, which the
pipeline pulls back onto a Gram matrix of the measured factors of its
state's terms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ValidationError, choice, integer, nonnegative, real

# Below this total probability a herald outcome is treated as impossible:
# the conditional state would be pure numerical noise.
HERALD_PROBABILITY_FLOOR = 1e-300
DETECTORS = ("pnr", "onoff")


def efficiency(eta) -> float:
    """A detector efficiency as a float: a number in [0, 1], the one range
    check every efficiency, a config's or a sweep point's, goes through."""
    eta = float(real("efficiency eta", eta))
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"efficiency eta must be in [0, 1], got {eta}")
    return eta


def _checked_cutoff(cutoff) -> int:
    return int(nonnegative("cutoff", cutoff, integer))


def povm_pnr(n: int, eta: float, cutoff: int) -> np.ndarray:
    """Photon-number-resolving outcome "n photons seen" at efficiency eta.

    With k photons present the detector registers n of them with probability
    C(k, n) eta^n (1 - eta)^(k - n); outcomes with n > k are impossible.
    Summed over n = 0..k this is a binomial distribution, so the full set of
    elements resolves the identity.
    """
    eta, cutoff = efficiency(eta), _checked_cutoff(cutoff)
    n = int(nonnegative("photon count n", n, integer))
    weights = np.zeros(cutoff + 1)
    # scalar powers, not numpy's array power, whose SIMD loop can differ in
    # the last bit (at eta = 0.9, n = 0 from k = 10 on) and so move the tables
    for k in range(n, cutoff + 1):
        weights[k] = math.comb(k, n) * eta**n * (1.0 - eta) ** (k - n)
    weights.setflags(write=False)
    return weights


def povm_click(eta: float, cutoff: int) -> np.ndarray:
    """On/off detector "click" outcome at efficiency eta.

    With m photons present the no-click probability is (1 - eta)^m, so the
    click weight is 1 - (1 - eta)^m. Together with the n = 0 PNR element
    (which is the same thing as "no click") the pair sums to the identity.
    """
    eta, cutoff = efficiency(eta), _checked_cutoff(cutoff)
    weights = 1.0 - (1.0 - eta) ** np.arange(cutoff + 1)
    weights.setflags(write=False)
    return weights


def herald_pattern(detector: str, eta: float, cutoff: int) -> Mapping[str, np.ndarray]:
    """Weights of the scheme's four detector channels 5H, 5V, 6H and 6V.

    The plain pattern asks for one photon in each of 5V and 6H and nothing
    in 5H and 6V; it is the one the run path heralds. With
    `detector="pnr"` the bright channels use the exact one-photon outcome;
    with `detector="onoff"` they use the click outcome (`DETECTORS`). Dark
    channels always use the zero-photon outcome, which is the same element
    for both detector types. The read-only mapping is cached per
    (detector, eta, cutoff).
    """
    detector = choice("detector", detector, DETECTORS)
    return _cached_pattern(detector, efficiency(eta), _checked_cutoff(cutoff))


@lru_cache(maxsize=256)
def _cached_pattern(detector: str, eta: float, cutoff: int) -> Mapping[str, np.ndarray]:
    dark = povm_pnr(0, eta, cutoff)
    bright = povm_pnr(1, eta, cutoff) if detector == "pnr" else povm_click(eta, cutoff)
    return MappingProxyType(
        {x: bright if x in ("5V", "6H") else dark for x in ("5H", "5V", "6H", "6V")}
    )
