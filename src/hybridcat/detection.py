"""Detector models and the scheme's herald patterns.

Detectors are diagonal in the Fock basis, so every POVM element is a vector
of weights d_k over photon number k. A herald pattern names one element per
measured mode; its joint weight on an occupation pattern is the product of
the modes' weights, which the pipeline pulls back onto a Gram matrix of the
measured factors of its state's terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .fock_core import Register

# Below this total probability a herald outcome is treated as impossible:
# the conditional state would be pure numerical noise.
HERALD_PROBABILITY_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class PovmElement:
    """Fock-diagonal POVM element: weights[k] is the outcome weight on |k>."""

    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("POVM weights must be a nonempty 1-d array")
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ValidationError("POVM weights must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def dim(self) -> int:
        return self.weights.size


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not (0.0 <= eta <= 1.0):
        raise ValidationError(f"detector efficiency must be in [0, 1], got {eta}")
    return eta


def povm_pnr(n: int, eta: float, cutoff: int) -> PovmElement:
    """Photon-number-resolving outcome "n photons seen" at efficiency eta.

    With k photons present the detector registers n of them with probability
    C(k, n) eta^n (1 - eta)^(k - n); outcomes with n > k are impossible.
    Summed over n = 0..k this is a binomial distribution, so the full set of
    elements resolves the identity.
    """
    eta = _check_eta(eta)
    n = int(n)
    if n < 0:
        raise ValidationError("photon count n must be >= 0")
    if cutoff < 0:
        raise ValidationError("cutoff must be >= 0")
    weights = np.zeros(cutoff + 1)
    for k in range(n, cutoff + 1):
        weights[k] = math.comb(k, n) * eta**n * (1.0 - eta) ** (k - n)
    return PovmElement(weights, kind=f"pnr[{n}]")


def povm_click(eta: float, cutoff: int) -> PovmElement:
    """On/off detector "click" outcome at efficiency eta.

    With m photons present the no-click probability is (1 - eta)^m, so the
    click weight is 1 - (1 - eta)^m. Together with the n = 0 PNR element
    (which is the same thing as "no click") the pair sums to the identity.
    """
    eta = _check_eta(eta)
    if cutoff < 0:
        raise ValidationError("cutoff must be >= 0")
    ms = np.arange(cutoff + 1)
    weights = 1.0 - (1.0 - eta) ** ms
    return PovmElement(weights, kind="click")


@dataclass(frozen=True)
class HeraldSpec:
    """Joint herald pattern: one POVM element per measured mode label."""

    elements: Tuple[Tuple[str, PovmElement], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.elements]
        if not labels:
            raise ValidationError("herald spec needs at least one measured mode")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate measured modes in {labels}")

    @property
    def measured_labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.elements)


def build_scheme_herald(
    register: Register,
    detector: str,
    eta: float,
    flipped: bool = False,
) -> HeraldSpec:
    """Herald spec for the four detector channels of the scheme.

    The plain pattern asks for one photon in each of 5V and 6H and nothing
    in 5H and 6V; `flipped` swaps the roles (5H and 6V fire instead). With
    `detector="pnr"` the bright channels use the exact one-photon outcome;
    with `detector="onoff"` they use the click outcome. Dark channels always
    use the zero-photon outcome, which is the same element for both detector
    types.
    """
    if detector not in ("pnr", "onoff"):
        raise ValidationError(f"unknown detector type {detector!r}")
    bright = ("5H", "6V") if flipped else ("5V", "6H")
    dark = ("5V", "6H") if flipped else ("5H", "6V")
    elements = []
    for label in ("5H", "5V", "6H", "6V"):
        if label not in register:
            raise ValidationError(
                f"register {register!r} lacks detector channel {label!r}"
            )
        cutoff = register.mode(label).cutoff
        if label in bright:
            if detector == "pnr":
                element = povm_pnr(1, eta, cutoff)
            else:
                element = povm_click(eta, cutoff)
        else:
            element = povm_pnr(0, eta, cutoff)
        elements.append((label, element))
    return HeraldSpec(tuple(elements))
