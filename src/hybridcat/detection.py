"""Detector models and heralded post-selection.

Detectors are diagonal in the Fock basis, so every POVM element is a vector
of weights d_k over photon number k. Heralding on a joint outcome pattern
multiplies the diagonal weights of all measured modes into the state and
traces those modes out, producing the success probability and the
(normalized) conditional state on the kept modes. `herald` does this on a
dense state and is the test oracle of the pipeline, which heralds in the
basis of its state's terms instead: it pulls the POVM weights back onto a
Gram matrix of the measured factors and keeps the conditional state as a
small matrix over the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import HeraldImpossibleError, ValidationError
from .fock_core import DensityOperator, Ensemble, PureState, Register

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


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of heralding: total probability, conditional state, and the
    per-branch probabilities of the measured ensemble."""

    probability: float
    post: Optional[DensityOperator]
    branch_probabilities: Tuple[float, ...]


def _joint_weights(register: Register, spec: HeraldSpec) -> np.ndarray:
    """Joint POVM weight of every occupation pattern of the measured modes,
    flattened in C order over `spec.measured_labels`."""
    weights = np.ones(1)
    for label, element in spec.elements:
        dim = register.mode(label).dim
        if element.dim != dim:
            raise ValidationError(
                f"POVM element on {label!r} has dimension {element.dim}, "
                f"mode needs {dim}"
            )
        weights = np.multiply.outer(weights, element.weights)
    return weights.ravel()


def _branch_contribution(state: PureState, spec: HeraldSpec, kept: Sequence[str]):
    """Probability and unnormalized conditional matrix for one pure branch."""
    weights = _joint_weights(state.register, spec)
    ordered = state.reordered(tuple(kept) + spec.measured_labels)
    matrix = ordered.amps.reshape(state.register.subset(kept).size, -1)
    probability = float((np.abs(matrix) ** 2).sum(axis=0) @ weights)
    conditional = (matrix * weights) @ matrix.conj().T
    return probability, 0.5 * (conditional + conditional.conj().T)


def herald(source: Union[PureState, Ensemble], spec: HeraldSpec) -> HeraldResult:
    """Apply a joint herald pattern and return the conditional state.

    Each measured mode contributes a diagonal weight; the joint weight of an
    occupation pattern is the product over measured modes. The conditional
    density operator on the kept modes is the weighted partial trace,
    renormalized by the total success probability. Raises
    HeraldImpossibleError when that probability is below the floor.
    """
    if isinstance(source, PureState):
        source = Ensemble.pure(source)
    if not isinstance(source, Ensemble):
        raise ValidationError(f"cannot herald a {type(source).__name__}")
    kept = [x for x in source.register.labels if x not in spec.measured_labels]
    if not kept:
        raise ValidationError("herald would measure every mode; keep at least one")
    kept_register = source.register.subset(kept)
    total = 0.0
    accumulated = np.zeros((kept_register.size,) * 2, dtype=np.complex128)
    branch_probs = []
    for weight, state in source:
        prob, conditional = _branch_contribution(state, spec, kept)
        branch_probs.append(weight * prob)
        total += weight * prob
        accumulated += weight * conditional
    if total < HERALD_PROBABILITY_FLOOR:
        raise HeraldImpossibleError(
            f"herald pattern has probability {total:.3e}, below the "
            f"{HERALD_PROBABILITY_FLOOR:.0e} floor"
        )
    post = DensityOperator(kept_register, accumulated / total, check=False, copy=False)
    return HeraldResult(
        probability=float(total),
        post=post,
        branch_probabilities=tuple(branch_probs),
    )
