"""Detector models and heralded post-selection.

Detectors are diagonal in the Fock basis, so every POVM element is a vector
of weights d_k over photon number k. Heralding on a joint outcome pattern
multiplies the diagonal weights of all measured modes into the state and
traces those modes out, producing the success probability and the
(normalized) conditional state on the kept modes. `herald` does this on a
dense state; `herald_factored` on a state given as a short sum of products
of kept-mode and measured-mode vectors, through a Gram matrix of the
measured factors.
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


def _joint_weights(register: Register, spec: HeraldSpec,
                   labels: Sequence[str]) -> np.ndarray:
    """Joint POVM weight of every occupation pattern of the listed measured
    modes, flattened in C order over `labels`."""
    elements = dict(spec.elements)
    weights = np.ones(1)
    for label in labels:
        element = elements[label]
        dim = register.mode(label).dim
        if element.dim != dim:
            raise ValidationError(
                f"POVM element on {label!r} has dimension {element.dim}, "
                f"mode needs {dim}"
            )
        weights = np.multiply.outer(weights, element.weights)
    return weights.ravel()


def _branch_contribution(state: PureState, spec: HeraldSpec):
    """Probability and unnormalized conditional matrix for one pure branch."""
    register = state.register
    measured = list(spec.measured_labels)
    kept = [label for label in register.labels if label not in set(measured)]
    if not kept:
        raise ValidationError("herald would measure every mode; keep at least one")

    weights = _joint_weights(register, spec, measured)
    ordered = state.reordered(tuple(kept) + tuple(measured))
    kept_dim = int(np.prod([register.mode(label).dim for label in kept]))
    matrix = ordered.amps.reshape(kept_dim, -1)

    probs_per_outcome = (np.abs(matrix) ** 2).sum(axis=0)
    probability = float(probs_per_outcome @ weights)
    conditional = (matrix * weights) @ matrix.conj().T
    return probability, conditional, kept


def _normalized_result(kept: Register, accumulated: np.ndarray, total: float,
                       branch_probs) -> HeraldResult:
    if total < HERALD_PROBABILITY_FLOOR:
        raise HeraldImpossibleError(
            f"herald pattern has probability {total:.3e}, below the "
            f"{HERALD_PROBABILITY_FLOOR:.0e} floor"
        )
    matrix = accumulated / total
    matrix = 0.5 * (matrix + matrix.conj().T)
    post = DensityOperator(kept, matrix, check=False, copy=False)
    return HeraldResult(
        probability=float(total),
        post=post,
        branch_probabilities=tuple(branch_probs),
    )


def herald(source: Union[PureState, Ensemble], spec: HeraldSpec) -> HeraldResult:
    """Apply a joint herald pattern and return the conditional state.

    Each measured mode contributes a diagonal weight; the joint weight of an
    occupation pattern is the product over measured modes. The conditional
    density operator on the kept modes is the weighted partial trace,
    renormalized by the total success probability. Raises
    HeraldImpossibleError when that probability is below the floor.

    This dense contraction is the reference that `herald_factored` is
    tested against.
    """
    if isinstance(source, PureState):
        source = Ensemble.pure(source)
    if not isinstance(source, Ensemble):
        raise ValidationError(f"cannot herald a {type(source).__name__}")

    total = 0.0
    accumulated = None
    branch_probs = []
    kept_labels = None
    for weight, state in source:
        prob, conditional, kept = _branch_contribution(state, spec)
        branch_probs.append(weight * prob)
        total += weight * prob
        if accumulated is None:
            accumulated = weight * conditional
            kept_labels = kept
        else:
            accumulated += weight * conditional
    return _normalized_result(
        source.register.subset(kept_labels), accumulated, total, branch_probs
    )


def herald_factored(
    branches: Sequence[Tuple[float, np.ndarray, np.ndarray]],
    kept: Register,
    measured: Register,
    spec: HeraldSpec,
) -> HeraldResult:
    """Herald an ensemble whose branches are given in factored form.

    Each branch is (weight, L, Z) with the unnormalized pure state
    sum_m L[:, m] (x) Z[m, :]: L has one column per term over the kept
    modes' joint space, Z one row per term over the measured modes' joint
    space (both C order over the registers' modes). With the Gram matrix
    G = Z diag(w) Z^H over the Fock-diagonal joint POVM weight w, the
    branch's conditional operator is L G L^H and its trace the branch's
    herald probability. The result matches `herald` on the expanded state
    up to roundoff.
    """
    if set(measured.labels) != set(spec.measured_labels):
        raise ValidationError(
            f"herald spec measures {spec.measured_labels}, factored state "
            f"has measured modes {measured.labels}"
        )
    weights = _joint_weights(measured, spec, measured.labels)
    total = 0.0
    accumulated = np.zeros((kept.size, kept.size), dtype=np.complex128)
    branch_probs = []
    for weight, left, right in branches:
        gram = (right * weights) @ right.conj().T
        conditional = left @ gram @ left.conj().T
        prob = float(np.trace(conditional).real)
        branch_probs.append(weight * prob)
        total += weight * prob
        accumulated += weight * conditional
    return _normalized_result(kept, accumulated, total, branch_probs)
