"""State-quality metrics: target overlap fidelity and entanglement negativity.

`matrix_negativity` eigensolves the partial transpose of a square matrix
over a C-ordered (dim_a, rest) index, after checking its dimension against
`MAX_NEGATIVITY_DIM`. `negativity` calls it on a density operator's full
register; the pipeline calls it on the heralded state in its term basis, a
local isometry of the register that leaves the value unchanged (Vidal &
Werner, PRA 65, 032314 (2002)). `target_field_vectors` gives the target's
two field vectors, which `target_hybrid` places on the register and the
pipeline projects into its term basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .fock_core import DensityOperator, PureState, Register
from .resource_states import coherent_amplitudes

# Eigensolves above this dimension get slow and memory hungry; refuse
# instead of silently grinding.
MAX_NEGATIVITY_DIM = 4096


def target_field_vectors(alpha_f: float, phi: float, cutoff: int):
    """The hybrid target's field vectors next to |1, 0> and |0, 1> on
    (A_H, A_V): |alpha_f> / sqrt(2) and e^(i phi) |-alpha_f> / sqrt(2), both
    truncated at `cutoff` and scaled by one factor so that their squared
    norms sum to one.

    The polarization branches are orthogonal, so the ideal norm is exactly
    one; truncating the coherent tails changes it by less than 1e-10 when
    the field cutoff is adequate.
    """
    plus = coherent_amplitudes(alpha_f, cutoff) / np.sqrt(2.0)
    minus = np.exp(1j * phi) * coherent_amplitudes(-alpha_f, cutoff) / np.sqrt(2.0)
    norm = np.linalg.norm((plus, minus))
    return plus / norm, minus / norm


def target_hybrid(
    alpha_f: float,
    phi: float,
    register: Register,
    labels: Tuple[str, str, str] = ("A_H", "A_V", "B"),
) -> PureState:
    """Hybrid entangled target: one photon in the first polarization mode
    next to |alpha_f> on the field mode, plus e^(i phi) times the flipped
    polarization next to |-alpha_f>, normalized after truncation (see
    `target_field_vectors`)."""
    label_h, label_v, label_b = labels
    for label in labels:
        register.axis(label)
    if set(register.labels) != set(labels):
        raise ValidationError(
            f"target register must have exactly the modes {labels}, "
            f"got {register.labels}"
        )
    if register.mode(label_h).cutoff < 1 or register.mode(label_v).cutoff < 1:
        raise ValidationError("polarization modes need cutoff >= 1")

    ordered = register.subset(labels)
    amps = np.zeros(ordered.dims, dtype=np.complex128)
    amps[1, 0, :], amps[0, 1, :] = target_field_vectors(
        alpha_f, phi, register.mode(label_b).cutoff
    )
    return PureState(ordered, amps, copy=False).reordered(register.labels)


def fidelity(rho: DensityOperator, target: PureState) -> float:
    """Overlap <target| rho |target>, assuming a normalized target."""
    if rho.register != target.register:
        if set(rho.register.labels) == set(target.register.labels):
            target = target.reordered(rho.register.labels)
            if rho.register != target.register:
                raise ValidationError(
                    "fidelity operands have matching labels but different "
                    "cutoffs"
                )
        else:
            raise ValidationError(
                f"fidelity operands live on different registers: "
                f"{rho.register!r} vs {target.register!r}"
            )
    return float(rho.expectation(target))


@dataclass(frozen=True)
class Bipartition:
    """Split of a register's modes into two disjoint groups."""

    part_a: Tuple[str, ...]
    part_b: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "part_a", tuple(self.part_a))
        object.__setattr__(self, "part_b", tuple(self.part_b))
        overlap = set(self.part_a) & set(self.part_b)
        if overlap:
            raise ValidationError(f"bipartition parts overlap on {sorted(overlap)}")
        if not self.part_a or not self.part_b:
            raise ValidationError("both bipartition parts must be nonempty")

    def validate_against(self, register: Register) -> None:
        combined = set(self.part_a) | set(self.part_b)
        if combined != set(register.labels):
            raise ValidationError(
                f"bipartition {self.part_a} | {self.part_b} does not cover "
                f"register {register.labels}"
            )


def _transpose_first(matrix: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transpose of a (dim_a dim_b)-square matrix over the first
    tensor factor of its C-ordered index."""
    block = matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    swapped = np.ascontiguousarray(block.transpose(2, 1, 0, 3))
    return swapped.reshape(dim_a * dim_b, dim_a * dim_b)


def matrix_negativity(matrix: np.ndarray, dim_a: int) -> float:
    """Negativity of a square matrix over a C-ordered (dim_a, rest) index:
    -2 times the sum of the negative eigenvalues of its partial transpose
    over the first factor. Refuses a dimension above `MAX_NEGATIVITY_DIM`
    before it forms the partial transpose."""
    dim = matrix.shape[0]
    if dim > MAX_NEGATIVITY_DIM:
        raise ValidationError(
            f"negativity eigensolve dimension {dim} exceeds the "
            f"{MAX_NEGATIVITY_DIM} limit"
        )
    eigenvalues = np.linalg.eigvalsh(_transpose_first(matrix, dim_a, dim // dim_a))
    negative_part = eigenvalues[eigenvalues < 0.0].sum()
    return float(max(-2.0 * negative_part, 0.0))


def _part_a_first(rho: DensityOperator, part_a: Sequence[str]):
    """rho reordered with part_a first, and the joint dimension of part_a."""
    part_a = tuple(part_a)
    rest = tuple(label for label in rho.register.labels if label not in set(part_a))
    for label in part_a:
        rho.register.axis(label)
    ordered = rho.reordered(part_a + rest)
    reg = ordered.register
    return ordered, int(np.prod([reg.mode(label).dim for label in part_a]))


def partial_transpose(rho: DensityOperator, part_a: Sequence[str]) -> DensityOperator:
    """Transpose the part_a indices of rho, leaving the rest alone.

    The result lives on the register reordered with part_a first. Applying
    the map twice gives back the (reordered) input.
    """
    ordered, dim_a = _part_a_first(rho, part_a)
    reg = ordered.register
    return DensityOperator(
        reg,
        _transpose_first(ordered.matrix, dim_a, reg.size // dim_a),
        check=False,
        copy=False,
    )


def negativity(rho: DensityOperator, partition: Bipartition) -> float:
    """Entanglement negativity: -2 times the sum of negative eigenvalues of
    the partial transpose. Zero for separable states; the target hybrid
    state gives sqrt(1 - e^(-4 alpha_f^2))."""
    partition.validate_against(rho.register)
    ordered, dim_a = _part_a_first(rho, partition.part_a)
    return matrix_negativity(ordered.matrix, dim_a)
