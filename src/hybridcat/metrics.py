"""State-quality metrics: target overlap fidelity and entanglement negativity.

`negativity` eigensolves the partial transpose on the full register.
`support_negativity` first projects onto a product subspace that holds the
state's support, a local isometry that leaves the negativity unchanged
(Vidal & Werner, PRA 65, 032314 (2002)), and eigensolves there. Both check
the dimension they eigensolve against `MAX_NEGATIVITY_DIM` before they
allocate anything.
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


def target_hybrid(
    alpha_f: float,
    phi: float,
    register: Register,
    labels: Tuple[str, str, str] = ("A_H", "A_V", "B"),
) -> PureState:
    """Hybrid entangled target: one photon in the first polarization mode
    next to |alpha_f> on the field mode, plus e^(i phi) times the flipped
    polarization next to |-alpha_f>, normalized after truncation.

    The polarization branches are orthogonal, so the ideal norm is exactly
    one; truncating the coherent tails changes it by less than 1e-10 when
    the field cutoff is adequate.
    """
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
    dims = ordered.dims
    amps = np.zeros(dims, dtype=np.complex128)
    plus = coherent_amplitudes(alpha_f, register.mode(label_b).cutoff)
    minus = coherent_amplitudes(-alpha_f, register.mode(label_b).cutoff)
    amps[1, 0, :] = plus / np.sqrt(2.0)
    amps[0, 1, :] = np.exp(1j * phi) * minus / np.sqrt(2.0)
    state = PureState(ordered, amps, copy=False).normalized()
    return state.reordered(register.labels)


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


def _check_dim(dim: int) -> None:
    if dim > MAX_NEGATIVITY_DIM:
        raise ValidationError(
            f"negativity eigensolve dimension {dim} exceeds the "
            f"{MAX_NEGATIVITY_DIM} limit"
        )


def _negative_mass(pt: np.ndarray) -> float:
    """-2 times the sum of the negative eigenvalues of a partial transpose."""
    eigenvalues = np.linalg.eigvalsh(pt)
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
    _check_dim(rho.register.size)
    return _negative_mass(partial_transpose(rho, partition.part_a).matrix)


def support_negativity(
    rho: DensityOperator,
    partition: Bipartition,
    basis_a: np.ndarray,
    basis_b: np.ndarray,
) -> float:
    """Negativity of rho on the product subspace span(basis_a) (x)
    span(basis_b), which must contain rho's support.

    The columns of basis_a are orthonormal vectors on the joint space of
    partition.part_a (C order over its labels, as listed), those of basis_b
    on the rest of the register (C order over the remaining labels in
    register order). Projecting onto their product is a local isometry, so
    it leaves the negativity unchanged (Vidal & Werner, PRA 65, 032314
    (2002)) while the eigensolve shrinks to dimension k_a k_b.
    """
    partition.validate_against(rho.register)
    (dim_a, k_a), (dim_b, k_b) = basis_a.shape, basis_b.shape
    _check_dim(k_a * k_b)
    ordered, part_dim = _part_a_first(rho, partition.part_a)
    if (dim_a, dim_b) != (part_dim, ordered.register.size // part_dim):
        raise ValidationError(
            f"support bases act on dimensions ({dim_a}, {dim_b}), the "
            f"bipartition has ({part_dim}, {ordered.register.size // part_dim})"
        )
    bra_a, bra_b = basis_a.conj().T, basis_b.conj().T

    def rows(matrix: np.ndarray) -> np.ndarray:
        # (basis_a (x) basis_b)^H applied to the rows, one factor at a time
        out = bra_a @ matrix.reshape(dim_a, -1)
        out = bra_b @ out.reshape(k_a, dim_b, -1)
        return out.reshape(k_a * k_b, -1)

    projected = rows(rows(ordered.matrix).conj().T).conj().T
    return _negative_mass(_transpose_first(projected, k_a, k_b))
