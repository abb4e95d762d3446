"""State-quality metrics: the hybrid target and the entanglement negativity.

`stacked_negativity` eigensolves the partial transposes of a stack of
square matrices over a C-ordered (dim_a, rest) index in one call, after
checking their dimension against `MAX_NEGATIVITY_DIM`; `matrix_negativity`
does one matrix. The pipeline calls it in the term basis, a local isometry
of the register that leaves the value unchanged (Vidal & Werner, PRA 65,
032314 (2002)), once per pair-number sector of the block-diagonal heralded
state, on each sector's unit-weight block over a preparation's
efficiencies; the blocks' values, weighted, sum to the state's.
`target_field_vectors` gives the target's field vectors.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import ValidationError
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


def _transpose_first(matrices: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transpose of stacked (dim_a dim_b)-square matrices over the
    first tensor factor of their C-ordered index."""
    count = len(matrices)
    block = matrices.reshape(count, dim_a, dim_b, dim_a, dim_b)
    swapped = np.ascontiguousarray(block.transpose(0, 3, 2, 1, 4))
    return swapped.reshape(count, dim_a * dim_b, dim_a * dim_b)


def stacked_negativity(matrices: np.ndarray, dim_a: int) -> Tuple[float, ...]:
    """Negativity of each square matrix of a stack (E, dim, dim) over a
    C-ordered (dim_a, rest) index: -2 times the sum of the negative
    eigenvalues of its partial transpose over the first factor, from one
    stacked eigensolve. Refuses a dimension above `MAX_NEGATIVITY_DIM`
    before it forms the partial transposes."""
    dim = matrices.shape[-1]
    if dim > MAX_NEGATIVITY_DIM:
        raise ValidationError(
            f"negativity eigensolve dimension {dim} exceeds the "
            f"{MAX_NEGATIVITY_DIM} limit"
        )
    if not len(matrices):
        return ()
    eigenvalues = np.linalg.eigvalsh(_transpose_first(matrices, dim_a, dim // dim_a))
    return tuple(float(max(-2.0 * ev[ev < 0.0].sum(), 0.0)) for ev in eigenvalues)


def matrix_negativity(matrix: np.ndarray, dim_a: int) -> float:
    """`stacked_negativity` of one square matrix."""
    (value,) = stacked_negativity(matrix[None], dim_a)
    return value
