"""State-quality metrics: the hybrid target and the entanglement negativity.

`matrix_negativity` eigensolves the partial transpose of a square matrix
over a C-ordered (dim_a, rest) index, after checking its dimension against
`MAX_NEGATIVITY_DIM`. The pipeline calls it on the heralded state in its
term basis, a local isometry of the register that leaves the value
unchanged (Vidal & Werner, PRA 65, 032314 (2002)). `target_field_vectors`
gives the target's two field vectors, which the pipeline projects into its
term basis.
"""

from __future__ import annotations

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
