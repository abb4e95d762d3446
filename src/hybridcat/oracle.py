"""The dense second implementation of the scheme: the test oracle.

`run_scheme` never forms a joint state. This module does, on plain complex
arrays with one axis per mode of `MODES`, mode by mode. `lab_frame_beam`
builds the tapped beam: the source up to b + 2d photons, rotated onto the
diagonal of (B_H, B_V) by `rotation`, tapped by one splitter per
polarization, its kept field projected onto at most b photons and turned
back into the beam frame. `pair_source` gives a config's pair as the
mixture of its pair-number terms, a list of (weight, amplitudes) branches.
`herald_patterns` displaces each branch's idler mode by mode, interferes
it with the taps on the two 50:50 splitters and heralds both click
patterns by `herald`, a weighted partial trace. Every operator comes from
`optics` and acts on its axes: `mix` applies the splitter's amplitudes
(`mixer_amplitudes`) one photon-number total at a time, and the
displacement is `displacement_matrix` contracted with one axis.
`bs_fock_coefficient` is a second, combinatorial form of the splitter's
amplitudes, and `target_hybrid` the target for scoring by `np.vdot`. The
tests and `selfcheck` compare `run_scheme` with these. The oracle shares
the mixer amplitudes, the displacement matrices, the POVMs, the source
amplitudes, the cutoffs and the pair sources' sector weights with the run
path, which never imports it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Mapping, Sequence, Tuple

import numpy as np

from .detection import HERALD_PROBABILITY_FLOOR, herald_pattern
from .errors import (
    HeraldImpossibleError,
    TruncationError,
    ValidationError,
    integer,
    nonnegative,
)
from .metrics import target_field_vectors
from .optics import (
    displacement_matrix,
    mixer_amplitudes,
    rotation,
    splitter,
    transmissivity,
)
from .pipeline import SchemeConfig, resolve_cutoffs
from .resource_states import sector_weights, source_amplitudes

# The axes of the dense state. Before the 50:50 splitters, axes 2-5 hold
# the idler modes 2H and 2V and the tap modes 4H and 4V; the splitters turn
# (4H, 2H) into (6H, 5H) and (4V, 2V) into (6V, 5V) in place.
MODES = ("A_H", "A_V", "5H", "5V", "6H", "6V", "B_H", "B_V")
_SWAP_HV = str.maketrans("HV", "VH")

# a mixture: (weight, amplitudes) branches
Branches = List[Tuple[float, np.ndarray]]


def mix(amps: np.ndarray, axes: Tuple[int, int], scattering: np.ndarray) -> np.ndarray:
    """The two listed axes mixed by a 2 x 2 scattering matrix (see `optics`
    for the signs), the first listed as mode i. The mixer conserves the
    photon-number total s, so each anti-diagonal (n, s - n) of the two axes
    maps onto (o, s - o) by the (s + 1)-square, or cutoff-clipped, block
    `mixer_amplitudes[n, s - n, o]`."""
    moved = np.moveaxis(amps, axes, (0, 1))
    dim_i, dim_j = moved.shape[:2]
    flat = moved.reshape(dim_i, dim_j, -1)
    amplitudes = mixer_amplitudes(scattering, dim_i, dim_j)
    out = np.zeros(flat.shape, dtype=np.complex128)
    for total in range(dim_i + dim_j - 1):
        n = np.arange(max(0, total - dim_j + 1), min(total, dim_i - 1) + 1)
        # the [o, n] block, o over the same range as n
        out[n, total - n] = amplitudes[n, total - n][:, n].T @ flat[n, total - n]
    return np.moveaxis(out.reshape(moved.shape), (0, 1), axes)


def bs_fock_coefficient(n: int, m: int, p: int, q: int, t: float) -> float:
    """Combinatorial beam-splitter coefficient B_pq for |n, m> input.

    B_pq = [C(n,p) C(m,q) t^(p+q) r^(n+m-p-q)]^(1/2) (-1)^(n-p), with p
    photons transmitted out of n and q transmitted out of m. Squared over
    all (p, q) it sums to one; it is the full output amplitude only when one
    input port is empty, since it omits the bosonic normalization of
    multiply occupied output modes (see `optics.mixer_amplitudes`).
    """
    for name, value in (("n", n), ("m", m), ("p", p), ("q", q)):
        nonnegative(name, value, integer)
    if p > n or q > m:
        raise ValidationError(f"need p <= n and q <= m, got {(n, m, p, q)}")
    t = transmissivity(t)
    r = 1.0 - t
    value = math.comb(n, p) * math.comb(m, q) * t ** (p + q) * r ** (n + m - p - q)
    return math.sqrt(value) * (-1.0) ** (n - p)


# ---------------------------------------------------------------------------
# photon pairs


def phi_state(n: int, dims: Sequence[int]) -> np.ndarray:
    """n-pair term of the parametric source on (A_H, A_V, 2H, 2V), of the
    given dimensions: (n+1)^{-1/2} sum_m |m, n-m>|n-m, m>. The n = 0 term
    is the vacuum and n = 1 the Bell pair (|1001> + |0110>)/sqrt(2)."""
    amps = np.zeros(dims, dtype=np.complex128)
    m = np.arange(n + 1)
    amps[m, n - m, n - m, m] = 1.0
    return amps * (1.0 / math.sqrt(n + 1.0))


def pair_source(config: SchemeConfig, dims: Sequence[int]) -> Branches:
    """The config's photon-pair input as a mixture: one branch (w_n,
    `phi_state(n)`) per pair-number term of its `pair_source`, w_n from
    `resource_states.sector_weights` at its z and lambda. chi: the unit
    branch |Phi_1>, the Bell pair. vacuum_mixed: (1 - z, vacuum) and
    (z, |Phi_1>). spdc: the mixture of its vacuum, one-pair and two-pair
    terms |Phi_n>, the dense form of the model `run_scheme` scores.
    """
    weights = sector_weights(config.pair_source, config.z, config.lam)
    return [(w, phi_state(n, dims)) for n, w in weights.items()]


# ---------------------------------------------------------------------------
# heralding


def flipped_pattern(pattern: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """The pattern with H and V swapped in its mode labels, in the same
    label order: `detection.herald_pattern`'s plain pattern (5V and 6H
    fire) becomes the flipped one (5H and 6V fire), which the run path
    never heralds and the symmetry checks compare against."""
    return {label: pattern[label.translate(_SWAP_HV)] for label in pattern}


def herald(branches: Branches, patterns: Sequence[Mapping[str, np.ndarray]]):
    """Herald a mixture of states on `MODES` by each click pattern of
    `patterns`, which maps each detector 5H, 5V, 6H, 6V to its
    Fock-diagonal POVM weights (see `detection.herald_pattern`); the joint
    weight of an occupation pattern is their product. Returns, per pattern,
    the total probability P and the conditional state of (A_H, A_V, B_H,
    B_V) as a matrix: the weighted partial trace over the detectors,
    divided by P. Each branch is moved to (kept, detector) order once for
    all the patterns, on the kept states it populates (an n-pair branch
    fills only the signal states of n photons). Raises
    HeraldImpossibleError when a pattern's P is below the floor.
    """
    dims = branches[0][1].shape
    for pattern in patterns:
        for axis, label in enumerate(MODES[2:6], 2):
            if len(pattern[label]) != dims[axis]:
                raise ValidationError(
                    f"POVM element on {label!r} has dimension "
                    f"{len(pattern[label])}, mode needs {dims[axis]}"
                )
    size = dims[0] * dims[1] * dims[6] * dims[7]
    # per branch: weight, populated kept states, their rows and the
    # detector occupations' probabilities
    rows = []
    for weight, amps in branches:
        matrix = amps.transpose(0, 1, 6, 7, 2, 3, 4, 5).reshape(size, -1)
        support = np.flatnonzero(matrix.any(axis=1))
        matrix = matrix[support]
        rows.append((weight, support, matrix, (np.abs(matrix) ** 2).sum(axis=0)))
    outcomes = []
    for pattern in patterns:
        weights = functools.reduce(np.multiply.outer, [pattern[x] for x in MODES[2:6]])
        weights = weights.ravel()
        total = 0.0
        accumulated = np.zeros((size, size), dtype=np.complex128)
        for weight, support, matrix, occupations in rows:
            probability = float(occupations @ weights)
            block = (matrix * weights) @ matrix.conj().T
            total += weight * probability
            # Hermitised, added on the branch's support alone
            hermitised = 0.5 * (block + block.conj().T)
            accumulated[np.ix_(support, support)] += weight * hermitised
        if total < HERALD_PROBABILITY_FLOOR:
            raise HeraldImpossibleError(
                f"herald pattern has probability {total:.3e}, below the "
                f"{HERALD_PROBABILITY_FLOOR:.0e} floor"
            )
        outcomes.append((float(total), accumulated / total))
    return outcomes


def target_hybrid(alpha_f: float, phi: float, dims: Sequence[int]) -> np.ndarray:
    """Hybrid entangled target on (A_H, A_V, B) of the given dimensions:
    one photon in A_H next to |alpha_f> on B, plus e^(i phi) times one in
    A_V next to |-alpha_f>, normalized after truncation (see
    `metrics.target_field_vectors`)."""
    amps = np.zeros(dims, dtype=np.complex128)
    amps[1, 0, :], amps[0, 1, :] = target_field_vectors(alpha_f, phi, dims[2] - 1)
    return amps


# ---------------------------------------------------------------------------
# the scheme's modes before detection


def _gated(config: SchemeConfig, branches: Branches, stage: str,
           op: Callable[[np.ndarray], np.ndarray]) -> Branches:
    """`op` on every branch, the probability it loses to the cutoffs gated
    at `tail_tol` as `run_scheme` gates the pair sectors' deficits: branch
    by branch for a mixture, the worst sector's rule, and over the weighted
    branches, sum_n w_n lost_n / sum_n w_n before_n, for downconversion."""
    out = [(weight, op(amps)) for weight, amps in branches]
    spdc = config.pair_source == "spdc"
    masses = [
        (weight if spdc else 1.0, np.linalg.norm(amps) ** 2, np.linalg.norm(after) ** 2)
        for (weight, amps), (_, after) in zip(branches, out)
    ]
    for group in [masses] if spdc else [[mass] for mass in masses]:
        before = sum(w * b for w, b, _ in group)
        lost = before - sum(w * a for w, _, a in group)
        if before > 0 and lost > config.tail_tol * before:
            raise TruncationError(
                f"{stage} lost {lost:.3e} of {before:.3e} probability mass "
                f"(tolerance {config.tail_tol:.1e})"
            )
    return out


def lab_frame_beam(config: SchemeConfig) -> np.ndarray:
    """The tapped beam on (4H, 4V, B_H, B_V), built without `run_scheme`'s
    closed form, in the beam frame: B_H the field B, B_V its empty
    polarization. The source, up to b + 2d photons (b the field and d the
    detector cutoff, so that no photon the taps keep is cut before them),
    is rotated from B_H onto the diagonal of (B_H, B_V), each polarization
    tapped by its own splitter, the kept field projected onto at most b
    photons, the (B_H, B_V) cutoffs, and rotated back. Each tap's
    truncation is gated as `_gated` says. It shares the source amplitudes
    and their cutoff contracts (`source_amplitudes`, checked at b) and the
    cutoffs with the run path."""
    cuts = resolve_cutoffs(config)
    reach = cuts.b + 2 * cuts.detector
    amps = np.zeros((cuts.detector + 1,) * 2 + (reach + 1,) * 2, dtype=np.complex128)
    amps[0, 0, :, 0] = source_amplitudes(
        config.resolved_alpha_i, config.phi, config.s, cuts.b, reach
    )
    # the beam is one unit branch, for which both gating rules agree
    beam = [(1.0, mix(amps, (2, 3), rotation(-math.pi / 4.0)))]
    tap = splitter(config.t)
    for p, axes in zip("HV", ((0, 2), (1, 3))):
        beam = _gated(config, beam, f"the {p} tap", lambda a: mix(a, axes, tap))
    ((_, beam),) = beam
    photons = np.add.outer(np.arange(reach + 1), np.arange(reach + 1))
    kept = np.where(photons <= cuts.b, beam, 0.0)[..., : cuts.b + 1, : cuts.b + 1]
    return mix(kept, (2, 3), rotation(math.pi / 4.0))


def herald_patterns(config: SchemeConfig):
    """Both click patterns, plain then flipped, heralded on the dense state
    of `MODES`: per pattern, P and the post-state of (A_H, A_V, B) and the
    beam's empty polarization B_V, as an (n, b + 1, n, b + 1) array with
    n = (a + 1)^2 (b + 1), the flipped pattern's post un-flipped (A_H and
    A_V swapped back). `post[:, 0, :, 0]` is the part `run_scheme`
    reports. The pair comes from `pair_source`, its idler displaced mode by
    mode by x / sqrt(2), x = sqrt(1 - t) alpha_i (the "diagonal"
    convention), and is joined to `lab_frame_beam`; each displacement and
    each 50:50 splitter is gated per pair branch as `_gated` says."""
    cuts = resolve_cutoffs(config)
    beam = lab_frame_beam(config)
    dims = (cuts.a + 1,) * 2 + (cuts.detector + 1,) * 2
    pair = pair_source(config, dims)
    amplitude = math.sqrt(1.0 - config.t) * config.resolved_alpha_i / math.sqrt(2.0)
    shift = displacement_matrix(amplitude, cuts.detector)
    for p, axis in zip("HV", (2, 3)):
        pair = _gated(config, pair, f"displacing 2{p}",
                      lambda a: np.moveaxis(np.tensordot(shift, a, axes=(1, axis)), 0, axis))
    joint = [(w, np.multiply.outer(amps, beam)) for w, amps in pair]
    half = splitter(0.5)
    for p, axes in zip("HV", ((4, 2), (5, 3))):
        joint = _gated(config, joint, f"the {p} 50:50 splitter", lambda a: mix(a, axes, half))
    pattern = herald_pattern(config.detector, config.eta, cuts.detector)
    n, e = (cuts.a + 1) ** 2 * (cuts.b + 1), cuts.b + 1
    (p_plain, plain), (p_flipped, flipped) = herald(
        joint, (pattern, flipped_pattern(pattern))
    )
    flipped = flipped.reshape(dims[:2] + (e, e) + dims[:2] + (e, e))
    flipped = flipped.transpose(1, 0, 2, 3, 5, 4, 6, 7)
    return [(p_plain, plain.reshape(n, e, n, e)), (p_flipped, flipped.reshape(n, e, n, e))]
