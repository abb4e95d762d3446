"""The dense second implementation of the scheme: the test oracle.

`run_scheme` never forms a joint state. This module does, mode by mode and
in the lab frame: `build_prestate` builds all eight modes right before
detection from the pair source (`pair_source`, with its idler displaced by
`apply_displacement`) and the beam (the source up to b + 2d photons,
rotated onto the diagonal by `polarization_rotation`, tapped by one
`apply_beam_splitter` per polarization, and its kept field projected onto
at most b photons), and `herald` heralds a click pattern on it by a
weighted partial trace over dense amplitudes. `target_hybrid`, `fidelity`
and `negativity` score the result on the full register, and
`bs_fock_coefficient` is a second, combinatorial form of the splitter
kernel. The tests and `selfcheck` compare `run_scheme` with these. Its
splitters apply the dense `two_mode_kernel`, which the run path never
builds; it shares the mixer amplitudes that kernel scatters, the displacement
matrices, the POVMs, the source amplitudes, the cutoffs and the pair
sources' sector weights with the run path, which never imports it. Every
pair source is the ensemble of its pair-number terms, so the mixture
`run_scheme` scores has this second, dense form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .detection import HERALD_PROBABILITY_FLOOR
from .errors import (
    CutoffError,
    HeraldImpossibleError,
    TruncationError,
    ValidationError,
    integer,
    nonnegative,
)
from .fock_core import DensityOperator, PureState, Register, build_register
from .metrics import matrix_negativity, target_field_vectors
from .optics import BsParams, displacement_matrix, transmissivity, two_mode_kernel
from .pipeline import ResolvedCutoffs, SchemeConfig, resolve_cutoffs
from .resource_states import PairSourceSpec, source_amplitudes

_PAIR_LABELS = ("A_H", "A_V", "2H", "2V")
_DETECTOR_RELABEL = {"2H": "5H", "2V": "5V", "4H": "6H", "4V": "6V"}
_SWAP_HV = str.maketrans("HV", "VH")


# ---------------------------------------------------------------------------
# dense states


class Ensemble:
    """Classical mixture of pure states with nonnegative weights.

    Weights are probabilities of preparation; they need not sum to one
    (heralding produces sub-normalized ensembles).
    """

    __slots__ = ("register", "branches")

    def __init__(self, register: Register, branches: Iterable):
        branches = tuple((float(w), state) for w, state in branches)
        for w, state in branches:
            if w < 0:
                raise ValidationError(f"ensemble weight {w} is negative")
            if state.register != register:
                raise ValidationError("ensemble branch register mismatch")
        self.register = register
        self.branches = branches

    @classmethod
    def pure(cls, state: PureState, weight: float = 1.0) -> "Ensemble":
        return cls(state.register, [(weight, state)])

    def __iter__(self):
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __repr__(self) -> str:
        return f"Ensemble({self.register!r}, {len(self.branches)} branches)"


def basis_state(register: Register,
                occupations: Union[Sequence[int], Mapping[str, int]]) -> PureState:
    """Unit-amplitude state on one occupation tuple.

    `occupations` is either a full tuple in register order or a mapping from
    labels to occupations (missing labels default to vacuum).
    """
    if isinstance(occupations, Mapping):
        for label in occupations:
            register.axis(label)
        occ = tuple(int(occupations.get(label, 0)) for label in register.labels)
    else:
        occ = tuple(int(n) for n in occupations)
        if len(occ) != len(register.dims):
            raise ValidationError(
                f"occupation tuple has {len(occ)} entries, register has "
                f"{len(register.dims)} modes"
            )
    for n, spec in zip(occ, register.modes):
        if n < 0 or n > spec.cutoff:
            raise CutoffError(
                f"occupation {n} outside [0, {spec.cutoff}] for mode "
                f"{spec.label!r}"
            )
    amps = np.zeros(register.dims, dtype=np.complex128)
    amps[occ] = 1.0
    return PureState(register, amps, copy=False)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; the mode labels must be disjoint."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValidationError(f"tensor factors share mode labels {sorted(overlap)}")
    register = Register(a.register.modes + b.register.modes)
    return PureState(register, np.multiply.outer(a.amps, b.amps), copy=False)


def _apply_axes(arr: np.ndarray, kernel: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply a square kernel to the listed axes of a tensor.

    The kernel indexes the flattened joint space of the listed axes with the
    first listed axis most significant.
    """
    ndim = arr.ndim
    axes = list(axes)
    order = axes + [k for k in range(ndim) if k not in axes]
    moved = np.transpose(arr, order)
    head_shape = moved.shape[: len(axes)]
    head = int(np.prod(head_shape))
    flat = np.ascontiguousarray(moved).reshape(head, -1)
    out = kernel @ flat
    out = out.reshape(head_shape + moved.shape[len(axes):])
    return np.transpose(out, np.argsort(order))


def apply(op, labels: Union[str, Sequence[str]], state: PureState) -> PureState:
    """Apply an operator to the listed target modes of a pure state.

    `op` is a square matrix over the joint truncated space of the targets
    (row index: first listed mode most significant).
    """
    if isinstance(labels, str):
        labels = (labels,)
    labels = tuple(labels)
    register = state.register
    axes = [register.axis(label) for label in labels]
    joint = int(np.prod([register.dims[a] for a in axes]))
    kernel = np.asarray(op, dtype=np.complex128)
    if kernel.shape != (joint, joint):
        raise ValidationError(
            f"kernel shape {kernel.shape} does not match joint dimension "
            f"{joint} of modes {labels}"
        )
    return PureState(register, _apply_axes(state.amps, kernel, axes), copy=False)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.register != b.register:
        raise ValidationError("inner product requires a common register")
    return complex(np.vdot(a.amps, b.amps))


def to_density(source) -> DensityOperator:
    """Full density operator of a pure state or ensemble."""
    if isinstance(source, PureState):
        vec = source.amps.reshape(-1, 1)
        return DensityOperator(source.register, vec @ vec.conj().T,
                               check=False, copy=False)
    if isinstance(source, Ensemble):
        mat = np.zeros((source.register.size, source.register.size),
                       dtype=np.complex128)
        for weight, state in source.branches:
            if weight:
                vec = state.amps.reshape(-1, 1)
                mat += weight * (vec @ vec.conj().T)
        return DensityOperator(source.register, mat, check=False, copy=False)
    raise ValidationError(f"cannot convert {type(source).__name__} to a density")


# ---------------------------------------------------------------------------
# photon pairs, mode by mode


def bell_chi(register: Register,
             labels: tuple = ("1H", "1V", "2H", "2V")) -> PureState:
    """Polarization Bell pair (|1001> + |0110>)/sqrt(2) on the four labeled
    modes of `register` (any other modes stay in vacuum)."""
    h1, v1, h2, v2 = labels
    for label in labels:
        if register.mode(label).cutoff < 1:
            raise CutoffError(f"mode {label!r} needs cutoff >= 1 for the pair")
    hv = basis_state(register, {h1: 1, v2: 1})
    vh = basis_state(register, {v1: 1, h2: 1})
    return (hv + vh) * (1.0 / math.sqrt(2.0))


def phi_state(n: int, register: Register,
              labels: tuple = ("1H", "1V", "2H", "2V")) -> PureState:
    """n-pair component of the parametric source.

    (n+1)^{-1/2} sum_m |m>_{1H} |n-m>_{1V} |n-m>_{2H} |m>_{2V}; the n = 0
    term is the vacuum and n = 1 is the Bell pair.
    """
    if n < 0:
        raise ValidationError(f"pair order must be >= 0, got {n}")
    h1, v1, h2, v2 = labels
    for label in labels:
        if register.mode(label).cutoff < n:
            raise CutoffError(
                f"mode {label!r} needs cutoff >= {n} for the {n}-pair component"
            )
    state = None
    for m in range(n + 1):
        term = basis_state(
            register, {h1: m, v1: n - m, h2: n - m, v2: m}
        )
        state = term if state is None else state + term
    return state * (1.0 / math.sqrt(n + 1.0))


def pair_source(spec: PairSourceSpec, register: Register,
                labels: tuple = ("1H", "1V", "2H", "2V")) -> Ensemble:
    """Photon-pair input as a weighted ensemble of pure states: one branch
    (w_n, `phi_state(n)`) per pair-number term of the source, w_n from
    `PairSourceSpec.sector_weights`. chi: the unit branch |Phi_1>, the Bell
    pair. vacuum_mixed: (1 - z, vacuum) and (z, |Phi_1>). spdc: the mixture
    of its n-pair terms |Phi_n>, the dense form of the model `run_scheme`
    scores.
    """
    return Ensemble(
        register,
        [(w, phi_state(n, register, labels)) for n, w in spec.sector_weights().items()],
    )


# ---------------------------------------------------------------------------
# linear optics on a state


def bs_fock_coefficient(n: int, m: int, p: int, q: int, t: float) -> float:
    """Combinatorial beam-splitter coefficient B_pq for |n, m> input.

    B_pq = [C(n,p) C(m,q) t^(p+q) r^(n+m-p-q)]^(1/2) (-1)^(n-p), with p
    photons transmitted out of n and q transmitted out of m. Squared over
    all (p, q) it sums to one; it is the full output amplitude only when one
    input port is empty, since it omits the bosonic normalization of
    multiply occupied output modes (see `optics.two_mode_kernel`).
    """
    for name, value in (("n", n), ("m", m), ("p", p), ("q", q)):
        nonnegative(name, value, integer)
    if p > n or q > m:
        raise ValidationError(f"need p <= n and q <= m, got {(n, m, p, q)}")
    t = transmissivity(t)
    r = 1.0 - t
    value = math.comb(n, p) * math.comb(m, q) * t ** (p + q) * r ** (n + m - p - q)
    return math.sqrt(value) * (-1.0) ** (n - p)


def apply_beam_splitter(state: PureState, mode_i: str, mode_j: str,
                        params: BsParams) -> PureState:
    """Mix two modes with a beam splitter (see `optics` for the signs)."""
    register = state.register
    kernel = two_mode_kernel(
        params.scattering_matrix(),
        register.mode(mode_i).dim,
        register.mode(mode_j).dim,
    )
    return apply(kernel, (mode_i, mode_j), state)


def polarization_rotation(state: PureState, mode_h: str, mode_v: str,
                          angle: float) -> PureState:
    """Rotate the polarization basis of one spatial mode by `angle`.

    Number-conserving two-mode mixing with the real rotation matrix
    [[cos, sin], [-sin, cos]] on (mode_h, mode_v): at +45 degrees a
    diagonally polarized beam (equal H and V components) maps onto H.
    """
    c, s = math.cos(angle), math.sin(angle)
    scattering = np.array([[c, s], [-s, c]], dtype=np.complex128)
    register = state.register
    kernel = two_mode_kernel(
        scattering, register.mode(mode_h).dim, register.mode(mode_v).dim
    )
    return apply(kernel, (mode_h, mode_v), state)


def apply_displacement(state: PureState, mode: str, alpha: complex) -> PureState:
    """Displace one mode of a state by alpha."""
    kernel = displacement_matrix(alpha, state.register.mode(mode).cutoff)
    return apply(kernel, (mode,), state)


# ---------------------------------------------------------------------------
# heralding


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of heralding: total probability, conditional state, and the
    per-branch probabilities of the measured ensemble."""

    probability: float
    post: Optional[DensityOperator]
    branch_probabilities: Tuple[float, ...]


def flipped_pattern(pattern: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """The pattern with H and V swapped in its mode labels, in the same
    label order: `detection.herald_pattern`'s plain pattern (5V and 6H
    fire) becomes the flipped one (5H and 6V fire), which the run path
    never heralds and the symmetry checks compare against."""
    return {label: pattern[label.translate(_SWAP_HV)] for label in pattern}


def _joint_weights(register: Register, pattern: Mapping[str, np.ndarray]) -> np.ndarray:
    """Joint POVM weight of every occupation pattern of the measured modes,
    flattened in C order over the pattern's labels."""
    weights = np.ones(1)
    for label, element in pattern.items():
        dim = register.mode(label).dim
        if len(element) != dim:
            raise ValidationError(
                f"POVM element on {label!r} has dimension {len(element)}, "
                f"mode needs {dim}"
            )
        weights = np.multiply.outer(weights, element)
    return weights.ravel()


def _branch_contribution(state: PureState, pattern: Mapping[str, np.ndarray],
                         kept: Sequence[str]):
    """Probability and unnormalized conditional matrix for one pure branch,
    contracted on the kept states it populates (an n-pair branch fills
    only the signal states of n photons)."""
    weights = _joint_weights(state.register, pattern)
    ordered = state.reordered(tuple(kept) + tuple(pattern))
    size = state.register.subset(kept).size
    matrix = ordered.amps.reshape(size, -1)
    support = np.flatnonzero(matrix.any(axis=1))
    matrix = matrix[support]
    probability = float((np.abs(matrix) ** 2).sum(axis=0) @ weights)
    block = (matrix * weights) @ matrix.conj().T
    conditional = np.zeros((size, size), dtype=np.complex128)
    conditional[np.ix_(support, support)] = 0.5 * (block + block.conj().T)
    return probability, conditional


def herald(source: Union[PureState, Ensemble],
           pattern: Mapping[str, np.ndarray]) -> HeraldResult:
    """Apply a joint herald pattern and return the conditional state.

    `pattern` maps each measured mode label to its Fock-diagonal POVM
    weights (see `detection.herald_pattern`); the joint weight of an
    occupation pattern is the product over measured modes. The conditional
    density operator on the kept modes is the weighted partial trace,
    renormalized by the total success probability. Raises
    HeraldImpossibleError when that probability is below the floor.
    """
    if isinstance(source, PureState):
        source = Ensemble.pure(source)
    if not isinstance(source, Ensemble):
        raise ValidationError(f"cannot herald a {type(source).__name__}")
    kept = [x for x in source.register.labels if x not in pattern]
    if not kept:
        raise ValidationError("herald would measure every mode; keep at least one")
    kept_register = source.register.subset(kept)
    total = 0.0
    accumulated = np.zeros((kept_register.size,) * 2, dtype=np.complex128)
    branch_probs = []
    for weight, state in source:
        prob, conditional = _branch_contribution(state, pattern, kept)
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


# ---------------------------------------------------------------------------
# scores on the full register


def target_hybrid(
    alpha_f: float,
    phi: float,
    register: Register,
    labels: Tuple[str, str, str] = ("A_H", "A_V", "B"),
) -> PureState:
    """Hybrid entangled target: one photon in the first polarization mode
    next to |alpha_f> on the field mode, plus e^(i phi) times the flipped
    polarization next to |-alpha_f>, normalized after truncation (see
    `metrics.target_field_vectors`)."""
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


def negativity(rho: DensityOperator, partition: Bipartition) -> float:
    """Entanglement negativity: -2 times the sum of negative eigenvalues of
    the partial transpose, eigensolved on the full register. Zero for
    separable states; the target hybrid state gives
    sqrt(1 - e^(-4 alpha_f^2))."""
    partition.validate_against(rho.register)
    part_a = tuple(partition.part_a)
    rest = tuple(label for label in rho.register.labels if label not in part_a)
    ordered = rho.reordered(part_a + rest)
    dim_a = int(np.prod([ordered.register.mode(label).dim for label in part_a]))
    return matrix_negativity(ordered.matrix, dim_a)


# ---------------------------------------------------------------------------
# the scheme's eight modes before detection


def _each_branch(config: SchemeConfig, branches, op, *args):
    """`op(state, *args)` on every (weight, state) branch, the probability
    it loses to the cutoffs gated at `tail_tol` as `run_scheme` gates the
    pair sectors' deficits: branch by branch for a mixture, the worst
    sector's rule, and over the weighted branches, sum_n w_n lost_n /
    sum_n w_n before_n, for downconversion."""
    out = [(weight, op(state, *args)) for weight, state in branches]
    spdc = config.pair_source == "spdc"
    masses = [
        (weight if spdc else 1.0, state.norm() ** 2, after.norm() ** 2)
        for (weight, state), (_, after) in zip(branches, out)
    ]
    for group in [masses] if spdc else [[mass] for mass in masses]:
        before = sum(w * b for w, b, _ in group)
        lost = before - sum(w * a for w, _, a in group)
        if before > 0 and lost > config.tail_tol * before:
            raise TruncationError(
                f"{op.__name__} on {args[:-1]} lost {lost:.3e} of {before:.3e} "
                f"probability mass (tolerance {config.tail_tol:.1e})"
            )
    return out


def _pair_ensemble(config: SchemeConfig, cuts: ResolvedCutoffs) -> Ensemble:
    """The pair from `pair_source`, its idler displaced mode by mode by
    x / sqrt(2), x = sqrt(1 - t) alpha_i (the "diagonal" convention)."""
    cutoffs = (cuts.a, cuts.a, cuts.detector, cuts.detector)
    register = build_register(zip(_PAIR_LABELS, cutoffs))
    branches = pair_source(config.pair_spec(), register, labels=_PAIR_LABELS)
    amplitude = math.sqrt(1.0 - config.t) * config.resolved_alpha_i / math.sqrt(2.0)
    for mode in ("2H", "2V"):
        branches = _each_branch(config, branches, apply_displacement, mode, amplitude)
    return Ensemble(register, branches)


def build_prestate(config: SchemeConfig) -> Ensemble:
    """Joint state of all eight modes right before detection, in the lab
    polarization frame, ordered (A_H, A_V, 5H, 5V, 6H, 6V, B_H, B_V).

    Heralded with `herald`, it gives the pattern probabilities and
    conditional states of `run_scheme`'s term-basis herald, after rotating
    the B channels into the beam frame and projecting the empty channel
    out. It is built without `run_scheme`'s closed forms: the pair comes
    from `pair_source` with its idler displaced mode by mode, and the source
    beam, up to b + 2d photons (b the field and d the detector cutoff, so
    that no photon the taps keep is cut before them), is rotated from B_H
    onto the diagonal of (B_H, B_V) and each polarization tapped by its own
    splitter; the kept field is then projected onto at most b photons, the
    (B_H, B_V) cutoffs. Each stage's truncation is gated per pair branch
    as `_each_branch` says. It shares the source amplitudes and their
    cutoff contracts (`source_amplitudes`, checked at b), the cutoffs and
    the sector weights (`PairSourceSpec.sector_weights`) with the run path,
    not its closed forms.
    """
    cuts = resolve_cutoffs(config)
    reach = cuts.b + 2 * cuts.detector

    def beam_register(field: int) -> Register:
        taps = (("4H", cuts.detector), ("4V", cuts.detector))
        return build_register(taps + (("B_H", field), ("B_V", field)))

    register = beam_register(reach)
    amps = np.zeros(register.dims, dtype=np.complex128)
    amps[0, 0, :, 0] = source_amplitudes(config.source_spec(), cuts.b, reach)
    beam = polarization_rotation(
        PureState(register, amps, copy=False), "B_H", "B_V", -math.pi / 4.0
    )
    # the beam is one unit branch, for which both gating rules agree
    beam = [(1.0, beam)]
    tap = BsParams.from_transmissivity(config.t)
    for reflected, kept in (("4H", "B_H"), ("4V", "B_V")):
        beam = _each_branch(config, beam, apply_beam_splitter, reflected, kept, tap)
    ((_, beam),) = beam
    # at most b photons in the kept field, which then fit (B_H, B_V) at b
    photons = np.add.outer(np.arange(reach + 1), np.arange(reach + 1))
    kept = np.where(photons <= cuts.b, beam.amps, 0.0)[..., : cuts.b + 1, : cuts.b + 1]
    beam = PureState(beam_register(cuts.b), kept, copy=False)
    half = BsParams.from_transmissivity(0.5)
    joint = [(w, tensor(state, beam)) for w, state in _pair_ensemble(config, cuts)]
    for tap, idler in (("4H", "2H"), ("4V", "2V")):
        joint = _each_branch(config, joint, apply_beam_splitter, tap, idler, half)
    branches = [(w, state.relabeled(_DETECTOR_RELABEL)) for w, state in joint]
    return Ensemble(branches[0][1].register, branches)
