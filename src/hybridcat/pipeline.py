"""End-to-end simulation of the heralded hybrid-entanglement scheme.

The layout has four stages: a polarized superposition beam is tapped by a
transmissivity-t splitter, its reflected part interferes on a balanced
splitter with the displaced idler of a photon-pair source, the four
polarization-resolved detector channels are measured, and a joint click
pattern heralds the surviving polarization-qubit x field-mode state.

Mode labels: A_H/A_V hold the pair source's signal polarization, 2H/2V its
idler, 4H/4V the reflected tap of the beam, and B_H/B_V the transmitted
beam. After the balanced splitter the detector channels are relabeled
5H/5V (the idler side) and 6H/6V (the tap side); the kept field mode ends
up as B.

`run_scheme` never forms the joint state. The tapped beam is written in
closed form on (4H, 4V, B_H) and split into Schmidt factors, the pair as a
sum over pair-number sectors n written in closed form; the splitters act
only on idler x tap products and the herald contracts a small Gram matrix
of the plain click pattern; the flipped one follows by the state's H <-> V
mirror symmetry, which the dense oracle pins. Downconversion weights the
unit sector n by w_n = (1 - lambda^2) lambda^(2n), the paper's P_tot
normalization (arXiv:1410.6823), so P = sum_n w_n p_n; `tail_mass` is the
worst branch's deficit sum_n w_n d_n / sum_n w_n. Sweep rows of that source
skip the per-row herald and so leave negativity empty, which needs the
coherent post-state. The negativity is eigensolved on the post-state's
product support, the sectors' signal Fock states times the beam's right
singular vectors, which `_factors` knows exactly; restricting to it is a
local isometry and leaves the value unchanged.
`build_prestate`, the full eight-mode lab-frame state heralded with
`detection.herald`, is the dense test oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import analytic
from .detection import build_scheme_herald, herald_factored
from .errors import (
    CutoffError,
    HeraldImpossibleError,
    SimulationError,
    TruncationError,
    ValidationError,
)
from .fock_core import (
    DensityOperator,
    Ensemble,
    PureState,
    Register,
    build_register,
    log_factorials,
    tensor,
)
from .metrics import Bipartition, fidelity, support_negativity, target_hybrid
from .optics import (
    BsParams,
    DisplacementSpec,
    apply_beam_splitter,
    apply_displacement,
    displacement_matrix,
    polarization_rotation,
    required_displacement_cutoff,
    two_mode_kernel,
)
from .resource_states import (
    PairSourceSpec,
    ScsSpec,
    SqueezedPhotonSpec,
    coherent_cutoff_for,
    pair_source,
    scs,
    squeezed_single_photon,
)

SCS_SOURCES = ("ideal", "squeezed")
PAIR_SOURCES = ("chi", "vacuum_mixed", "spdc")
DETECTORS = ("pnr", "onoff")
SWEEP_AXES = ("alpha_f", "eta", "lambda", "s", "t", "z")

_PAIR_LABELS = ("A_H", "A_V", "2H", "2V")
_DETECTOR_RELABEL = {"2H": "5H", "2V": "5V", "4H": "6H", "4V": "6V"}


@dataclass(frozen=True)
class SchemeConfig:
    """Full parameter set for one simulation run.

    Exactly one of alpha_i (source amplitude) and alpha_f (target amplitude,
    alpha_i = alpha_f / sqrt(t)) must be given. Cutoffs left at None are
    chosen automatically from the amplitudes involved; explicit values are
    honored as-is and may trigger truncation failures.
    """

    t: float
    eta: float
    phi: float = math.pi
    alpha_i: Optional[float] = None
    alpha_f: Optional[float] = None
    scs_source: str = "ideal"
    s: Optional[float] = None
    n_cut: int = 7
    pair_source: str = "chi"
    z: Optional[float] = None
    lam: Optional[float] = None
    spdc_order: int = 2
    spdc_weighting: str = "paper"
    detector: str = "pnr"
    cutoff_a: Optional[int] = None
    cutoff_detector: Optional[int] = None
    cutoff_b: Optional[int] = None
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.t <= 1.0):
            raise ValidationError(f"transmissivity t must be in (0, 1], got {self.t}")
        if not (0.0 <= self.eta <= 1.0):
            raise ValidationError(f"efficiency eta must be in [0, 1], got {self.eta}")
        if not math.isfinite(self.phi):
            raise ValidationError("phase phi must be finite")
        if (self.alpha_i is None) == (self.alpha_f is None):
            raise ValidationError("give exactly one of alpha_i and alpha_f")
        amplitude = self.alpha_i if self.alpha_i is not None else self.alpha_f
        if not (math.isfinite(amplitude) and amplitude >= 0.0):
            raise ValidationError(f"amplitude must be finite and >= 0, got {amplitude}")
        if self.scs_source not in SCS_SOURCES:
            raise ValidationError(f"scs_source must be one of {SCS_SOURCES}")
        if self.scs_source == "squeezed":
            if self.s is None:
                raise ValidationError("squeezed source needs the squeezing s")
            SqueezedPhotonSpec(self.s, self.n_cut)
        elif self.s is not None:
            raise ValidationError("s only applies to the squeezed source")
        else:
            ScsSpec(self.resolved_alpha_i, self.phi)
        if self.pair_source not in PAIR_SOURCES:
            raise ValidationError(f"pair_source must be one of {PAIR_SOURCES}")
        if self.pair_source == "vacuum_mixed" and self.z is None:
            raise ValidationError("vacuum_mixed pair source needs z")
        if self.pair_source != "vacuum_mixed" and self.z is not None:
            raise ValidationError("z only applies to the vacuum_mixed pair source")
        if self.pair_source == "spdc" and self.lam is None:
            raise ValidationError("spdc pair source needs lambda")
        if self.pair_source != "spdc" and self.lam is not None:
            raise ValidationError("lambda only applies to the spdc pair source")
        # the source specs own the range checks of their parameters
        _pair_spec(self)
        if self.detector not in DETECTORS:
            raise ValidationError(f"detector must be one of {DETECTORS}")
        for name in ("cutoff_a", "cutoff_detector", "cutoff_b"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValidationError(f"{name} must be a positive integer")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValidationError("tail_tol must be in (0, 1)")

    @property
    def resolved_alpha_i(self) -> float:
        if self.alpha_i is not None:
            return float(self.alpha_i)
        return float(self.alpha_f) / math.sqrt(self.t)

    @property
    def resolved_alpha_f(self) -> float:
        if self.alpha_f is not None:
            return float(self.alpha_f)
        return float(self.alpha_i) * math.sqrt(self.t)


@dataclass(frozen=True)
class ResolvedCutoffs:
    a: int
    detector: int
    b: int


def resolve_cutoffs(config: SchemeConfig) -> ResolvedCutoffs:
    """Fock cutoffs for the three register groups.

    The pair-source polarization modes hold at most spdc_order photons. The
    detector channels see the tapped source field and the displacement,
    each of amplitude sqrt(r) alpha_i, so their cutoff covers the coherent
    sum of the two with the displacement operator's safety margin. The kept
    field mode holds the source beam, so it follows the coherent-tail bound
    (and the odd-photon expansion length for the squeezed source).
    """
    alpha_i = config.resolved_alpha_i
    x = math.sqrt(max(0.0, 1.0 - config.t)) * alpha_i

    if config.cutoff_a is not None:
        a = config.cutoff_a
    elif config.pair_source == "spdc":
        a = max(2, config.spdc_order)
    else:
        a = 2

    if config.cutoff_detector is not None:
        det = config.cutoff_detector
    else:
        det = max(4, required_displacement_cutoff(math.sqrt(2.0) * x))

    if config.cutoff_b is not None:
        b = config.cutoff_b
    else:
        b = max(14, coherent_cutoff_for(alpha_i, tail=1e-12))
        if config.scs_source == "squeezed":
            b = max(b, 2 * config.n_cut + 1)

    return ResolvedCutoffs(a=int(a), detector=int(det), b=int(b))


def _source_vector(config: SchemeConfig, cutoff: int) -> np.ndarray:
    if config.scs_source == "ideal":
        state = scs(ScsSpec(config.resolved_alpha_i, config.phi), cutoff, label="B_H")
    else:
        state = squeezed_single_photon(
            SqueezedPhotonSpec(config.s, config.n_cut), cutoff, label="B_H"
        )
    return state.amps


def _beam_state(config: SchemeConfig, cuts: ResolvedCutoffs) -> np.ndarray:
    """Beam after the tap splitter, amplitudes on (4H, 4V, B_H).

    The tap is polarization independent, so each source photon stays in the
    kept field with amplitude sqrt(t) and goes to either tap polarization
    with sqrt((1 - t) / 2):

        psi[j, k, m] = c_n sqrt(n! / (j! k! m!)) ((1 - t) / 2)^((j + k) / 2)
                       t^(m / 2),  n = j + k + m,

    with c the source vector, zero for n above the field cutoff, and j, k up
    to the detector cutoff: the box the lab-frame splitters of
    `build_prestate` keep, seen with the field in the beam's polarization.
    """
    j = np.arange(cuts.detector + 1)[:, None, None]
    k = j.reshape(1, -1, 1)
    m = np.arange(cuts.b + 1)
    n = j + k + m
    c = np.concatenate((_source_vector(config, cuts.b), np.zeros(2 * cuts.detector)))
    lg = log_factorials(c.size)
    multinomial = np.exp(0.5 * (lg[n] - lg[j] - lg[k] - lg[m]))
    # plain powers, not logarithms: at t = 1 the tap needs 0 ** 0 = 1
    tap = math.sqrt((1.0 - config.t) / 2.0) ** (j + k)
    return c[n] * multinomial * tap * math.sqrt(config.t) ** m


def _pair_spec(config: SchemeConfig) -> PairSourceSpec:
    if config.pair_source == "chi":
        return PairSourceSpec.chi()
    if config.pair_source == "vacuum_mixed":
        return PairSourceSpec.vacuum_mixed(config.z)
    return PairSourceSpec.spdc(config.lam, config.spdc_order, config.spdc_weighting)


def _displacement_amplitude(config: SchemeConfig) -> float:
    # the "diagonal" convention: x / sqrt(2) on each polarization component
    x = math.sqrt(max(0.0, 1.0 - config.t)) * config.resolved_alpha_i
    return x / math.sqrt(2.0)


def _pair_ensemble(config: SchemeConfig, cuts: ResolvedCutoffs) -> Ensemble:
    """The displaced pair built mode by mode, for the dense oracle."""
    cutoffs = (cuts.a, cuts.a, cuts.detector, cuts.detector)
    register = build_register(zip(_PAIR_LABELS, cutoffs))
    ensemble = pair_source(_pair_spec(config), register, labels=_PAIR_LABELS)
    amplitude = _displacement_amplitude(config)
    branches = []
    for weight, state in ensemble:
        for mode in ("2H", "2V"):
            state = apply_displacement(
                state, DisplacementSpec(amplitude, mode), tail_tol=config.tail_tol
            )
        branches.append((weight, state))
    return Ensemble(register, tuple(branches))


def _pair_branches(config: SchemeConfig):
    """The pair source as incoherent branches (weight, ((n, w), ...)): each
    branch is a coherent sum over consecutive pair-number sectors n, sector
    n entering with squared amplitude w (these sum to 1 within a branch)."""
    if config.pair_source == "chi":
        return ((1.0, ((1, 1.0),)),)
    if config.pair_source == "vacuum_mixed":
        return ((config.z, ((1, 1.0),)), (1.0 - config.z, ((0, 1.0),)))
    weights = _pair_spec(config).sector_weights()
    total = sum(weights)
    return ((total, tuple((n, w / total) for n, w in enumerate(weights))),)


@dataclass(frozen=True)
class SchemeResult:
    """One heralded run: success probability of both click patterns (twice
    the plain one's), the conditional state on (A_H, A_V, B), its overlap
    with the target, and the polarization/field negativity."""

    probability_total: float
    fidelity: float
    negativity: float
    post_state: DensityOperator
    diagnostics: Dict[str, object]


def _schmidt(matrix: np.ndarray):
    """SVD of `matrix` cut at its numerical rank (numpy's `matrix_rank`
    tolerance, s_max * max(shape) * eps), so the cut is exact to roundoff.

    Returns (u, s, vh, discarded) with matrix ~= (u * s) @ vh and
    `discarded` the squared singular mass that was cut.
    """
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    cut = s[0] * max(matrix.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.count_nonzero(s > cut))
    return u[:, :rank], s[:rank], vh[:rank], float(np.sum(s[rank:] ** 2))


def _interfere_factors(idler: np.ndarray, tap: np.ndarray, dim: int) -> np.ndarray:
    """Both 50:50 splitters applied to every product idler_k (x) tap_l.

    `idler` rows live on (2H, 2V), `tap` rows on (4H, 4V), each of cutoff
    dim - 1. Row k * len(tap) + l of the result is the image of the k-th
    idler and l-th tap factor on (6H, 5H, 6V, 5V).
    """
    kernel = two_mode_kernel(
        BsParams.from_transmissivity(0.5).scattering_matrix(), dim, dim
    )
    n_idler, n_tap = len(idler), len(tap)
    # H splitter on (4H, 2H): contract the idler's 2H index into the kernel
    # first, then the tap's 4H index
    half = kernel.reshape(dim**3, dim) @ idler.reshape(n_idler, dim, dim)
    half = half.reshape(n_idler, dim * dim, dim, dim).transpose(0, 1, 3, 2)
    taps = tap.reshape(n_tap, dim, dim).transpose(1, 0, 2).reshape(dim, -1)
    mixed = half.reshape(-1, dim) @ taps
    # rows (k, l, 6H 5H), columns (4V, 2V) for the V splitter
    mixed = mixed.reshape(n_idler, dim * dim, dim, n_tap, dim)
    mixed = mixed.transpose(0, 3, 1, 4, 2).reshape(-1, dim * dim)
    return (mixed @ kernel.T).reshape(n_idler * n_tap, dim**4)


@dataclass(frozen=True, eq=False)
class _Factors:
    """Efficiency- and lambda-independent state right before detection.

    The unit sector of pair number n is sum_m L[:, m] (x) Z[m, :] over
    m in `blocks[n]` (ascending in n), with L over `kept` = (A_H, A_V, B_H)
    and Z over `measured` = (6H, 5H, 6V, 5V); see `herald_factored`.
    `tails` holds the sectors' truncation deficits. Every column of L lies
    in span{|m, n - m> : `signal_states`} (x) span{rows of `beam_vh`}, the
    product support `run_scheme` scores the negativity on.
    """

    cuts: ResolvedCutoffs
    kept: Register
    measured: Register
    left: np.ndarray
    right: np.ndarray
    blocks: Mapping[int, slice]
    tails: Mapping[int, float]
    signal_states: np.ndarray
    beam_vh: np.ndarray
    discarded: float

    @property
    def beam_rank(self) -> int:
        return len(self.beam_vh)


def _factors_key(config: SchemeConfig) -> SchemeConfig:
    """Cache key of `_factors`: the config with eta and lambda
    canonicalised, since neither enters the unit sectors."""
    lam = None if config.lam is None else 0.0
    return dataclasses.replace(config, eta=1.0, lam=lam)


@lru_cache(maxsize=32)
def _factors(key: SchemeConfig) -> _Factors:
    """Schmidt-factored pre-detection sectors of one configuration.

    The displaced n-pair sector is written in closed form: signal factors
    |m, n - m> on (A_H, A_V) of weight (n + 1)^(-1/2) and idler factors
    D|n - m> (x) D|m> on (2H, 2V). The beam splits by SVD into tap (4H, 4V)
    against kept field B_H factors, and the splitters act only on the
    idler x tap products. A sector's deficit, 1 - ||sector||^2 plus the
    beam's discarded mass, counts the displacement's truncation too.
    """
    cuts = resolve_cutoffs(key)
    dim = cuts.detector + 1
    tap, beam_s, beam_vh, discarded = _schmidt(
        _beam_state(key, cuts).reshape(dim * dim, -1)
    )
    field = beam_s[:, None] * beam_vh
    disp = displacement_matrix(_displacement_amplitude(key), cuts.detector)
    numbers = sorted({n for _, terms in _pair_branches(key) for n, _ in terms})
    if numbers[-1] > min(cuts.a, cuts.detector):
        raise CutoffError(f"{numbers[-1]} pairs need cutoffs >= {numbers[-1]}")
    # pair factor k of sector n[k] has m[k] photons in A_H and in 2V
    n = np.concatenate([np.full(q + 1, q) for q in numbers])
    m = np.concatenate([np.arange(q + 1) for q in numbers])
    signal = np.zeros(((cuts.a + 1) ** 2, len(n)))
    signal_states = m * (cuts.a + 1) + n - m
    signal[signal_states, np.arange(len(n))] = (n + 1.0) ** -0.5
    idler = np.einsum("ik,jk->kij", disp[:, n - m], disp[:, m]).reshape(len(n), -1)
    left = np.einsum("ak,lb->abkl", signal, field)
    left = left.reshape(-1, len(n) * len(field))
    right = _interfere_factors(idler, tap.T, dim)
    for array in (left, right, signal_states, beam_vh):
        array.setflags(write=False)
    # summed over a block, this is the block's trace(L G L^H) at w = 1
    overlap = (right @ right.conj().T) * (left.T @ left.conj())
    starts = (np.searchsorted(n, numbers) * len(field)).tolist()
    blocks = {q: slice(a, a + (q + 1) * len(field)) for q, a in zip(numbers, starts)}
    tails = {
        q: max(0.0, 1.0 - float(overlap[b, b].sum().real)) + discarded
        for q, b in blocks.items()
    }

    kept = build_register((("A_H", cuts.a), ("A_V", cuts.a), ("B_H", cuts.b)))
    measured = build_register(
        (label, cuts.detector) for label in ("6H", "5H", "6V", "5V")
    )
    return _Factors(
        cuts=cuts,
        kept=kept,
        measured=measured,
        left=left,
        right=right,
        blocks=blocks,
        tails=tails,
        signal_states=signal_states,
        beam_vh=beam_vh,
        discarded=discarded,
    )


def _truncation_tail(config: SchemeConfig, factors: _Factors) -> float:
    """Worst pair-source branch's deficit sum_n w_n d_n over its sectors,
    the deficit of the normalized branch since the sectors' signal parts
    are orthogonal; raises `TruncationError` above `tail_tol`."""
    worst = max(
        sum(w * factors.tails[n] for n, w in terms)
        for _, terms in _pair_branches(config)
    )
    if worst > config.tail_tol:
        raise TruncationError(
            f"truncation lost probability {worst:.3e}, above the "
            f"tolerance {config.tail_tol:.0e}; raise the cutoffs"
        )
    return worst


def _herald_both(config: SchemeConfig, factors: _Factors, branches):
    """The plain click pattern's `HeraldResult`, the total probability of
    both patterns and their combined state on (A_H, A_V, B).

    Only the plain pattern is heralded. Swapping H and V in every mode
    leaves the prepared state unchanged: the tap is polarization
    independent, pair sector n maps onto itself under m -> n - m, and the
    splitters and POVMs are alike for H and V. So the flipped pattern fires
    with the plain one's probability and, bit-flipped, leaves the plain
    state. This holds only while the prepared state is H <-> V invariant; a
    polarization-dependent element (a second displacement convention,
    unequal detector efficiencies) would need the flipped pattern heralded
    too. The dense oracle heralds both and pins the symmetry.
    """
    spec = build_scheme_herald(factors.measured, config.detector, config.eta)
    plain = herald_factored(branches, factors.kept, factors.measured, spec)
    return plain, 2.0 * plain.probability, plain.post.relabeled({"B_H": "B"})


def _score(config: SchemeConfig, post: DensityOperator) -> float:
    target = target_hybrid(config.resolved_alpha_f, config.phi, post.register)
    return fidelity(post, target)


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Simulate one heralded run of the scheme.

    Both click patterns contribute. Only the plain one is heralded: the
    flipped pattern, after the deterministic polarization bit flip, fires
    with the same probability and leaves the same state (see
    `_herald_both`). The reported fidelity is against the hybrid target at
    the configured alpha_f and phi.

    The herald contracts Schmidt factors of the pair-number sectors and the
    beam (see `_factors`, cached free of eta and lambda). A pair-source
    branch of weight W stacks its sectors, sector n scaled by sqrt(w_n / W):
    L = [L_0 | L_1 | ...], Z = [Z_0; Z_1; ...]. For downconversion, P and F are the
    sector recombination of `spdc_decomposition`, equal to this coherent
    herald's to roundoff.

    The negativity is eigensolved on the post-state's product support, the
    signal Fock states of the sectors times the beam's right singular
    vectors (see `_Factors`): a local isometry, so the value is the full
    register's (at alpha_f = 2.5, 46 dimensions instead of 297).
    """
    factors = _factors(_factors_key(config))
    tail = _truncation_tail(config, factors)
    branches = []
    ranks = []
    for weight, terms in _pair_branches(config):
        # consecutive sectors: the branch's factors are one block, Z a view
        first, last = factors.blocks[terms[0][0]], factors.blocks[terms[-1][0]]
        rows = slice(first.start, last.stop)
        scale = np.concatenate(
            [np.full((n + 1) * factors.beam_rank, math.sqrt(w)) for n, w in terms]
        )
        branches.append((weight, factors.left[:, rows] * scale, factors.right[rows]))
        ranks.append((len(scale) // factors.beam_rank, factors.beam_rank))
    plain, probability, post = _herald_both(config, factors, branches)

    diagnostics: Dict[str, object] = {
        # (plain, flipped): equal by the symmetry of `_herald_both`
        "pattern_probabilities": (plain.probability,) * 2,
        "branch_pattern_probabilities": (plain.branch_probabilities,) * 2,
        "worst_tail_mass": tail,
        "cutoffs": dataclasses.asdict(factors.cuts),
        "schmidt_ranks": tuple(ranks),
        "discarded_mass": factors.discarded,
    }
    if config.pair_source == "spdc":
        dec = spdc_decomposition(config)
        total, fid = dec["p_tot"], dec["f_eff"]
        for key in ("p_vac", "p_chi", "p_phi2"):
            if dec[key] is not None:
                diagnostics[key] = dec[key]
    else:
        total, fid = probability, _score(config, post)
        if config.scs_source == "ideal" and config.detector == "pnr":
            # the closed-form total probability, weighted by the pair branch
            scale = config.z if config.pair_source == "vacuum_mixed" else 1.0
            reference = analytic.p_tot_eta(
                config.resolved_alpha_f, config.t, config.eta, config.phi
            )
            if reference > 0.0:
                diagnostics["analytic_p_tot"] = scale * reference
                diagnostics["numeric_analytic_ratio"] = total / (scale * reference)

    return SchemeResult(
        probability_total=float(total),
        fidelity=fid,
        negativity=support_negativity(
            post,
            Bipartition(("A_H", "A_V"), ("B",)),
            np.eye((factors.cuts.a + 1) ** 2)[:, factors.signal_states],
            factors.beam_vh.T,
        ),
        post_state=post,
        diagnostics=diagnostics,
    )


def build_prestate(config: SchemeConfig) -> Ensemble:
    """Joint state of all eight modes right before detection, in the lab
    polarization frame, ordered (A_H, A_V, 5H, 5V, 6H, 6V, B_H, B_V).

    This dense state is the test oracle: heralded with
    `detection.herald`, it gives the same pattern probabilities and
    conditional states as the factored contraction `run_scheme` uses,
    after rotating the B channels into the beam frame and projecting the
    empty channel out. It is not on `run_scheme`'s path, and it is built
    independently of `run_scheme`'s closed forms: the pair comes from
    `pair_source` with its idler displaced mode by mode, and the source
    beam is rotated from B_H onto the diagonal of (B_H, B_V) and each
    polarization tapped by its own splitter. Only the downconversion
    sector weights are shared, through `PairSourceSpec.sector_weights`.
    """
    cuts = resolve_cutoffs(config)
    register = build_register(
        [
            ("4H", cuts.detector),
            ("4V", cuts.detector),
            ("B_H", cuts.b),
            ("B_V", cuts.b),
        ]
    )
    amps = np.zeros(register.dims, dtype=np.complex128)
    amps[0, 0, :, 0] = _source_vector(config, cuts.b)
    beam = polarization_rotation(
        PureState(register, amps, copy=False), "B_H", "B_V", -math.pi / 4.0
    )
    tap = BsParams.from_transmissivity(config.t)
    for reflected, kept in (("4H", "B_H"), ("4V", "B_V")):
        beam = apply_beam_splitter(
            beam, reflected, kept, tap, tail_tol=config.tail_tol
        )
    half = BsParams.from_transmissivity(0.5)
    branches = []
    for weight, state in _pair_ensemble(config, cuts):
        joint = tensor(state, beam)
        for tap, idler in (("4H", "2H"), ("4V", "2V")):
            joint = apply_beam_splitter(
                joint, tap, idler, half, tail_tol=config.tail_tol
            )
        branches.append((weight, joint.relabeled(_DETECTOR_RELABEL)))
    return Ensemble(branches[0][1].register, tuple(branches))


@lru_cache(maxsize=32)
def _sector_heralds(key: SchemeConfig, eta: float):
    """Both-pattern herald probability p_n and fidelity f_n of each unit
    pair-number sector of `_factors(key)` at efficiency eta (0 and 0 for
    a sector that cannot herald)."""
    config = dataclasses.replace(key, eta=eta)
    factors = _factors(key)
    probs = []
    fids = []
    for block in factors.blocks.values():
        sector = ((1.0, factors.left[:, block], factors.right[block]),)
        try:
            _, p, post = _herald_both(config, factors, sector)
        except HeraldImpossibleError:
            p, post = 0.0, None
        probs.append(p)
        fids.append(0.0 if post is None else _score(config, post))
    return tuple(probs), tuple(fids)


def spdc_decomposition(config: SchemeConfig) -> Dict[str, Optional[float]]:
    """Pair-number decomposition of a downconversion-driven run.

    The sectors n = 0 .. spdc_order do not interfere in the herald: its
    weights are photon-number diagonal and the sectors differ in signal
    photon number. So P = sum_n w_n p_n and F = sum_n w_n p_n f_n / P, with
    the unit sectors' p_n and f_n cached per lambda-free config and eta and
    w_n from `PairSourceSpec.sector_weights`; at 'paper' weighting these
    are the paper's P_tot and F_eff. Returns p_vac, p_chi, p_phi2 (None at
    order 1), f_chi, f_eff, p_tot and tail_mass.
    """
    if config.pair_source != "spdc":
        raise ValidationError("decomposition applies to the spdc pair source")
    key = _factors_key(config)
    tail = _truncation_tail(config, _factors(key))
    probs, fids = _sector_heralds(key, config.eta)
    weights = _pair_spec(config).sector_weights()
    p_tot = sum(w * p for w, p in zip(weights, probs))
    if p_tot <= 0.0:
        raise HeraldImpossibleError("no pair-number sector heralds")
    f_eff = sum(w * p * f for w, p, f in zip(weights, probs, fids)) / p_tot
    return {
        "p_vac": probs[0],
        "p_chi": probs[1],
        "p_phi2": probs[2] if len(probs) > 2 else None,
        "f_chi": fids[1],
        "f_eff": f_eff,
        "p_tot": p_tot,
        "tail_mass": tail,
    }


@dataclass(frozen=True)
class SweepRow:
    params: Tuple[Tuple[str, float], ...]
    fidelity: Optional[float]
    probability_total: Optional[float]
    negativity: Optional[float]
    p_vac: Optional[float]
    p_chi: Optional[float]
    p_phi2: Optional[float]
    tail_mass: Optional[float]
    status: str

    @classmethod
    def from_result(
        cls, params: Tuple[Tuple[str, float], ...], result: SchemeResult
    ) -> "SweepRow":
        """The table row of one heralded run."""
        diag = result.diagnostics
        return cls(
            params=params,
            fidelity=result.fidelity,
            probability_total=result.probability_total,
            negativity=result.negativity,
            p_vac=diag.get("p_vac"),
            p_chi=diag.get("p_chi"),
            p_phi2=diag.get("p_phi2"),
            tail_mass=float(diag["worst_tail_mass"]),
            status="ok",
        )


@dataclass(frozen=True)
class SweepTable:
    axes: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]


def _apply_point(
    config: SchemeConfig, axes: Sequence[str], point: Sequence[float]
) -> SchemeConfig:
    updates: Dict[str, object] = {}
    for axis, value in zip(axes, point):
        if axis == "lambda":
            updates["lam"] = value
        elif axis == "alpha_f":
            updates["alpha_f"] = value
            updates["alpha_i"] = None
        else:
            updates[axis] = value
    return dataclasses.replace(config, **updates)


def _evaluate_point(
    config: SchemeConfig, axes: Tuple[str, ...], point: Tuple[float, ...]
) -> SweepRow:
    params = tuple(zip(axes, point))
    try:
        cfg = _apply_point(config, axes, point)
        if cfg.pair_source == "spdc":
            dec = spdc_decomposition(cfg)
            return SweepRow(
                params=params,
                fidelity=dec["f_eff"],
                probability_total=dec["p_tot"],
                negativity=None,
                p_vac=dec["p_vac"],
                p_chi=dec["p_chi"],
                p_phi2=dec["p_phi2"],
                tail_mass=dec["tail_mass"],
                status="ok",
            )
        return SweepRow.from_result(params, run_scheme(cfg))
    except SimulationError as exc:
        return SweepRow(
            params=params,
            fidelity=None,
            probability_total=None,
            negativity=None,
            p_vac=None,
            p_chi=None,
            p_phi2=None,
            tail_mass=None,
            status=f"error:{type(exc).__name__}",
        )


def sweep(
    config: SchemeConfig,
    grid: Mapping[str, Sequence[float]],
    threads: int = 1,
) -> SweepTable:
    """Evaluate the scheme over a cartesian parameter grid.

    Axes are sorted by name and each axis's values ascending, so the row
    order is deterministic regardless of input ordering. Rows that fail
    validation or hit numerical limits are reported with an error status
    instead of aborting the sweep. Downconversion rows report
    `spdc_decomposition` (the P, F, p_* and tail_mass `run_scheme` reports)
    without a per-row herald and leave negativity empty, since that needs
    the coherent post-state's eigensolve; all others report the plain
    heralded run. Points that differ only in eta (and, for downconversion,
    lambda) share one cached preparation.
    """
    if not grid:
        raise ValidationError("sweep grid must name at least one axis")
    axes = tuple(sorted(grid))
    values = []
    for axis in axes:
        if axis not in SWEEP_AXES:
            raise ValidationError(
                f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}"
            )
        axis_values = [float(v) for v in grid[axis]]
        if not axis_values:
            raise ValidationError(f"sweep axis {axis!r} has no values")
        values.append(tuple(sorted(axis_values)))
    points = list(itertools.product(*values))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            rows = list(
                pool.map(lambda p: _evaluate_point(config, axes, p), points)
            )
    else:
        rows = [_evaluate_point(config, axes, point) for point in points]
    return SweepTable(axes=axes, rows=tuple(rows))
