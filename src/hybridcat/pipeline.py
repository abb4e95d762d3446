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

The tap splitter is polarization independent, so `run_scheme` writes the
tapped beam down in closed form on (4H, 4V, B_H): the kept field is the
single mode B_H and the orthogonal field channel is never built. It never
forms the joint state either: the pair (signal x idler) and the beam (tap x
kept field) are each split into a few Schmidt factors, the splitters act
only on the idler x tap products, and the herald contracts a small Gram
matrix per pattern. `build_prestate` instead returns the full eight-mode
state in the lab frame, where the diagonally polarized beam fills both
B_H and B_V, right before detection; heralded with `detection.herald` it
is the reference the factored path is tested against.
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
from scipy.special import gammaln

from . import analytic
from .detection import HeraldResult, build_scheme_herald, herald_factored
from .errors import (
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
    tensor,
)
from .metrics import Bipartition, fidelity, negativity, target_hybrid
from .optics import (
    BsParams,
    DisplacementSpec,
    apply_beam_splitter,
    apply_displacement,
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
    phi_state,
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
    lg = gammaln(np.arange(c.size) + 1.0)
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


def _displace_idler(
    ensemble: Ensemble, config: SchemeConfig, cuts: ResolvedCutoffs
) -> Ensemble:
    # the "diagonal" convention: x / sqrt(2) on each polarization component
    x = math.sqrt(max(0.0, 1.0 - config.t)) * config.resolved_alpha_i
    specs = [
        DisplacementSpec(x / math.sqrt(2.0), "2H"),
        DisplacementSpec(x / math.sqrt(2.0), "2V"),
    ]
    branches = []
    for weight, state in ensemble:
        for spec in specs:
            state = apply_displacement(state, spec, tail_tol=config.tail_tol)
        branches.append((weight, state))
    return Ensemble(ensemble.register, tuple(branches))


def _pair_register(cuts: ResolvedCutoffs):
    return build_register(
        [
            ("A_H", cuts.a),
            ("A_V", cuts.a),
            ("2H", cuts.detector),
            ("2V", cuts.detector),
        ]
    )


def _pair_ensemble(config: SchemeConfig, cuts: ResolvedCutoffs) -> Ensemble:
    register = _pair_register(cuts)
    ensemble = pair_source(_pair_spec(config), register, labels=_PAIR_LABELS)
    return _displace_idler(ensemble, config, cuts)


def _pure_pair_component(
    n: int, config: SchemeConfig, cuts: ResolvedCutoffs
) -> Ensemble:
    """Displaced pure n-pair component of the downconversion expansion."""
    state = phi_state(n, _pair_register(cuts), labels=_PAIR_LABELS)
    return _displace_idler(Ensemble.pure(state), config, cuts)


@dataclass(frozen=True)
class SchemeResult:
    """One heralded run: success probability summed over both click
    patterns, the combined conditional state on (A_H, A_V, B), its overlap
    with the target, and the polarization/field negativity."""

    probability_total: float
    fidelity: float
    negativity: float
    post_state: DensityOperator
    diagnostics: Dict[str, object]


def _analytic_scale(config: SchemeConfig) -> Optional[float]:
    """Weight of the closed-form total probability this run should track,
    or None when no closed form applies."""
    if config.scs_source != "ideal":
        return None
    if config.detector != "pnr":
        return None
    if config.pair_source == "spdc":
        return None
    return config.z if config.pair_source == "vacuum_mixed" else 1.0


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
    """Efficiency-independent state right before detection, factored.

    Each branch is (weight, L, Z): the branch state is sum_m L[:, m] (x)
    Z[m, :], with L over `kept` = (A_H, A_V, B_H) and Z over `measured` =
    (6H, 5H, 6V, 5V); see `detection.herald_factored`. `tails` holds each
    branch's truncation deficit, `ranks` its (pair, beam) Schmidt ranks.
    """

    cuts: ResolvedCutoffs
    kept: Register
    measured: Register
    branches: Tuple[Tuple[float, np.ndarray, np.ndarray], ...]
    tails: Tuple[float, ...]
    ranks: Tuple[Tuple[int, int], ...]
    discarded: float


def _efficiency_key(config: SchemeConfig) -> SchemeConfig:
    """Cache key of `_factors`: the config with eta canonicalised, as
    `_component_key` does with lambda."""
    return dataclasses.replace(config, eta=1.0)


@lru_cache(maxsize=32)
def _factors(key: SchemeConfig, pair_component: Optional[int]) -> _Factors:
    """Schmidt-factored pre-detection state of one configuration.

    The pair branch splits signal (A_H, A_V) against idler (2H, 2V), the
    reduced beam tap (4H, 4V) against the kept field B_H; the splitters
    then act only on the idler x tap products. Nothing here depends on the
    detector efficiency, so callers key the cache with it canonicalised.
    """
    cuts = resolve_cutoffs(key)
    dim = cuts.detector + 1
    tap, beam_s, beam_vh, beam_discarded = _schmidt(
        _beam_state(key, cuts).reshape(dim * dim, -1)
    )
    field = beam_s[:, None] * beam_vh
    if pair_component is None:
        ensemble = _pair_ensemble(key, cuts)
    else:
        ensemble = _pure_pair_component(pair_component, key, cuts)

    branches = []
    tails = []
    ranks = []
    discarded = beam_discarded
    for weight, state in ensemble:
        signal, pair_s, idler, pair_discarded = _schmidt(
            state.amps.reshape(-1, dim * dim)
        )
        left = np.einsum("ak,lb->abkl", signal * pair_s, field)
        left = left.reshape(-1, len(pair_s) * len(beam_s))
        right = _interfere_factors(idler, tap.T, dim)
        left.setflags(write=False)
        right.setflags(write=False)
        gram = right @ right.conj().T
        norm2 = float(np.trace(left @ gram @ left.conj().T).real)
        tails.append(max(0.0, 1.0 - norm2) + pair_discarded + beam_discarded)
        ranks.append((len(pair_s), len(beam_s)))
        discarded += pair_discarded
        branches.append((weight, left, right))

    worst_tail = max(tails)
    if worst_tail > key.tail_tol:
        raise TruncationError(
            f"truncation lost probability {worst_tail:.3e}, above the "
            f"tolerance {key.tail_tol:.0e}; raise the cutoffs"
        )
    kept = build_register((("A_H", cuts.a), ("A_V", cuts.a), ("B_H", cuts.b)))
    measured = build_register(
        (label, cuts.detector) for label in ("6H", "5H", "6V", "5V")
    )
    return _Factors(
        cuts=cuts,
        kept=kept,
        measured=measured,
        branches=tuple(branches),
        tails=tuple(tails),
        ranks=tuple(ranks),
        discarded=discarded,
    )


@dataclass(frozen=True)
class _Heralded:
    """Both click patterns heralded at one efficiency; `post` is their
    probability-weighted state on (A_H, A_V, B), the flipped one corrected."""

    factors: _Factors
    patterns: Tuple[Optional[HeraldResult], Optional[HeraldResult]]
    probability: float
    post: DensityOperator


def _herald_both(
    config: SchemeConfig, pair_component: Optional[int] = None
) -> _Heralded:
    factors = _factors(_efficiency_key(config), pair_component)
    results = []
    for flipped in (False, True):
        spec = build_scheme_herald(
            factors.measured, config.detector, config.eta, flipped
        )
        try:
            results.append(
                herald_factored(factors.branches, factors.kept, factors.measured, spec)
            )
        except HeraldImpossibleError:
            results.append(None)
    if results[0] is None and results[1] is None:
        raise HeraldImpossibleError(
            "neither herald pattern has nonzero probability"
        )

    p_plain = results[0].probability if results[0] else 0.0
    p_flip = results[1].probability if results[1] else 0.0
    total = p_plain + p_flip

    pieces = []
    if results[0] is not None:
        pieces.append((p_plain, results[0].post))
    if results[1] is not None:
        corrected = (
            results[1]
            .post.relabeled({"A_H": "A_V", "A_V": "A_H"})
            .reordered(("A_H", "A_V", "B_H"))
        )
        pieces.append((p_flip, corrected))
    matrix = sum(p * piece.matrix for p, piece in pieces) / total
    post = DensityOperator(pieces[0][1].register, matrix, check=False, copy=False)
    return _Heralded(
        factors=factors,
        patterns=(results[0], results[1]),
        probability=float(total),
        post=post.relabeled({"B_H": "B"}),
    )


def _score(config: SchemeConfig, post: DensityOperator) -> float:
    target = target_hybrid(config.resolved_alpha_f, config.phi, post.register)
    return fidelity(post, target)


def _heralded_bundle(config: SchemeConfig) -> SchemeResult:
    heralded = _herald_both(config)
    factors = heralded.factors
    plain, flip = heralded.patterns
    total = heralded.probability
    post = heralded.post
    fid = _score(config, post)
    neg = negativity(post, Bipartition(("A_H", "A_V"), ("B",)))

    diagnostics: Dict[str, object] = {
        "pattern_probabilities": (
            plain.probability if plain else 0.0,
            flip.probability if flip else 0.0,
        ),
        "branch_pattern_probabilities": (
            plain.branch_probabilities if plain else None,
            flip.branch_probabilities if flip else None,
        ),
        "worst_tail_mass": max(factors.tails),
        "cutoffs": dataclasses.asdict(factors.cuts),
        "schmidt_ranks": factors.ranks,
        "discarded_mass": factors.discarded,
    }
    scale = _analytic_scale(config)
    if scale is not None:
        reference = analytic.p_tot_eta(
            config.resolved_alpha_f, config.t, config.eta, config.phi
        )
        if reference > 0.0:
            diagnostics["analytic_p_tot"] = scale * reference
            diagnostics["numeric_analytic_ratio"] = total / (scale * reference)

    return SchemeResult(
        probability_total=float(total),
        fidelity=fid,
        negativity=neg,
        post_state=post,
        diagnostics=diagnostics,
    )


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Simulate one heralded run of the scheme.

    Both click patterns contribute; the flipped pattern's state enters after
    the deterministic polarization bit flip that maps it onto the plain
    one. The reported fidelity is against the hybrid target at the
    configured alpha_f and phi.

    The herald contracts Schmidt factors of the pair and the beam instead
    of the joint state (see `_factors`); the efficiency-independent part is
    cached, so runs that differ only in eta share it.
    """
    result = _heralded_bundle(config)
    if config.pair_source == "spdc":
        (p_vac, p_chi, p_phi2), _, _ = _spdc_components(_component_key(config))
        result.diagnostics["p_vac"] = p_vac
        result.diagnostics["p_chi"] = p_chi
        result.diagnostics["p_phi2"] = p_phi2
    return result


def build_prestate(config: SchemeConfig) -> Ensemble:
    """Joint state of all eight modes right before detection, in the lab
    polarization frame, ordered (A_H, A_V, 5H, 5V, 6H, 6V, B_H, B_V).

    This dense state is the test oracle: heralded with
    `detection.herald`, it gives the same pattern probabilities and
    conditional states as the factored contraction `run_scheme` uses,
    after rotating the B channels into the beam frame and projecting the
    empty channel out. It is not on `run_scheme`'s path. Its beam is built
    independently of `_beam_state`'s closed form: the source is rotated
    from B_H onto the diagonal of (B_H, B_V) and each polarization is tapped
    by its own splitter.
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


def _component_key(config: SchemeConfig) -> SchemeConfig:
    return dataclasses.replace(config, lam=0.0)


@lru_cache(maxsize=32)
def _spdc_components(key: SchemeConfig):
    """Herald probabilities and fidelities of the vacuum, one-pair and
    two-pair components, and the worst truncation tail among them."""
    probs = []
    fids = []
    tail = 0.0
    for n in (0, 1, 2):
        tail = max(tail, *_factors(_efficiency_key(key), n).tails)
        try:
            heralded = _herald_both(key, pair_component=n)
            probs.append(heralded.probability)
            fids.append(_score(key, heralded.post))
        except HeraldImpossibleError:
            probs.append(0.0)
            fids.append(0.0)
    return tuple(probs), tuple(fids), tail


def spdc_decomposition(config: SchemeConfig) -> Dict[str, float]:
    """Pair-number decomposition of a downconversion-driven run.

    Runs the vacuum, one-pair, and two-pair components separately (they do
    not interfere once the herald pattern is fixed, since the detector
    weights are photon-number diagonal and the components occupy different
    total-number sectors of the signal modes) and recombines them with the
    configured lambda weighting. Returns p_vac, p_chi, p_phi2 (herald
    probabilities of the components), f_chi (one-pair fidelity), f_eff
    (probability-weighted fidelity), p_tot (weighted total probability)
    and tail_mass (the worst component's truncation tail). The three
    components are the whole expansion only at spdc_order 2, so other
    orders are rejected.
    """
    if config.pair_source != "spdc":
        raise ValidationError("decomposition applies to the spdc pair source")
    if config.spdc_order != 2:
        raise ValidationError(
            f"decomposition covers spdc_order 2 only, got {config.spdc_order}"
        )
    (p_vac, p_chi, p_phi2), (f_vac, f_chi, f_phi2), tail = _spdc_components(
        _component_key(config)
    )
    lam = float(config.lam)
    lam2 = lam * lam
    if config.spdc_weighting == "paper":
        p_tot = (1.0 - lam2) * (p_vac + lam2 * p_chi + lam2 * lam2 * p_phi2)
        f_eff = analytic.f_eff(p_vac, p_chi, p_phi2, lam, f_chi)
    else:
        # each n-pair component carries an extra factor n + 1 in weight and
        # the normalization squares
        norm = (1.0 - lam2) ** 2
        p_tot = norm * (p_vac + 2.0 * lam2 * p_chi + 3.0 * lam2 * lam2 * p_phi2)
        denominator = p_vac + 2.0 * lam2 * p_chi + 3.0 * lam2 * lam2 * p_phi2
        if denominator <= 0.0:
            raise ValidationError("all decomposition components have zero weight")
        f_eff = 2.0 * lam2 * p_chi * f_chi / denominator
    return {
        "p_vac": float(p_vac),
        "p_chi": float(p_chi),
        "p_phi2": float(p_phi2),
        "f_chi": float(f_chi),
        "f_eff": float(f_eff),
        "p_tot": float(p_tot),
        "tail_mass": float(tail),
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
        if cfg.pair_source == "spdc" and cfg.spdc_order == 2:
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
    instead of aborting the sweep. Downconversion configs at spdc_order 2
    report the decomposition quantities (f_eff as the fidelity column); all
    others report the plain heralded run. Points that differ only in eta
    share one cached efficiency-independent preparation.
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
