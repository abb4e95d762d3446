"""End-to-end simulation of the heralded hybrid-entanglement scheme.

A polarized superposition beam is tapped by a transmissivity-t splitter,
its reflected part interferes on a balanced splitter with the displaced
idler of a photon-pair source, the four polarization-resolved detector
channels are measured, and a joint click pattern heralds the surviving
polarization-qubit x field-mode state. A_H/A_V hold the pair source's
signal polarization, 2H/2V its idler, 4H/4V the beam's reflected tap and
B_H/B_V its transmitted part; after the balanced splitter the detector
channels are 5H/5V (the idler side) and 6H/6V (the tap side), and the kept
field mode is B.

`run_scheme` never forms the joint state. The tapped beam is written in
closed form and split into Schmidt factors through its one tap mode
(`_beam`); every pair source is a mixture of unit pair-number sectors n
with weights w_n (`PairSourceSpec.sector_weights`; downconversion's are
the paper's P_tot terms, arXiv:1410.6823), each in closed form. Each
term (k, l) of the state before detection is a signal Fock state
|m, n - m> times the beam's right singular vector `beam_vh[l]` on the
kept modes, scaled by d = (n + 1)^(-1/2) s_l, next to a measured factor.
The herald contracts Gram matrices G of the plain click pattern pulled
back through the splitters onto each polarization's idler and tap
factors, so no array spans all four detector channels. The detectors are
photon-number diagonal, so P and F read each sector's diagonal block of G
alone, and only those are contracted. The heralded state is the sectors'
mixture, block diagonal in the term basis, rho_t = sum_n w_n D G_nn D / p,
so its negativity recombines the sectors' own; it is embedded in the
register (a local isometry) only when a result's `post_state` is first
read.

Scoring runs one preparation at a time (`_score`): the points of a sweep
that differ only in eta (and, for downconversion, lambda) share one
`_factors` lookup and are scored together as columns over (lambda, eta),
which `sweep` copies as a block into its `SweepTable`'s columns, with no
object per row. `run_scheme` is the same scoring at one point, read off
its one row, plus rho_t.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import analytic
from .detection import DETECTORS, HERALD_PROBABILITY_FLOOR, efficiency, herald_pattern
from .errors import (
    CutoffError,
    HeraldImpossibleError,
    SimulationError,
    TruncationError,
    ValidationError,
    choice,
    integer,
    nonnegative,
    real,
)
from .fock_core import DensityOperator, log_factorials
from .metrics import stacked_negativity, target_field_vectors
from .optics import (
    displacement_matrix,
    mixer_amplitudes,
    required_displacement_cutoff,
    splitter,
    transmissivity,
)
from .resource_states import (
    PAIR_SOURCES,
    PairSourceSpec,
    ScsSpec,
    SqueezedPhotonSpec,
    coherent_cutoff_for,
    source_amplitudes,
    squeezed_cutoff_for,
)

SCS_SOURCES = ("ideal", "squeezed")
# each text field's choices, kept by the module that reads the field
CHOICES = MappingProxyType({
    "scs_source": SCS_SOURCES,
    "pair_source": PAIR_SOURCES,
    "detector": DETECTORS,
})
SWEEP_AXES = ("alpha_f", "eta", "lambda", "s", "t", "z")
# downconversion's vacuum, one-pair and two-pair probabilities, by pair number
SECTOR_COLUMNS = ("p_vac", "p_chi", "p_phi2")
# a sweep table's metric columns, in the order the result tables print them
METRIC_COLUMNS = (
    "fidelity", "probability_total", "negativity", *SECTOR_COLUMNS, "tail_mass",
)


@dataclass(frozen=True)
class SchemeConfig:
    """Full parameter set for one simulation run.

    Exactly one of alpha_i (source amplitude) and alpha_f (target amplitude,
    alpha_i = alpha_f / sqrt(t)) must be given. Cutoffs left at None are
    chosen automatically from the amplitudes involved; explicit values are
    honored as-is and may trigger truncation failures. Downconversion is
    the paper's mixture of its vacuum, one-pair and two-pair terms, set by
    lambda alone (`PairSourceSpec.sector_weights`).

    The annotations are the schema of every input (`FIELDS`): a float field
    takes a finite real number, an int field (a cutoff) an integral one
    >= 1, numpy scalars too, bools not (`errors.real`, `errors.integer`), a
    str field one of its `CHOICES`, and an Optional one None as well.
    Values are stored as given. The ranges are the ones every other entry
    point applies: `optics.transmissivity`, `detection.efficiency`, the
    source specs' (`source_spec`, `pair_spec`).
    """

    t: float
    eta: float
    phi: float = math.pi
    alpha_i: Optional[float] = None
    alpha_f: Optional[float] = None
    scs_source: str = "ideal"
    s: Optional[float] = None
    pair_source: str = "chi"
    z: Optional[float] = None
    lam: Optional[float] = None
    detector: str = "pnr"
    cutoff_detector: Optional[int] = None
    cutoff_b: Optional[int] = None
    tail_tol: float = 1e-8

    def __post_init__(self):
        # every int field counts something: at least one
        for name, kind, optional in FIELDS.values():
            value = getattr(self, name)
            if kind is str:
                choice(name, value, CHOICES[name])
            elif not (optional and value is None):
                VALUE_RULES[kind](name, value)
                if kind is int and value < 1:
                    raise ValidationError(f"{name} must be >= 1, got {value!r}")
        transmissivity(self.t)
        efficiency(self.eta)
        if (self.alpha_i is None) == (self.alpha_f is None):
            raise ValidationError("give exactly one of alpha_i and alpha_f")
        amplitude = "alpha_i" if self.alpha_i is not None else "alpha_f"
        nonnegative(amplitude, getattr(self, amplitude))
        if (self.s is None) == (self.scs_source == "squeezed"):
            raise ValidationError("s must be set exactly for the squeezed source")
        if (self.z is None) == (self.pair_source == "vacuum_mixed"):
            raise ValidationError("z must be set exactly for the vacuum_mixed pair")
        if (self.lam is None) == (self.pair_source == "spdc"):
            raise ValidationError("lambda must be set exactly for the spdc pair")
        # the source specs own the range checks of their parameters
        self.source_spec()
        self.pair_spec()
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

    def source_spec(self) -> ScsSpec | SqueezedPhotonSpec:
        """The beam source's spec: the cat (`ScsSpec`) for "ideal", the
        squeezed photon (`SqueezedPhotonSpec`) for "squeezed"."""
        if self.scs_source == "ideal":
            return ScsSpec(self.resolved_alpha_i, self.phi)
        return SqueezedPhotonSpec(self.s)

    def pair_spec(self) -> PairSourceSpec:
        """The pair source's spec; a z or lambda the source does not read is
        None and takes the spec's default."""
        z = 1.0 if self.z is None else self.z
        lam = 0.0 if self.lam is None else self.lam
        return PairSourceSpec(self.pair_source, z, lam)


# The schema of every input, read off the annotations: (field, kind, optional)
# by the name inputs give the field, `lambda` for `lam` (a Python keyword),
# kind float, int or str (text has no value rule, but a set of choices).
FIELDS: Mapping[str, Tuple[str, type, bool]] = MappingProxyType({
    "lambda" if name == "lam" else name: (name, kinds[0], type(None) in kinds)
    for name, hint in get_type_hints(SchemeConfig).items()
    for kinds in [get_args(hint) or (hint,)]
})
VALUE_RULES = MappingProxyType({float: real, int: integer})


@dataclass(frozen=True)
class ResolvedCutoffs:
    a: int
    detector: int
    b: int


def resolve_cutoffs(config: SchemeConfig) -> ResolvedCutoffs:
    """Fock cutoffs for the three register groups.

    The signal polarization modes (A_H, A_V) hold exactly n photons in the
    pair source's n-pair term, so their cutoff a is the source's largest
    pair number: 1 for the Bell and vacuum-mixed pairs, 2 for
    downconversion. It truncates nothing and is not an input. The detector
    channels see the tapped source field and the displacement,
    each of amplitude sqrt(r) alpha_i, so their cutoff covers the coherent
    sum of the two with the displacement operator's safety margin. The kept
    field mode holds the source beam and the target: b keeps all but 1e-12
    of the coherent state of amplitude alpha_i and, for the squeezed
    source, of the squeezed photon's own expansion (`squeezed_cutoff_for`),
    so that the source's contract (`source_amplitudes`) holds at b; the
    mass above b leaves the beam's box and enters the tail mass (`_beam`).
    """
    alpha_i = config.resolved_alpha_i
    x = math.sqrt(1.0 - config.t) * alpha_i
    a = max(config.pair_spec().sector_weights())

    if config.cutoff_detector is not None:
        det = config.cutoff_detector
    else:
        det = max(4, required_displacement_cutoff(math.sqrt(2.0) * x))

    if config.cutoff_b is not None:
        b = config.cutoff_b
    else:
        b = max(14, coherent_cutoff_for(alpha_i, tail=1e-12))
        if config.scs_source == "squeezed":
            b = max(b, squeezed_cutoff_for(config.s, tail=1e-12))

    return ResolvedCutoffs(a=int(a), detector=int(det), b=int(b))


def _beam(config: SchemeConfig, cuts: ResolvedCutoffs):
    """Schmidt factors of the beam after the tap splitter, tap (4H, 4V)
    against kept field B_H.

    The tap is polarization independent: each source photon stays in the
    kept field with amplitude sqrt(t) and goes to either tap polarization
    with sqrt((1 - t) / 2). With s = j + k tap photons the beam is

        psi[(j, k), m] = sqrt(C(s, j) / 2^s) Phi[s, m],
        Phi[s, m] = c_(s+m) sqrt((s + m)! / (s! m!)) (1 - t)^(s/2) t^(m/2),

    c the source vector up to b + 2d photons, m up to the field cutoff b
    and j, k up to the detector cutoff d: the box `oracle.lab_frame_beam`'s
    lab-frame splitters keep. The source is evaluated once, that far, with
    its cutoff contract checked at b (`source_amplitudes`); it is not
    cut at b before the tap, so the box is a projection of the tapped
    source on each side, and the ideal cat's beam, a sum of two coherent
    products, stays exactly rank 2 (its Schmidt vectors the even and odd
    cats); the mass the box drops, the kept field's above b included,
    enters every sector's deficit. The split map's columns s are
    orthogonal, of squared norm a_s = sum_(j+k=s) C(s, j) / 2^s, so the
    box's SVD is that of the (2d + 1) x (b + 1) matrix diag(sqrt(a)) Phi =
    u s vh, with tap factors T_l[i, j] = sqrt(C(i + j, i) 2^-(i+j) /
    a_(i+j)) u[i + j, l]. The rank cut is numpy's `matrix_rank` tolerance
    on the box's shape, s_0 max((d + 1)^2, b + 1) eps.

    Returns (tap, s, vh, discarded): tap stacked (rank, d + 1, d + 1), and
    the squared singular mass that was cut.
    """
    dim, t = cuts.detector + 1, config.t
    s = np.arange(2 * dim - 1)[:, None]
    m = np.arange(cuts.b + 1)
    c = source_amplitudes(config.source_spec(), cuts.b, cuts.b + 2 * cuts.detector)
    lg = log_factorials(c.size)
    # plain powers, not logarithms: at t = 1 the tap needs 0 ** 0 = 1
    phi = c[s + m] * np.exp(0.5 * (lg[s + m] - lg[s] - lg[m])) \
        * math.sqrt(1.0 - t) ** s * math.sqrt(t) ** m
    j, k = np.arange(dim)[:, None], np.arange(dim)
    split = np.exp(lg[j + k] - lg[j] - lg[k]) * 0.5 ** (j + k)
    norms = np.bincount((j + k).ravel(), split.ravel())
    u, sv, vh = np.linalg.svd(np.sqrt(norms)[:, None] * phi, full_matrices=False)
    cut = sv[0] * max(dim * dim, m.size) * np.finfo(float).eps
    rank = int(np.count_nonzero(sv > cut))
    tap = u[j + k, :rank] * np.sqrt(split / norms[j + k])[..., None]
    return (
        np.ascontiguousarray(tap.transpose(2, 0, 1)),
        sv[:rank],
        vh[:rank],
        float(np.sum(sv[rank:] ** 2)),
    )


def _displacement_amplitude(config: SchemeConfig) -> float:
    # the "diagonal" convention: x / sqrt(2) on each polarization component
    x = math.sqrt(1.0 - config.t) * config.resolved_alpha_i
    return x / math.sqrt(2.0)


def _sector_weights(config: SchemeConfig, lam: Optional[float]) -> Dict[int, float]:
    """The pair source as unit pair-number sectors n with weights w_n
    (`PairSourceSpec.sector_weights`), at `lam` for downconversion."""
    spec = config.pair_spec()
    if lam is not None:
        spec = dataclasses.replace(spec, lam=lam)
    return spec.sector_weights()


@dataclass(frozen=True)
class SchemeResult:
    """One heralded run: P of both click patterns, the overlap with the
    target, the polarization/field negativity and the heralded state on
    (A_H, A_V, B); each unit pair-number sector's both-pattern probability,
    the truncation deficit `_score` gated, and the preparation's cutoffs,
    (signal states, beam rank) and discarded singular mass. The one-pair
    sector's fidelity f_chi is set for downconversion only, and the
    closed-form P only on ideal resources with number-resolving detectors.
    rho_t is kept with its preparation's `_Factors`; `post_state` embeds
    them (`_embed`) at its first read.
    """

    probability_total: float
    fidelity: float
    negativity: float
    sector_probabilities: Mapping[int, float]
    tail_mass: float
    cutoffs: ResolvedCutoffs
    schmidt_ranks: Tuple[int, int]
    discarded_mass: float
    # (_Factors, rho_t) of the preparation, for `post_state`
    _heralded: tuple = dataclasses.field(repr=False, compare=False)
    f_chi: Optional[float] = None
    analytic_p_tot: Optional[float] = None

    @property
    def plain_probability(self) -> float:
        """The plain click pattern's P, half of `probability_total`."""
        return self.probability_total / 2

    @functools.cached_property
    def post_state(self) -> DensityOperator:
        """The heralded state on (A_H, A_V, B)."""
        return _embed(*self._heralded)


@dataclass(frozen=True, eq=False)
class _Factors:
    """Efficiency- and lambda-independent state right before detection.

    The unit sector of pair number n is sum_t d_t U[:, t] (x) Z[t, :] over
    the terms t = (k, l) in `blocks[n]` (ascending in n), with U over the
    kept modes (A_H, A_V, B) and Z over the detectors (6H, 5H, 6V, 5V).
    Column (k, l) of U, never formed, is the signal Fock state |m, n - m>
    with index `signal_states[k]` times `beam_vh[l]`: orthonormal columns.
    `scale` holds d = (n + 1)^(-1/2) s_l, s the beam's singular values.
    Term (k, l) of Z is idler factor u_k (x) v_k on (2H, 2V) times tap
    factor T_l = `tap[l]` on (4H, 4V), and each splitter acts on one
    polarization, so row (k, l) of Z, as a (6H 5H) x (6V 5V) matrix, is
    P_k T_l Q_k^T. P_k = K (I (x) u_k), u_k through the 50:50 splitter K
    with the tap's 4H left open, fills rows (k, 4H) of `idler_h`, one
    amplitude of K per entry (`_balanced_splitter`); `idler_v` holds Q_k
    alike. `pairs` holds the pairs (k, m) of pair factors inside one
    sector, the only ones `_gram` contracts, as two index arrays. `tails`
    holds the sectors' truncation deficits and `target` the hybrid
    target's coefficients c on the terms (`_target_terms`); `tap`,
    `beam_vh` and `discarded` come from `_beam`.
    """

    cuts: ResolvedCutoffs
    scale: np.ndarray
    idler_h: np.ndarray
    idler_v: np.ndarray
    tap: np.ndarray
    pairs: Tuple[np.ndarray, np.ndarray]
    blocks: Mapping[int, slice]
    tails: Mapping[int, float]
    signal_states: np.ndarray
    beam_vh: np.ndarray
    discarded: float
    target: np.ndarray

    @property
    def beam_rank(self) -> int:
        return len(self.beam_vh)


def _gram(factors: _Factors, w: Mapping[str, np.ndarray]) -> np.ndarray:
    """Blocks G_km[l, n] = G[(k, l), (m, n)] of G = Z diag(w_h (x) w_v) Z^H,
    w_h = w_6H (x) w_5H and w_v alike from a herald pattern `w`, stacked
    (pairs, n_l, n_l) over the pairs (k, m) of pair factors inside one
    sector (`_Factors.pairs`). Pulled back through the splitters, with
    H_km = P_k^T diag(w_h) conj(P_m) and V_km alike from Q,
    G_km[l, n] = sum T_l[i, j] H_km[i, c] V_km[j, d] conj(T_n[c, d]): three
    products with the pair a batch axis (a GEMM over i against the tap
    factors as rows i by columns (l, j), a (dim n_l x dim) product per pair
    over j, a GEMM over (c, d) against their conjugate transpose),
    n_k^2 n_l dim^3 + (n_k n_l dim)^2 work where forming Z costs
    n_k n_l dim^6. It needs product idler factors and a product,
    Fock-diagonal POVM. Each image's P diag(w) P^H is formed as
    conj((conj(P) o w) P^T), from one weighted copy and a transposed view of
    the image, so no adjoint is held.
    """
    n_l, dim, _ = factors.tap.shape
    n_k, (k, m) = len(factors.signal_states), factors.pairs

    def pulled(p, q):
        weighted = p.conj()
        weighted *= (w["6" + q][:, None] * w["5" + q]).ravel()
        square = weighted @ p.T
        return np.conjugate(square, out=square).reshape(n_k, dim, n_k, dim)

    h, v = pulled(factors.idler_h, "H"), pulled(factors.idler_v, "V")
    # per pair (k, m): H_km as rows c, columns i, and V_km as rows j
    h, v = h[k, :, m].transpose(0, 2, 1), v[k, :, m]
    count = h.size // (dim * dim)
    # rows (pair, c), columns (l, j): sum_i H_km[i, c] T_l[i, j]
    pushed = h.reshape(-1, dim) @ factors.tap.transpose(1, 0, 2).reshape(dim, -1)
    # per pair, rows (c, l), columns d: times V_km over j
    pushed = pushed.reshape(count, -1, dim) @ v.reshape(count, dim, dim)
    # rows (pair, l), columns (c, d), against conj(T_n)
    pushed = pushed.reshape(count, dim, n_l, dim).transpose(0, 2, 1, 3)
    gram = pushed.reshape(-1, dim * dim) @ factors.tap.reshape(n_l, -1).conj().T
    return gram.reshape(count, n_l, n_l)


def _unit_norms(idler_h, idler_v, tap) -> np.ndarray:
    """The diagonal of `_gram` at unit POVM weight, ||Z[(k, l)]||^2, from
    the diagonal blocks alone: with H_kk = P_k P_k^H and V_kk = Q_k Q_k^H,
    entry (k, l) is sum (H_kk^T T_l V_kk) o conj(T_l)."""
    n_l, dim, _ = tap.shape
    h, v = (
        p @ p.conj().transpose(0, 2, 1)
        for p in (x.reshape(-1, dim, dim * dim) for x in (idler_h, idler_v))
    )
    pushed = h.transpose(0, 2, 1)[:, None] @ tap @ v[:, None]
    return (pushed * tap.conj()).sum(axis=(2, 3)).real.ravel()


def _eta_grams(factors: _Factors, detector: str, etas: Sequence[float]):
    """Each sector n's diagonal block G_nn of the plain click pattern's
    Gram at each efficiency in `etas`, stacked (E, s_n, s_n), by n. `_gram`
    contracts one efficiency at a time and only the pairs inside a sector."""
    n_l = factors.beam_rank
    sizes = {n: span.stop - span.start for n, span in factors.blocks.items()}
    stacks = {n: np.empty((len(etas), s, s), np.complex128) for n, s in sizes.items()}
    for i, eta in enumerate(etas):
        w = herald_pattern(detector, eta, factors.cuts.detector)
        blocks, end = _gram(factors, w), 0
        for n, stack in stacks.items():
            # the sector's pair blocks (k, m) as rows (k, l), columns (m, n)
            q, end = n + 1, end + (n + 1) ** 2
            sector = blocks[end - q * q:end].reshape(q, q, n_l, n_l)
            stack[i].reshape(q, n_l, q, n_l)[...] = sector.transpose(0, 2, 1, 3)
    return stacks


def _factors_key(config: SchemeConfig, **updates) -> SchemeConfig:
    """Cache key of `_factors`: the config with `updates` applied and eta
    and lambda canonicalised, since neither enters the unit sectors."""
    changes = dict(updates, eta=1.0)
    if config.pair_source == "spdc":
        changes["lam"] = 0.0
    return dataclasses.replace(config, **changes)


@functools.lru_cache(maxsize=32)
def _balanced_splitter(dim: int):
    """The 50:50 splitter on (4H, 2H) as a gather: output (6H, 5H) =
    (o6, o5) of tap input j takes the one idler input i = o6 + o5 - j that
    conserves photon number, with amplitude kappa[j, o6, o5]
    (`mixer_amplitudes` at [j, i, o6]; zero where i falls outside the
    cutoff, whose index is then 0). Returns (i, kappa), cached read-only."""
    amplitudes = mixer_amplitudes(splitter(0.5), dim, dim)
    j, o6, o5 = np.arange(dim)[:, None, None], np.arange(dim)[:, None], np.arange(dim)
    inputs = o6 + o5 - j
    inside = (inputs >= 0) & (inputs < dim)
    inputs = np.where(inside, inputs, 0)
    kappa = np.where(inside, amplitudes.take((j * dim + inputs) * dim + o6), 0.0)
    for array in (inputs, kappa):
        array.setflags(write=False)
    return inputs, kappa


@functools.lru_cache(maxsize=32)
def _factors(key: SchemeConfig) -> _Factors:
    """Schmidt-factored pre-detection sectors of one configuration.

    The displaced n-pair sector is written in closed form: signal factors
    |m, n - m> on (A_H, A_V) of weight (n + 1)^(-1/2) and idler factors
    D|n - m> (x) D|m> on (2H, 2V), each polarization through its own 50:50
    splitter (see `_Factors`); the beam factors through its one tap mode
    (`_beam`). A sector's deficit, 1 - sum_t d_t^2 G1[t, t] over its terms
    with G1 the Gram at unit POVM weight (`_unit_norms`), counts the
    displacement's truncation and, since d holds only the kept singular
    values, the beam's discarded mass.
    """
    cuts = resolve_cutoffs(key)
    dim = cuts.detector + 1
    numbers = sorted(_sector_weights(key, key.lam))
    if numbers[-1] > cuts.detector:
        raise CutoffError(f"{numbers[-1]} pairs need cutoff_detector >= {numbers[-1]}")
    tap, beam_s, beam_vh, discarded = _beam(key, cuts)
    disp = displacement_matrix(_displacement_amplitude(key), cuts.detector)
    # pair factor k of sector n[k] has m[k] photons in A_H and in 2V
    n = np.concatenate([np.full(q + 1, q) for q in numbers])
    m = np.concatenate([np.arange(q + 1) for q in numbers])
    signal_states = m * (cuts.a + 1) + n - m
    scale = np.outer((n + 1.0) ** -0.5, beam_s).ravel()
    # rows (k, 4H), columns (6H 5H): one amplitude of u_k each
    inputs, kappa = _balanced_splitter(dim)
    idler_h, idler_v = (
        (disp.T[photons].take(inputs, axis=1) * kappa).reshape(-1, dim * dim)
        for photons in (n - m, m)
    )
    target = _target_terms(key, cuts, signal_states, beam_vh)
    pairs = np.nonzero(np.equal.outer(n, n))
    for array in (scale, idler_h, idler_v, tap, *pairs, signal_states, beam_vh, target):
        array.setflags(write=False)
    starts = (np.searchsorted(n, numbers) * len(beam_s)).tolist()
    blocks = {q: slice(a, a + (q + 1) * len(beam_s)) for q, a in zip(numbers, starts)}
    norms = scale**2 * _unit_norms(idler_h, idler_v, tap)
    return _Factors(
        cuts=cuts,
        scale=scale,
        idler_h=idler_h,
        idler_v=idler_v,
        tap=tap,
        pairs=pairs,
        blocks=blocks,
        tails={q: max(0.0, 1.0 - float(norms[b].sum())) for q, b in blocks.items()},
        signal_states=signal_states,
        beam_vh=beam_vh,
        discarded=discarded,
        target=target,
    )


def _target_terms(
    config: SchemeConfig, cuts: ResolvedCutoffs, signal_states, beam_vh
) -> np.ndarray:
    """c = U^H T, the hybrid target T's coefficients on the terms: nonzero
    only on the signal states |1, 0> and |0, 1>, where they are the
    target's field vectors against the conjugated rows of `beam_vh`."""
    fields = target_field_vectors(config.resolved_alpha_f, config.phi, cuts.b)
    coeffs = np.zeros((len(signal_states), len(beam_vh)), dtype=np.complex128)
    for state, field in zip((cuts.a + 1, 1), fields):
        coeffs[signal_states == state] = beam_vh.conj() @ field
    return coeffs.ravel()


def _embed(factors: _Factors, rho: np.ndarray) -> DensityOperator:
    """U rho U^H on (A_H, A_V, B): `beam_vh` on both sides,
    then the signal states scattered into their rows and columns."""
    cuts = factors.cuts
    k, dim_b = len(factors.signal_states), cuts.b + 1
    vh = factors.beam_vh
    half = rho.reshape(-1, factors.beam_rank) @ vh.conj()
    full = (vh.T @ half.reshape(k, factors.beam_rank, -1)).reshape(k, dim_b, k, dim_b)
    dim_a = (cuts.a + 1) ** 2
    matrix = np.zeros((dim_a, dim_b, dim_a, dim_b), dtype=np.complex128)
    states = factors.signal_states
    matrix[states[:, None], :, states, :] = full.transpose(0, 2, 1, 3)
    dims = (cuts.a + 1, cuts.a + 1, dim_b)
    return DensityOperator(("A_H", "A_V", "B"), dims, matrix.reshape(dim_a * dim_b, -1))


def _score(
    key: SchemeConfig, lams: Sequence[Optional[float]], etas: Sequence[float]
):
    """Score the points (lams[i], etas[j]) of one preparation, `key` a
    `_factors_key`, each value in range, lambda None but for downconversion:
    columns over (lambda, eta), the failures among the points by (i, j),
    and each sector n's unit-weight block B_n stacked over eta. A failed
    preparation (`_factors`) raises.

    The POVM is photon-number diagonal and the unit sectors differ in
    signal photon number, so P and F read only each sector's Gram block
    (`_eta_grams`): with B_n = d herm(G_nn) d, t_n = tr B_n and
    phi_n = c^H B_n c, P = 2 sum_n w_n t_n and F = sum_n w_n phi_n /
    sum_n w_n t_n, summed in ascending n. The truncation deficit is
    sum_n w_n d_n / sum_n w_n for downconversion and max_n d_n for a
    mixture; a lambda above `tail_tol` fails with `TruncationError`, and a
    point whose plain probability is below `HERALD_PROBABILITY_FLOOR` fails
    alone. The columns are `METRIC_COLUMNS`, f_chi and
    `sector_probabilities`, the p_n = 2 t_n stacked by sector; only
    downconversion fills `SECTOR_COLUMNS`, its p_n for n = 0, 1, 2, of
    which P is the paper's P_tot, and f_chi, the one-pair sector's F.
    Each broadcasts to (L, E), and NaN marks an empty cell. Only
    the plain pattern is heralded: swapping H and V in every mode leaves
    the prepared state unchanged (the tap is polarization independent,
    sector n maps onto itself under m -> n - m, the splitters and POVMs
    are alike for H and V), so the flipped pattern fires alike and,
    bit-flipped, leaves the plain state; the dense oracle pins it.

    Every pair source is a mixture of its sectors, so rho_t = sum_n w_n
    B_n / (P / 2) is block diagonal on disjoint signal states, which the
    partial transpose keeps apart: N = sum_n w_n nu_n / (P / 2), nu_n the
    negativity of B_n. The negativity is homogeneous, so one stacked
    eigensolve per sector of more than one signal state, over the
    efficiencies at which some point heralds, serves every lambda.
    """
    factors = _factors(key)
    spdc = key.pair_source == "spdc"
    blocks = _eta_grams(factors, key.detector, etas)
    traces, overlaps = {}, {}
    for n, span in factors.blocks.items():
        d, c, g = factors.scale[span], factors.target[span], blocks[n]
        # D G D, G Hermitised so that rho_t is Hermitian to roundoff
        blocks[n] = b = (g + g.conj().transpose(0, 2, 1)) * 0.5 * d[:, None] * d
        traces[n] = np.trace(b, axis1=1, axis2=2).real
        overlaps[n] = ((b @ c) * c.conj()).sum(axis=1).real
    # rows lambda, columns sector n, summed over the sectors in ascending n
    w = np.array([list(_sector_weights(key, lam).values()) for lam in lams])
    plain = sum(wn[:, None] * traces[n] for wn, n in zip(w.T, blocks))
    overlap = sum(wn[:, None] * overlaps[n] for wn, n in zip(w.T, blocks))
    if spdc:
        total = sum(w.T)
        tail = sum(wn / total * factors.tails[n] for wn, n in zip(w.T, blocks))
    else:
        tail = np.full(len(w), max(factors.tails.values()))
    fires = plain >= HERALD_PROBABILITY_FLOOR
    truncated = tail > key.tail_tol
    live = fires & ~truncated[:, None]
    # the sectors' negativities nu_n at the efficiencies that herald, mixed
    # over lambda; a one-state sector is its own partial transpose
    heralding = np.flatnonzero(live.any(axis=0))
    mixed = sum(
        wn[:, None] * np.array(stacked_negativity(blocks[n][heralding], n + 1))
        for wn, n in zip(w.T, blocks) if n
    )
    negativity = np.full(plain.shape, np.nan)
    negativity[:, heralding] = np.divide(
        mixed, plain[:, heralding], out=np.full(mixed.shape, np.nan),
        where=live[:, heralding],
    )
    # the columns broadcast to (lambda, eta) where they are read
    empty = np.full((1, 1), np.nan)
    sectors = 2.0 * np.array(list(traces.values()))[:, None]
    columns = {
        "fidelity": np.divide(overlap, plain, out=np.zeros_like(plain), where=fires),
        "probability_total": 2.0 * plain,
        "negativity": negativity,
        "tail_mass": tail[:, None],
        "sector_probabilities": sectors,
        "f_chi": empty,
        **dict.fromkeys(SECTOR_COLUMNS, empty),
    }
    if spdc:
        columns.update(zip(SECTOR_COLUMNS, sectors))
        t = traces[1]
        f_chi = np.divide(overlaps[1], t, out=np.zeros_like(t), where=t > 0)
        columns["f_chi"] = f_chi[None]
    failures = {}
    for i in np.flatnonzero(truncated).tolist():
        error = TruncationError(
            f"truncation lost probability {tail[i]:.3e}, above the "
            f"tolerance {key.tail_tol:.0e}; raise the cutoffs"
        )
        failures.update(((i, j), error) for j in range(len(etas)))
    for i, j in np.argwhere(~fires & ~truncated[:, None]).tolist():
        failures[i, j] = HeraldImpossibleError(
            f"herald pattern has probability {plain[i, j]:.3e}, below the "
            f"{HERALD_PROBABILITY_FLOOR:.0e} floor"
        )
    return columns, failures, blocks


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Simulate one heralded run of the scheme: `sweep`'s scoring of one
    preparation (`_score`) at the config's one point, read off its one row,
    so a run is its sweep row bit for bit; a failed preparation or point
    raises its error. Both click patterns contribute; only the plain one is
    heralded (see `_score`). The fidelity is against the hybrid target at
    the configured alpha_f and phi, and the negativity is eigensolved per
    sector on the term-basis blocks (at alpha_f = 2.5, 4 dimensions instead
    of the register's 132). rho_t, the blocks' mixture sum_n w_n B_n /
    (P / 2), is kept for `post_state` to embed at its first read.
    """
    key = _factors_key(config)
    columns, failures, blocks = _score(key, (config.lam,), (config.eta,))
    if failures:
        raise failures[0, 0]
    row = {name: column[..., 0, 0] for name, column in columns.items()}
    factors, sectors = _factors(key), row["sector_probabilities"]
    weights = _sector_weights(config, config.lam)
    plain = float(row["probability_total"]) / 2
    rho = np.zeros((len(factors.scale),) * 2, dtype=np.complex128)
    for n, span in factors.blocks.items():
        rho[span, span] = blocks[n][0] * weights[n] / plain
    reference = None
    if config.scs_source == "ideal" and config.detector == "pnr" and (
        config.pair_source != "spdc"
    ):
        # the closed form, weighted by the pair's one-pair sector
        p_tot = analytic.p_tot_eta(
            config.resolved_alpha_f, config.t, config.eta, config.phi
        )
        if p_tot > 0.0:
            reference = weights[1] * p_tot
    return SchemeResult(
        probability_total=float(row["probability_total"]),
        fidelity=float(row["fidelity"]),
        negativity=float(row["negativity"]),
        sector_probabilities=dict(zip(factors.blocks, sectors.tolist())),
        tail_mass=float(row["tail_mass"]),
        cutoffs=factors.cuts,
        schmidt_ranks=(len(factors.signal_states), factors.beam_rank),
        discarded_mass=factors.discarded,
        f_chi=None if np.isnan(row["f_chi"]) else float(row["f_chi"]),
        analytic_p_tot=reference,
        _heralded=(factors, rho),
    )


@dataclass(frozen=True)
class SweepRow:
    """One row of a `SweepTable`: its swept values by axis and its cells,
    None where the table leaves them empty."""

    params: Tuple[Tuple[str, float], ...]
    fidelity: Optional[float] = None
    probability_total: Optional[float] = None
    negativity: Optional[float] = None
    p_vac: Optional[float] = None
    p_chi: Optional[float] = None
    p_phi2: Optional[float] = None
    tail_mass: Optional[float] = None
    status: str = "ok"


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's rows as columns: `columns` maps each of `axes`, then each
    of `METRIC_COLUMNS`, to one float per row, NaN where a cell is empty,
    and `status` holds each row's "ok" or "error:<type>"; a failed row
    leaves every metric cell empty. The columns are read-only, and `rows`
    reads them row by row, once; tables compare and hash by their rows."""

    axes: Tuple[str, ...]
    columns: Mapping[str, np.ndarray]
    status: np.ndarray

    def __post_init__(self) -> None:
        for array in (*self.columns.values(), self.status):
            array.setflags(write=False)
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepTable):
            return NotImplemented
        return (self.axes, self.rows) == (other.axes, other.rows)

    def __hash__(self) -> int:
        return hash((self.axes, self.rows))

    @functools.cached_property
    def rows(self) -> Tuple[SweepRow, ...]:
        keys = zip(*(self.columns[a].tolist() for a in self.axes), self.status.tolist())
        cells = (
            [None if math.isnan(x) else x for x in self.columns[name].tolist()]
            for name in METRIC_COLUMNS
        )
        return tuple(
            SweepRow(tuple(zip(self.axes, values)), *row, status=status)
            for (*values, status), *row in zip(keys, *cells)
        )


def sweep(config: SchemeConfig, grid: Mapping[str, Sequence[float]]) -> SweepTable:
    """Evaluate the scheme over a cartesian parameter grid, one preparation
    at a time: axes sorted by name and values ascending, so the row order
    does not depend on the input's. Points that differ only in eta (and,
    for downconversion, lambda) share one preparation, whose (lambda, eta)
    columns `_score` scores in one pass and the table takes as a block.
    Each row is the `run_scheme` of its point, bit for bit, negativity
    included, without the post-state. Each axis of `SWEEP_AXES` takes a
    non-empty collection, not a string, of finite real numbers, numpy
    scalars too, bools not, or the whole call is refused with
    `ValidationError` before any point runs. A number out of its field's
    range, like eta = 1.5, fails its own row alone, ahead of its preparation,
    as do points that hit numerical limits: their rows get an error status.
    """
    if not grid:
        raise ValidationError("sweep grid must name at least one axis")
    unknown = [axis for axis in grid if axis not in SWEEP_AXES]
    if unknown:
        raise ValidationError(f"unknown sweep axes {unknown}; axes: {SWEEP_AXES}")
    axes = tuple(sorted(grid))
    values = []
    for axis in axes:
        try:  # text, a number or a 0-d array holds no values
            points = () if isinstance(grid[axis], (str, bytes)) else tuple(grid[axis])
        except TypeError:
            points = ()
        if not points:
            raise ValidationError(f"sweep axis {axis!r} needs a collection of numbers")
        values.append(tuple(sorted(float(real(axis, v)) for v in points)))
    # each preparation scores a (lambda, eta) block: the cells are held with
    # the other axes first, an inner axis that is not swept of length one
    spdc = config.pair_source == "spdc"
    inner = [a if a in axes and (a == "eta" or spdc) else "" for a in ("lambda", "eta")]
    lams = values[axes.index("lambda")] if inner[0] else (config.lam,)
    etas = values[axes.index("eta")] if inner[1] else (config.eta,)
    # each inner value is checked once: one out of range is scored at a
    # stand-in (lambda 0, eta 1), and its points keep their own error
    own, lams, etas = {}, list(lams), list(etas)
    for i, lam in enumerate(lams if spdc else ()):
        try:
            analytic.interaction_strength(lam)
        except ValidationError as exc:
            own.update(((i, j), exc) for j in range(len(etas)))
            lams[i] = 0.0
    for j, eta in enumerate(etas):
        try:
            efficiency(eta)
        except ValidationError as exc:
            own.update(((i, j), exc) for i in range(len(lams)))
            etas[j] = 1.0
    outer = [k for k, axis in enumerate(axes) if axis not in inner]
    shape = tuple(len(values[k]) for k in outer) + (len(lams), len(etas))
    cells = {name: np.full(shape, np.nan) for name in METRIC_COLUMNS}
    status = np.full(shape, "ok", dtype=object)
    for at in np.ndindex(*shape[:-2]):
        # the config fields that the swept values set; alpha_f replaces alpha_i
        updates = {FIELDS[axes[k]][0]: values[k][i] for k, i in zip(outer, at)}
        if "alpha_f" in updates:
            updates["alpha_i"] = None
        try:
            key = _factors_key(config, **updates)
            columns, failures, _ = _score(key, lams, etas)
        except SimulationError as exc:
            status[at] = f"error:{type(exc).__name__}"
            columns, failures = {}, {}
        for name, column in cells.items():
            column[at] = columns.get(name, np.nan)
        for point, exc in {**failures, **own}.items():
            status[at + point] = f"error:{type(exc).__name__}"
            for column in cells.values():
                column[at + point] = np.nan
    # back to the grid's axis order; the unswept inner axes go last and vanish
    labels = [axes[k] for k in outer] + inner
    order = [labels.index(a) for a in axes] + [k for k, a in enumerate(labels) if not a]
    table = dict(zip(axes, (g.ravel() for g in np.meshgrid(*values, indexing="ij"))))
    table.update((name, cell.transpose(order).ravel()) for name, cell in cells.items())
    return SweepTable(axes, table, status.transpose(order).ravel())
