"""Tests for the end-to-end scheme simulation and the sweep driver.

Frozen ten-digit values are regression anchors produced by this
implementation under the locked conventions.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from hybridcat import (
    analytic,
    detection,
    fock_core,
    metrics,
    optics,
    pipeline,
    resource_states,
)
from hybridcat.detection import build_scheme_herald, herald
from hybridcat.errors import (
    CutoffError,
    HeraldImpossibleError,
    TruncationError,
    ValidationError,
)
from hybridcat.fock_core import Ensemble, PureState, build_register
from hybridcat.metrics import Bipartition, negativity
from hybridcat.optics import BsParams, apply_beam_splitter, polarization_rotation
from hybridcat.pipeline import (
    SWEEP_AXES,
    SchemeConfig,
    build_prestate,
    resolve_cutoffs,
    run_scheme,
    spdc_decomposition,
    sweep,
)


def test_config_requires_exactly_one_alpha():
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9)
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, alpha_f=0.7)


def test_config_validates_ranges():
    with pytest.raises(ValidationError):
        SchemeConfig(t=1.5, eta=0.9, alpha_i=0.7)
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=-0.1, alpha_i=0.7)
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, detector="analog")
    for source in (
        dict(scs_source="squeezed", s=-0.1),
        dict(scs_source="squeezed", s=0.2, n_cut=0),
        dict(scs_source="squeezed", s=0.161, n_cut=2.5),
        dict(pair_source="vacuum_mixed", z=0.0),
        dict(pair_source="vacuum_mixed", z=1.5),
        dict(pair_source="spdc", lam=1.0),
        dict(pair_source="spdc", lam=0.1, spdc_order=0),
        dict(pair_source="spdc", lam=0.02, spdc_order=2.5),
        dict(pair_source="spdc", lam=0.1, spdc_weighting="uniform"),
    ):
        with pytest.raises(ValidationError):
            SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, **source)


def test_config_rejects_odd_cat_without_amplitude():
    # the ideal source's spec is built with the config, not first in the run
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.0)
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_f=0.0)
    assert SchemeConfig(t=0.9, eta=0.9, alpha_i=0.0, phi=0.0)


def test_config_source_parameters_are_mandatory():
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, scs_source="squeezed")
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, pair_source="spdc")
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, pair_source="vacuum_mixed")


def test_alpha_parameterizations():
    by_input = SchemeConfig(t=0.81, eta=0.9, alpha_i=1.0)
    assert abs(by_input.resolved_alpha_f - 0.9) < 1e-12
    by_output = SchemeConfig(t=0.81, eta=0.9, alpha_f=0.9)
    assert abs(by_output.resolved_alpha_i - 1.0) < 1e-12


def test_cutoff_policy_scales_with_amplitude():
    small = resolve_cutoffs(SchemeConfig(t=0.99, eta=0.9, alpha_i=0.7))
    large = resolve_cutoffs(SchemeConfig(t=0.9, eta=0.9, alpha_i=1.4))
    assert small.a == 2
    assert large.detector > small.detector
    assert large.b >= small.b
    explicit = resolve_cutoffs(
        SchemeConfig(t=0.99, eta=0.9, alpha_i=0.7, cutoff_b=21)
    )
    assert explicit.b == 21


def test_ideal_run_regression_values():
    result = run_scheme(SchemeConfig(t=0.99, eta=0.9, alpha_f=1.0))
    assert abs(result.fidelity - 0.998990918603) < 1e-9
    assert abs(result.probability_total - 4.631466229574e-03) < 1e-12
    assert abs(result.negativity - 0.988790989588) < 1e-9

    result = run_scheme(SchemeConfig(t=0.9, eta=0.7, alpha_f=0.7))
    assert abs(result.fidelity - 0.983930563100) < 1e-9
    assert abs(result.probability_total - 1.863094702521e-02) < 1e-12
    assert abs(result.negativity - 0.895954665356) < 1e-9


def test_ideal_perfect_detection_is_exact():
    result = run_scheme(SchemeConfig(t=0.9, eta=1.0, alpha_i=1.0))
    assert result.fidelity >= 1.0 - 1e-8
    alpha_f = math.sqrt(0.9) * 1.0
    ratio = result.probability_total / analytic.p_tot_eta(alpha_f, 0.9, 1.0)
    assert abs(ratio - analytic.PROBABILITY_CONVENTION_FACTOR) < 1e-9


def test_fidelity_follows_detector_formula():
    for eta in (0.7, 0.9):
        result = run_scheme(SchemeConfig(t=0.99, eta=eta, alpha_f=1.0))
        expected = analytic.fidelity_eta(1.0, 0.99, eta)
        assert abs(result.fidelity - expected) < 1e-4


def _record_heralds(monkeypatch):
    """Arguments of every `herald_factored` call the pipeline makes."""
    calls = []
    real = pipeline.herald_factored

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "herald_factored", record)
    return calls


def test_pattern_probabilities_symmetric(monkeypatch):
    """On the very branches `run_scheme` heralds, at default cutoffs, the
    flipped pattern fires with the plain one's probability and leaves the
    plain state once bit-flipped: the symmetry that lets it herald one."""
    calls = _record_heralds(monkeypatch)
    pipeline._sector_heralds.cache_clear()
    for kwargs in (
        dict(t=0.9, eta=0.9, alpha_f=2.5),
        dict(t=0.99, eta=0.7, alpha_i=1.0, scs_source="squeezed", s=0.313,
             pair_source="vacuum_mixed", z=0.5),
        SPDC_ORDER_3,
        dict(t=0.95, eta=0.8, alpha_i=0.9, phi=0.7, detector="onoff"),
    ):
        config = SchemeConfig(**kwargs)
        calls.clear()
        result = run_scheme(config)
        # the coherent run, then (downconversion) one herald per sector
        assert len(calls) == (1 if config.pair_source != "spdc" else 5)
        coherent = detection.herald_factored(*calls[0])
        assert result.diagnostics["pattern_probabilities"][0] == coherent.probability
        for branches, kept, measured, _ in calls:
            plain, flip = (
                detection.herald_factored(
                    branches,
                    kept,
                    measured,
                    build_scheme_herald(measured, config.detector, config.eta, f),
                )
                for f in (False, True)
            )
            assert abs(flip.probability - plain.probability) <= (
                1e-12 * plain.probability
            )
            mirrored = flip.post.relabeled({"A_H": "A_V", "A_V": "A_H"})
            mirrored = mirrored.reordered(("A_H", "A_V", "B_H"))
            assert float(np.abs(mirrored.matrix - plain.post.matrix).max()) <= 1e-12


def test_vacuum_mixture_scales_probability():
    """With an ideal cat and PNR heralding the vacuum pair branch cannot
    fire the detectors, so P_tot scales exactly with the pair weight z."""
    pure = run_scheme(SchemeConfig(t=0.99, eta=0.9, alpha_i=0.7))
    z = 0.37
    mixed = run_scheme(
        SchemeConfig(
            t=0.99, eta=0.9, alpha_i=0.7, pair_source="vacuum_mixed", z=z
        )
    )
    ratio = mixed.probability_total / pure.probability_total
    assert abs(ratio - z) < 1e-9
    assert abs(mixed.fidelity - pure.fidelity) < 1e-9


def test_heralded_negativity_with_realistic_resources():
    result = run_scheme(
        SchemeConfig(
            t=0.99,
            eta=0.7,
            alpha_i=0.7,
            scs_source="squeezed",
            s=0.161,
            pair_source="vacuum_mixed",
            z=0.5,
        )
    )
    assert abs(result.negativity - 0.922607339796) < 1e-9
    assert abs(result.fidelity - 0.997830205436) < 1e-9


SPOT_A = dict(
    t=0.99,
    eta=0.5,
    alpha_i=0.7,
    scs_source="squeezed",
    s=0.161,
    pair_source="spdc",
    lam=0.022,
    detector="onoff",
)

SPOT_A_EXPECTED = {
    "p_vac": 1.264713567e-08,
    "p_chi": 9.766780704e-04,
    "p_phi2": 4.260359997e-02,
    "f_chi": 9.962401869e-01,
    "f_eff": 9.507315780e-01,
    "p_tot": 4.950997264e-07,
}

SPOT_B_EXPECTED = {
    "p_vac": 1.886964888e-07,
    "p_chi": 1.429033214e-03,
    "p_phi2": 4.292235651e-02,
    "f_chi": 9.864761698e-01,
    "f_eff": 8.692831484e-01,
    "p_tot": 2.338337958e-06,
}


def test_spdc_decomposition_frozen_spots():
    got = spdc_decomposition(SchemeConfig(**SPOT_A))
    for key, expected in SPOT_A_EXPECTED.items():
        assert abs(got[key] - expected) < 1e-6 * abs(expected), key

    spot_b = dict(SPOT_A, alpha_i=1.0, s=0.313, lam=0.038)
    got = spdc_decomposition(SchemeConfig(**spot_b))
    for key, expected in SPOT_B_EXPECTED.items():
        assert abs(got[key] - expected) < 1e-6 * abs(expected), key


def test_spdc_run_reports_component_probabilities():
    result = run_scheme(SchemeConfig(**SPOT_A))
    diag = result.diagnostics
    for key in ("p_vac", "p_chi", "p_phi2"):
        assert abs(diag[key] - SPOT_A_EXPECTED[key]) < 1e-6 * SPOT_A_EXPECTED[key]
    # full-state fidelity coincides with the incoherent effective fidelity
    # because the target lives entirely in the single-pair sector
    assert abs(result.fidelity - SPOT_A_EXPECTED["f_eff"]) < 1e-6
    assert abs(result.probability_total - SPOT_A_EXPECTED["p_tot"]) < 1e-12


def test_spdc_effective_fidelity_identity():
    got = spdc_decomposition(SchemeConfig(**SPOT_A))
    rebuilt = analytic.f_eff(
        p_vac=got["p_vac"],
        p_chi=got["p_chi"],
        p_phi2=got["p_phi2"],
        lam=0.022,
        f_chi=got["f_chi"],
    )
    assert abs(rebuilt - got["f_eff"]) < 1e-12


def test_sweep_rows_are_sorted_and_complete():
    table = sweep(
        SchemeConfig(t=0.99, eta=0.9, alpha_f=1.0),
        {"t": (0.99, 0.9), "eta": (0.9, 0.7)},
    )
    assert table.axes == ("eta", "t")
    assert len(table.rows) == 4
    points = [tuple(v for _, v in row.params) for row in table.rows]
    assert points == sorted(points)
    assert all(row.status == "ok" for row in table.rows)


def test_sweep_marks_failed_points():
    table = sweep(
        SchemeConfig(t=0.9, eta=0.9, alpha_i=0.6, cutoff_b=14),
        {"alpha_f": (0.5, 2.4)},
    )
    status = {row.params[0][1]: row.status for row in table.rows}
    assert status[0.5] == "ok"
    assert status[2.4].startswith("error:")


def test_sweep_rejects_unknown_axis():
    config = SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7)
    with pytest.raises(ValidationError):
        sweep(config, {"voltage": (1.0, 2.0)})
    with pytest.raises(ValidationError):
        sweep(config, {})
    assert "eta" in SWEEP_AXES and "lambda" in SWEEP_AXES


def test_sweep_spdc_uses_decomposition():
    table = sweep(SchemeConfig(**SPOT_A), {"lambda": (0.022, 0.038)})
    row = table.rows[0]
    assert row.negativity is None
    assert abs(row.fidelity - SPOT_A_EXPECTED["f_eff"]) < 1e-6
    assert abs(row.p_chi - SPOT_A_EXPECTED["p_chi"]) < 1e-9


def test_sweep_threads_match_serial():
    config = SchemeConfig(t=0.99, eta=0.9, alpha_f=1.0)
    grid = {"eta": (0.7, 0.8, 0.9)}
    serial = sweep(config, grid, threads=1)
    parallel = sweep(config, grid, threads=3)
    assert serial == parallel


# ---------------------------------------------------------------------------
# the tapped beam


def _lab_frame_beam(config, cuts):
    """The beam built mode by mode: the source rotated onto the diagonal of
    (B_H, B_V), each polarization tapped by its own splitter, rotated back,
    and the empty B_V channel dropped."""
    register = build_register(
        [("4H", cuts.detector), ("4V", cuts.detector), ("B_H", cuts.b), ("B_V", cuts.b)]
    )
    amps = np.zeros(register.dims, dtype=np.complex128)
    amps[0, 0, :, 0] = pipeline._source_vector(config, cuts.b)
    state = polarization_rotation(
        PureState(register, amps), "B_H", "B_V", -math.pi / 4
    )
    tap = BsParams.from_transmissivity(config.t)
    state = apply_beam_splitter(state, "4H", "B_H", tap)
    state = apply_beam_splitter(state, "4V", "B_V", tap)
    state = polarization_rotation(state, "B_H", "B_V", math.pi / 4)
    return state.amps[..., 0]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=0.9, cutoff_detector=13, cutoff_b=32),
        dict(t=0.9, scs_source="squeezed", s=0.313, cutoff_detector=13, cutoff_b=32),
        dict(t=0.8, cutoff_detector=3, tail_tol=0.9),
    ],
    ids=["ideal", "squeezed", "truncated"],
)
def test_closed_form_beam_matches_lab_frame(kwargs):
    config = SchemeConfig(eta=0.9, alpha_f=2.5, **kwargs)
    cuts = resolve_cutoffs(config)
    beam = pipeline._beam_state(config, cuts)
    assert beam.shape == (cuts.detector + 1, cuts.detector + 1, cuts.b + 1)
    assert float(np.abs(beam - _lab_frame_beam(config, cuts)).max()) <= 1e-14
    if config.cutoff_detector == 3:
        # the detector cutoff really truncates this beam
        assert 1.0 - np.linalg.norm(beam) ** 2 > 1e-2


def test_untapped_beam_heralds_nothing():
    config = SchemeConfig(t=1.0, eta=0.9, alpha_i=1.0)
    beam = pipeline._beam_state(config, resolve_cutoffs(config))
    assert np.isfinite(beam).all()
    source = pipeline._source_vector(config, beam.shape[2] - 1)
    assert np.array_equal(beam[0, 0], source)
    assert not beam[1:].any() and not beam[:, 1:].any()
    with pytest.raises(HeraldImpossibleError):
        run_scheme(config)


# ---------------------------------------------------------------------------
# factored herald against the dense oracle


def _dense_oracle(config):
    """Pattern probabilities and combined post-state from the dense
    eight-mode state, its field rotated into the beam frame and heralded
    with `detection.herald`, with the flipped pattern corrected and the
    empty field channel projected out, as `run_scheme` reports them."""
    lab = build_prestate(config)
    prestate = Ensemble(
        lab.register,
        [
            (weight, polarization_rotation(state, "B_H", "B_V", math.pi / 4))
            for weight, state in lab
        ],
    )
    probs = []
    pieces = []
    for flipped in (False, True):
        spec = build_scheme_herald(
            prestate.register, config.detector, config.eta, flipped
        )
        try:
            outcome = herald(prestate, spec)
        except HeraldImpossibleError:
            probs.append(0.0)
            continue
        post = outcome.post
        if flipped:
            post = post.relabeled({"A_H": "A_V", "A_V": "A_H"}).reordered(
                ("A_H", "A_V", "B_H", "B_V")
            )
        probs.append(outcome.probability)
        pieces.append((outcome.probability, post))
    register = pieces[0][1].register
    matrix = sum(p * post.matrix for p, post in pieces) / sum(probs)
    empty = np.arange(register.size).reshape(register.dims)[..., 0].ravel()
    return tuple(probs), matrix[np.ix_(empty, empty)]


# the ids keep naming the displacement convention, "diagonal" (the only one)
ORACLE_CASES = [
    pytest.param(*case, {}, id="-".join(case + ("diagonal",)))
    for case in itertools.product(
        ("chi", "vacuum_mixed", "spdc"), ("ideal", "squeezed"), ("pnr", "onoff")
    )
] + [
    pytest.param("spdc", beam, detector, extra, id=f"spdc-{name}-{beam}-{detector}")
    for name, extra, beam, detector in (
        ("order1", dict(spdc_order=1), "squeezed", "onoff"),
        ("order3", dict(spdc_order=3), "ideal", "pnr"),
        ("order3", dict(spdc_order=3), "squeezed", "onoff"),
        ("exact", dict(spdc_weighting="exact"), "ideal", "onoff"),
        ("exact", dict(spdc_weighting="exact"), "squeezed", "pnr"),
    )
] + [
    pytest.param(pair, "ideal", det, dict(phi=0.7), id=f"{pair}-phi0.7-{det}")
    for pair, det in (("chi", "pnr"), ("vacuum_mixed", "onoff"))
]


@pytest.mark.parametrize("pair,beam,detector,extra", ORACLE_CASES)
def test_factored_herald_matches_dense_oracle(pair, beam, detector, extra):
    # Small amplitudes and cutoffs keep the dense eight-mode state cheap;
    # both paths truncate alike, and the looser tail_tol admits the
    # two-pair term at this detector cutoff.
    kwargs = dict(
        t=0.95,
        eta=0.8,
        alpha_i=0.5,
        pair_source=pair,
        scs_source=beam,
        detector=detector,
        cutoff_b=8,
        tail_tol=1e-6,
    )
    if pair == "vacuum_mixed":
        kwargs["z"] = 0.6
    if pair == "spdc":
        kwargs["lam"] = 0.3
    if beam == "squeezed":
        kwargs.update(s=0.2, n_cut=3)
    config = SchemeConfig(**kwargs, **extra)
    result = run_scheme(config)
    probs, rho = _dense_oracle(config)
    for got, expected in zip(result.diagnostics["pattern_probabilities"], probs):
        assert abs(got - expected) <= 1e-12 * max(probs)
    assert abs(result.probability_total / sum(probs) - 1.0) <= 1e-12
    assert float(np.abs(result.post_state.matrix - rho).max()) <= 1e-12
    # the Gram, not the state, is Hermitised
    matrix = result.post_state.matrix
    assert float(np.abs(matrix - matrix.conj().T).max()) <= 1e-14
    assert abs(np.trace(matrix) - 1.0) <= 1e-12
    # the product-support eigensolve against the full register's
    full = negativity(result.post_state, Bipartition(("A_H", "A_V"), ("B",)))
    assert abs(result.negativity - full) <= 1e-12


FIGURE_4_SPOTS = [
    dict(
        t=0.99,
        eta=0.7,
        alpha_i=alpha_i,
        scs_source="squeezed",
        s=s,
        pair_source="vacuum_mixed",
        z=0.5,
    )
    for alpha_i, s in ((0.7, 0.161), (1.0, 0.313))
]


def _eigensolve_sizes(monkeypatch, config):
    """Dimensions of the matrices `run_scheme(config)` eigensolves."""
    sizes = []
    real = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(
            np.linalg, "eigvalsh", lambda m: sizes.append(m.shape[0]) or real(m)
        )
        result = run_scheme(config)
    return sizes, result


def test_negativity_eigensolve_runs_on_the_product_support(monkeypatch):
    # two signal states |0, 1>, |1, 0> times beam rank 23, not the 297 of
    # the full (A_H, A_V, B) register
    sizes, result = _eigensolve_sizes(
        monkeypatch, SchemeConfig(t=0.9, eta=0.9, alpha_f=2.5)
    )
    assert sizes == [46]
    full = negativity(result.post_state, Bipartition(("A_H", "A_V"), ("B",)))
    assert abs(result.negativity - full) <= 1e-12
    for spot, expected in zip(FIGURE_4_SPOTS, (30, 33)):
        sizes, result = _eigensolve_sizes(monkeypatch, SchemeConfig(**spot))
        # vacuum-mixed pairs use |0, 0>, |0, 1> and |1, 0>
        (_, beam_rank), _ = result.diagnostics["schmidt_ranks"]
        assert sizes == [3 * beam_rank] == [expected]


def test_negativity_cap_checks_the_eigensolved_dimension(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_NEGATIVITY_DIM", 40)
    with pytest.raises(ValidationError, match="dimension 46 exceeds"):
        run_scheme(SchemeConfig(t=0.9, eta=0.9, alpha_f=2.5))
    # a figure 3 row: 2 signal states times beam rank 11
    sizes, result = _eigensolve_sizes(
        monkeypatch, SchemeConfig(t=0.99, eta=0.8, alpha_f=1.5)
    )
    assert sizes == [22] and result.negativity > 0.9


def test_factored_diagnostics_report_schmidt_ranks():
    result = run_scheme(SchemeConfig(**SPOT_A))
    # one pure branch: its vacuum, one-pair and two-pair terms keep 1, 2
    # and 3 signal factors
    ((pair_rank, beam_rank),) = result.diagnostics["schmidt_ranks"]
    assert pair_rank == 6
    assert beam_rank < resolve_cutoffs(SchemeConfig(**SPOT_A)).b + 1
    assert 0.0 <= result.diagnostics["discarded_mass"] < 1e-20


def test_eta_sweep_is_bit_identical_to_runs():
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.2)
    etas = (0.3, 0.6, 0.9)
    serial = sweep(config, {"eta": etas, "t": (0.9, 0.95)})
    threaded = sweep(config, {"eta": etas, "t": (0.9, 0.95)}, threads=2)
    assert serial == threaded
    pipeline._factors.cache_clear()
    for row in serial.rows:
        params = dict(row.params)
        result = run_scheme(dataclasses.replace(config, **params))
        assert row.fidelity == result.fidelity
        assert row.probability_total == result.probability_total
        assert row.negativity == result.negativity
        assert row.tail_mass == result.diagnostics["worst_tail_mass"]


def test_eta_shares_one_preparation(monkeypatch):
    calls = _record_heralds(monkeypatch)
    pipeline._factors.cache_clear()
    sweep(SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0), {"eta": (0.5, 0.7, 0.9)})
    info = pipeline._factors.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # downconversion points share it across lambda too, and their sector
    # heralds are cached per eta
    pipeline._factors.cache_clear()
    pipeline._sector_heralds.cache_clear()
    sweep(SchemeConfig(**SPOT_A), {"lambda": (0.01, 0.02, 0.03), "eta": (0.5, 0.9)})
    assert pipeline._factors.cache_info().misses == 1
    assert pipeline._sector_heralds.cache_info().misses == 2
    # one herald per run, then one per sector (n = 0, 1, 2) per eta
    assert len(calls) == 3 + 3 * 2


def test_too_small_detector_cutoff_raises():
    config = SchemeConfig(t=0.8, eta=0.9, alpha_i=2.0, cutoff_detector=10)
    with pytest.raises(TruncationError):
        run_scheme(config)
    assert run_scheme(dataclasses.replace(config, cutoff_detector=12))


def test_too_small_field_cutoff_raises():
    with pytest.raises(CutoffError):
        run_scheme(SchemeConfig(t=0.9, eta=0.9, alpha_i=1.0, cutoff_b=10))
    # the two-pair term does not fit a signal cutoff of 1
    with pytest.raises(CutoffError):
        run_scheme(SchemeConfig(**dict(SPOT_A, cutoff_a=1)))


SPDC_ORDER_3 = dict(
    t=0.99,
    eta=0.5,
    alpha_i=0.7,
    scs_source="squeezed",
    s=0.161,
    pair_source="spdc",
    lam=0.3,
    spdc_order=3,
    detector="onoff",
)


def test_sweep_runs_higher_spdc_orders_in_full():
    config = SchemeConfig(**SPDC_ORDER_3)
    row = sweep(config, {"eta": (0.5,)}).rows[0]
    result = run_scheme(config)
    assert row.status == "ok"
    assert row.probability_total == result.probability_total
    assert row.fidelity == result.fidelity
    # sweep rows skip the coherent post-state's eigensolve at every order
    assert row.negativity is None and result.negativity > 0.0
    assert row.p_chi == result.diagnostics["p_chi"]
    assert abs(row.probability_total - 4.4635e-4) < 1e-7
    assert abs(row.fidelity - 0.17855) < 1e-5
    assert spdc_decomposition(config)["p_tot"] == row.probability_total


def test_truncation_gate_weights_the_sectors():
    # the unit three-pair sector alone loses more than tail_tol to the
    # detector cutoff; lambda^6 weights that loss far below it
    config = SchemeConfig(**SPDC_ORDER_3)
    factors = pipeline._factors(pipeline._factors_key(config))
    assert factors.tails[3] > config.tail_tol
    tail = run_scheme(config).diagnostics["worst_tail_mass"]
    weights = resource_states.PairSourceSpec.spdc(0.3, 3).sector_weights()
    expected = sum(w * factors.tails[n] for n, w in enumerate(weights))
    assert abs(tail - expected / sum(weights)) <= 1e-15 * tail
    assert tail < 1e-10


def test_spdc_order_one_has_no_two_pair_term():
    config = SchemeConfig(**dict(SPOT_A, lam=0.02, spdc_order=1))
    result = run_scheme(config)
    assert "p_phi2" not in result.diagnostics
    assert result.diagnostics["p_chi"] == pytest.approx(SPOT_A_EXPECTED["p_chi"])
    row = sweep(config, {"lambda": (0.02,)}).rows[0]
    assert row.status == "ok" and row.p_phi2 is None
    assert spdc_decomposition(config)["p_phi2"] is None
    lam2 = 0.02**2
    expected = (1.0 - lam2) * (
        SPOT_A_EXPECTED["p_vac"] + lam2 * SPOT_A_EXPECTED["p_chi"]
    )
    assert row.probability_total == pytest.approx(expected, rel=1e-6)


SWEEP_MATCH_POINTS = [
    pytest.param(SPOT_A, id="spot-a"),
    pytest.param(dict(SPOT_A, alpha_i=1.0, s=0.313, lam=0.038), id="spot-b"),
    pytest.param(dict(SPOT_A, lam=0.002, eta=0.1), id="corner-low"),
    pytest.param(
        dict(SPOT_A, alpha_i=1.0, s=0.313, lam=0.05, eta=0.9), id="corner-high"
    ),
]


@pytest.mark.parametrize("point", SWEEP_MATCH_POINTS)
def test_spdc_sweep_rows_equal_runs(point):
    config = SchemeConfig(**point)
    row = sweep(config, {"lambda": (config.lam,), "eta": (config.eta,)}).rows[0]
    result = run_scheme(config)
    diag = result.diagnostics
    assert row.probability_total == result.probability_total
    assert row.fidelity == result.fidelity
    assert (row.p_vac, row.p_chi, row.p_phi2) == (
        diag["p_vac"], diag["p_chi"], diag["p_phi2"]
    )
    assert row.tail_mass == diag["worst_tail_mass"]
    # the coherent post-state agrees with the sector recombination
    assert abs(pipeline._score(config, result.post_state) - result.fidelity) <= 1e-12
    coherent = sum(diag["pattern_probabilities"])
    assert abs(coherent / result.probability_total - 1.0) <= 1e-12


def test_run_path_leaves_the_dense_oracle_alone(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense oracle called on the run path")

    for module, name in (
        (resource_states, "pair_source"),
        (optics, "apply_displacement"),
        (detection, "herald"),
        (fock_core, "tensor"),
    ):
        monkeypatch.setattr(module, name, forbidden)
        if hasattr(pipeline, name):
            monkeypatch.setattr(pipeline, name, forbidden)
    pipeline._factors.cache_clear()
    pipeline._sector_heralds.cache_clear()
    with pytest.raises(AssertionError):
        build_prestate(SchemeConfig(**SPOT_A))
    for kwargs in (
        dict(pair_source="chi", lam=None),
        dict(pair_source="vacuum_mixed", z=0.5, lam=None),
        dict(spdc_order=1),
        dict(spdc_order=2),
        dict(spdc_order=3),
    ):
        run_scheme(SchemeConfig(**dict(SPOT_A, **kwargs)))
    table = sweep(
        SchemeConfig(**SPOT_A), {"lambda": (0.002, 0.05), "eta": (0.1, 0.9)}
    )
    assert all(row.status == "ok" for row in table.rows)


def test_spdc_components_skip_negativity(monkeypatch):
    calls = []
    real = pipeline.support_negativity
    monkeypatch.setattr(
        pipeline, "support_negativity", lambda *args: calls.append(1) or real(*args)
    )
    pipeline._factors.cache_clear()
    pipeline._sector_heralds.cache_clear()
    spdc_decomposition(SchemeConfig(**SPOT_A))
    assert calls == []
