"""Tests for the end-to-end scheme simulation and the sweep driver.

Frozen ten-digit values are regression anchors produced by this
implementation under the locked conventions.
"""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest

from hybridcat import (
    analytic,
    cli,
    metrics,
    optics,
    oracle,
    pipeline,
    resource_states,
)
from hybridcat.detection import herald_pattern
from hybridcat.errors import (
    CutoffError,
    HeraldImpossibleError,
    TruncationError,
    ValidationError,
)
from hybridcat.fock_core import DensityOperator
from hybridcat.optics import splitter
from hybridcat.pipeline import (
    DETECTORS,
    SWEEP_AXES,
    SchemeConfig,
    resolve_cutoffs,
    run_scheme,
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
        dict(pair_source="vacuum_mixed", z=0.0),
        dict(pair_source="vacuum_mixed", z=1.5),
        dict(pair_source="spdc", lam=1.0),
    ):
        with pytest.raises(ValidationError):
            SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, **source)
    # a cutoff counts photons: at least one, and no bool passes for it
    for field in (
        dict(cutoff_b=-3),
        dict(cutoff_detector=0),
        dict(cutoff_b=2.5),
        dict(cutoff_detector=True),
        dict(cutoff_b=False),
    ):
        with pytest.raises(ValidationError):
            SchemeConfig(t=0.9, eta=0.9, alpha_i=0.7, **field)
    # nor for a float: True would run as 1.0
    valid = dict(t=0.9, eta=0.9, alpha_i=0.7)
    for field, extra in (
        ("t", {}),
        ("eta", {}),
        ("phi", {}),
        ("alpha_i", {}),
        ("alpha_f", dict(alpha_i=None)),
        ("s", dict(scs_source="squeezed")),
        ("z", dict(pair_source="vacuum_mixed")),
        ("lam", dict(pair_source="spdc")),
        ("tail_tol", {}),
    ):
        with pytest.raises(ValidationError, match=f"{field} must be a number"):
            SchemeConfig(**dict(valid, **extra, **{field: True}))
    with pytest.raises(ValidationError):
        SchemeConfig(t=0.9, eta=True, alpha_f=True)


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
    assert small.a == 1
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


def _record_gram_stacks(monkeypatch):
    """Every set of per-sector stacks of plain-pattern Gram blocks that
    `pipeline._eta_grams` returns, as returned; the pipeline gets copies."""
    stacks = []
    real = pipeline._eta_grams

    def record(*args):
        stacks.append(real(*args))
        return {n: stack.copy() for n, stack in stacks[-1].items()}

    monkeypatch.setattr(pipeline, "_eta_grams", record)
    return stacks


def _mirrored(post):
    """The matrix of a state on (A_H, A_V, B) with A_H and A_V swapped."""
    tensor = post.matrix.reshape(post.dims * 2)
    return tensor.transpose(1, 0, 2, 4, 3, 5).reshape(post.matrix.shape)


def test_pattern_probabilities_symmetric(monkeypatch):
    """For every pair source, at default cutoffs, the flipped pattern fires
    with the plain one's probability, in every pair-number sector, and
    leaves the plain state once bit-flipped: the symmetry that lets
    `run_scheme` herald one. The flipped run forms its Grams from the
    flipped pattern. Each run contracts one set of sector stacks, of one
    efficiency, downconversion included."""
    stacks = _record_gram_stacks(monkeypatch)
    plain_pattern = pipeline.herald_pattern

    def flipped(*args):
        return oracle.flipped_pattern(plain_pattern(*args))

    for kwargs in (
        dict(t=0.9, eta=0.9, alpha_f=2.5),
        dict(t=0.99, eta=0.7, alpha_i=1.0, scs_source="squeezed", s=0.313,
             pair_source="vacuum_mixed", z=0.5),
        dict(SPOT_A, lam=0.3),
        dict(t=0.95, eta=0.8, alpha_i=0.9, phi=0.7, detector="onoff"),
    ):
        config = SchemeConfig(**kwargs)
        runs = []
        grams = []
        for pattern in (plain_pattern, flipped):
            monkeypatch.setattr(pipeline, "herald_pattern", pattern)
            stacks.clear()
            runs.append(run_scheme(config))
            (sectors,) = stacks
            assert all(len(stack) == 1 for stack in sectors.values())
            grams.append(np.concatenate([s.ravel() for s in sectors.values()]))
        plain, flip = runs
        assert not np.array_equal(*grams)
        total = plain.probability_total
        assert abs(flip.probability_total - total) <= 1e-12 * total
        assert flip.sector_probabilities.keys() == plain.sector_probabilities.keys()
        for n, p in plain.sector_probabilities.items():
            assert abs(flip.sector_probabilities[n] - p) <= 1e-12 * max(p, total)
        mirrored = _mirrored(flip.post_state)
        assert float(np.abs(mirrored - plain.post_state.matrix).max()) <= 1e-12


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
    "p_vac": 1.264713596e-08,
    "p_chi": 9.766780704e-04,
    "p_phi2": 4.260359997e-02,
    "f_chi": 9.962401869e-01,
    "f_eff": 9.507315775e-01,
    "p_tot": 4.950997267e-07,
}

SPOT_B = dict(SPOT_A, alpha_i=1.0, s=0.313, lam=0.038)

SPOT_B_EXPECTED = {
    "p_vac": 1.887047991e-07,
    "p_chi": 1.429033374e-03,
    "p_phi2": 4.292235670e-02,
    "f_chi": 9.864760431e-01,
    "f_eff": 8.692799634e-01,
    "p_tot": 2.338346488e-06,
}


def _decomposition(config):
    """A downconversion run's numbers under the names of the paper's
    P_tot and F_eff terms."""
    result = run_scheme(config)
    p = result.sector_probabilities
    return dict(
        p_vac=p[0], p_chi=p[1], p_phi2=p[2], f_chi=result.f_chi,
        f_eff=result.fidelity, p_tot=result.probability_total,
    )


def test_spdc_decomposition_frozen_spots():
    got = _decomposition(SchemeConfig(**SPOT_A))
    for key, expected in SPOT_A_EXPECTED.items():
        assert abs(got[key] - expected) < 1e-6 * abs(expected), key

    got = _decomposition(SchemeConfig(**SPOT_B))
    for key, expected in SPOT_B_EXPECTED.items():
        assert abs(got[key] - expected) < 1e-6 * abs(expected), key


def test_spdc_run_reports_component_probabilities():
    result = run_scheme(SchemeConfig(**SPOT_A))
    for n, key in enumerate(("p_vac", "p_chi", "p_phi2")):
        value = result.sector_probabilities[n]
        assert abs(value - SPOT_A_EXPECTED[key]) < 1e-6 * SPOT_A_EXPECTED[key]
    # full-state fidelity coincides with the incoherent effective fidelity
    # because the target lives entirely in the single-pair sector
    assert abs(result.fidelity - SPOT_A_EXPECTED["f_eff"]) < 1e-6
    assert abs(result.probability_total - SPOT_A_EXPECTED["p_tot"]) < 1e-12


def test_spdc_effective_fidelity_identity():
    for spot in (SPOT_A, SPOT_B):
        got = _decomposition(SchemeConfig(**spot))
        rebuilt = analytic.f_eff(
            p_vac=got["p_vac"],
            p_chi=got["p_chi"],
            p_phi2=got["p_phi2"],
            lam=spot["lam"],
            f_chi=got["f_chi"],
        )
        assert abs(rebuilt - got["f_eff"]) < 1e-12


def test_figure_5_totals_are_p_tot_of_their_sector_columns():
    """Each row of both figure-5 panels prints P as the paper's P_tot of
    its own sector columns, (1 - lambda^2)(p_vac + lambda^2 p_chi +
    lambda^4 p_phi2), at full precision."""
    for panel in ("a", "b"):
        columns = sweep(*cli.figure_sweep(5, panel)).columns
        lam2 = columns["lambda"] ** 2
        p_tot = (1.0 - lam2) * (
            columns["p_vac"] + lam2 * columns["p_chi"] + lam2**2 * columns["p_phi2"]
        )
        assert len(p_tot) == 125
        assert np.all(np.abs(columns["probability_total"] - p_tot) <= 1e-14 * p_tot)


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
    assert row.negativity == run_scheme(SchemeConfig(**SPOT_A)).negativity
    assert 0.0 < row.negativity <= 1.0
    assert abs(row.fidelity - SPOT_A_EXPECTED["f_eff"]) < 1e-6
    assert abs(row.p_chi - SPOT_A_EXPECTED["p_chi"]) < 1e-9


def test_sweep_table_rows_read_the_columns():
    """`rows` is a view of the columns: row k holds entry k of every column,
    None where the column is NaN."""
    table = sweep(*cli.figure_sweep(4, "a"))
    assert table.axes == ("eta", "t") and len(table.rows) == len(table.status) == 21
    for k, row in enumerate(table.rows):
        assert row.params == tuple((a, table.columns[a][k]) for a in table.axes)
        for name in pipeline.METRIC_COLUMNS:
            value = table.columns[name][k]
            assert getattr(row, name) == (None if np.isnan(value) else value), name
        assert row.status == table.status[k] == "ok"
    assert all(row.negativity > 0.0 and row.p_chi is None for row in table.rows)


def test_sweep_tables_are_read_only_and_compare_by_rows():
    """The columns cannot be changed under the rows, and two sweeps of one
    grid are equal tables with equal hashes, failed rows included."""
    config, grid = SchemeConfig(t=0.9, eta=0.9, alpha_i=0.6, cutoff_b=14), {"alpha_f": (0.5, 2.4)}
    table, again = sweep(config, grid), sweep(config, grid)
    assert table == again and hash(table) == hash(again)
    assert table != sweep(config, {"alpha_f": (0.5,)})
    with pytest.raises(ValueError):
        table.columns["fidelity"][0] = 0.0
    with pytest.raises(ValueError):
        table.status[0] = "ok"
    with pytest.raises(TypeError):
        table.columns["fidelity"] = np.zeros(2)


def test_cold_figure_5_builds_no_result_objects(monkeypatch, tmp_path):
    """A sweep goes from the score arrays to the table columns: a cold
    figure-5 `reproduce` constructs no `SchemeResult` and no `SweepRow`."""
    built = []
    for cls in (pipeline.SchemeResult, pipeline.SweepRow):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *a, init=init, **k: built.append(self)
            or init(self, *a, **k)
        )
    pipeline._factors.cache_clear()
    argv = ["reproduce", "--figure", "5", "--output", str(tmp_path / "f5.tsv")]
    assert cli.main(argv) == 0
    assert built == []
    assert len(sweep(SchemeConfig(**SPOT_A), {"eta": (0.5,)}).rows) == len(built) == 1


# ---------------------------------------------------------------------------
# the tapped beam


def _record_empty_b_v(patch):
    """The mass each `oracle.lab_frame_beam` call drops when it projects
    the empty B_V onto its vacuum, as `oracle._gated` sees it there."""
    dropped = []
    real = oracle._gated

    def recording(config, branches, stage, op):
        if stage == "the empty B_V":
            dropped.append(sum(np.linalg.norm(a[..., 1:]) ** 2 for _, a in branches))
        return real(config, branches, stage, op)

    patch.setattr(oracle, "_gated", recording)
    return dropped


def _factored_beam(config, cuts):
    """The beam put back together from its Schmidt factors, on (4H, 4V, B)."""
    tap, s, vh, _ = pipeline._beam(config, cuts)
    assert tap.shape[1:] == (cuts.detector + 1, cuts.detector + 1)
    return np.einsum("lij,l,lm->ijm", tap, s, vh)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=0.9, cutoff_detector=13, cutoff_b=32),
        dict(t=0.9, scs_source="squeezed", s=0.313, cutoff_detector=13, cutoff_b=32),
        dict(t=0.8, cutoff_detector=3, tail_tol=0.9),
    ],
    ids=["ideal", "squeezed", "truncated"],
)
def test_closed_form_beam_matches_lab_frame(monkeypatch, kwargs):
    config = SchemeConfig(eta=0.9, alpha_f=2.5, **kwargs)
    cuts = resolve_cutoffs(config)
    beam = _factored_beam(config, cuts)
    dropped = _record_empty_b_v(monkeypatch)
    assert float(np.abs(beam - oracle.lab_frame_beam(config)).max()) <= 1e-14
    # B_V holds nothing, so its projection is a check of its own even where
    # the loose tail_tol of the truncated case would pass almost any loss
    assert len(dropped) == 1 and dropped[0] <= 1e-24
    if config.cutoff_detector == 3:
        # the detector cutoff really truncates this beam
        assert 1.0 - np.linalg.norm(beam) ** 2 > 1e-2


def test_untapped_beam_heralds_nothing(monkeypatch):
    config = SchemeConfig(t=1.0, eta=0.9, alpha_i=1.0)
    cuts = resolve_cutoffs(config)
    tap, _, _, _ = pipeline._beam(config, cuts)
    assert len(tap) == 1
    beam = _factored_beam(config, cuts)
    assert np.isfinite(beam).all()
    dropped = _record_empty_b_v(monkeypatch)
    assert float(np.abs(beam - oracle.lab_frame_beam(config)).max()) <= 1e-14
    assert len(dropped) == 1 and dropped[0] <= 1e-24
    # untapped, the beam is the source's first b + 1 amplitudes
    reach = cuts.b + 2 * cuts.detector
    source = resource_states.source_amplitudes(
        config.resolved_alpha_i, config.phi, config.s, cuts.b, reach
    )
    source = source[: cuts.b + 1]
    assert float(np.abs(beam[0, 0] - source).max()) <= 1e-14
    with pytest.raises(HeraldImpossibleError):
        run_scheme(config)


@pytest.mark.parametrize(
    "alpha_f, ranks", [(3.5, (2, 2)), (5.0, (2, 2)), (7.0, (2, 2))]
)
def test_large_amplitude_runs_on_the_closed_forms(alpha_f, ranks):
    """Amplitude reach: the joint tensor is never formed, so a run at
    alpha_f = 7 stays on the closed forms at default cutoffs, on the cat's
    exactly rank-2 beam."""
    result = run_scheme(SchemeConfig(t=0.9, eta=0.9, alpha_f=alpha_f))
    assert abs(result.fidelity - analytic.fidelity_eta(alpha_f, 0.9, 0.9)) <= 1e-12
    assert abs(result.probability_total / result.analytic_p_tot - 0.5) <= 1e-12
    assert result.schmidt_ranks == ranks


def test_ideal_cat_beam_is_rank_two(monkeypatch):
    """The tapped cat is a sum of two coherent products. With the source
    run to b + 2d photons the box is a projection of it on each side, so
    the roundoff rank cut keeps exactly its two Schmidt vectors at every
    figure-2 and figure-3 preparation and at alpha_f = 2.5."""
    ranks = []
    beam = pipeline._beam

    def recorded(*args):
        factors = beam(*args)
        ranks.append(len(factors[1]))
        return factors

    monkeypatch.setattr(pipeline, "_beam", recorded)
    pipeline._factors.cache_clear()
    sweep(*cli.figure_sweep(2, None))
    sweep(*cli.figure_sweep(3, None))
    result = run_scheme(SchemeConfig(t=0.9, eta=0.9, alpha_f=2.5))
    assert result.schmidt_ranks == (2, 2)
    # 11 transmissivities of figure 2, 6 amplitudes of figure 3 (one of them
    # figure 2's t = 0.99 preparation, served from the cache), one run
    assert ranks == [2] * (len(cli._FIG2_T) + len(cli._FIG3_ALPHA))


def test_plain_probability_is_half_the_total():
    """The plain pattern's P is derived, not stored: a read-only property
    equal to half of `probability_total` on runs of every pair source."""
    assert "plain_probability" not in {
        field.name for field in dataclasses.fields(pipeline.SchemeResult)
    }
    for kwargs in SOURCES.values():
        result = run_scheme(SchemeConfig(**kwargs))
        assert result.plain_probability == result.probability_total / 2
        with pytest.raises(AttributeError):
            result.plain_probability = 0.0


def test_post_state_is_embedded_at_first_read(monkeypatch):
    calls = []
    embed = pipeline._embed
    monkeypatch.setattr(
        pipeline, "_embed", lambda *args: calls.append(1) or embed(*args)
    )
    result = run_scheme(SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0))
    assert calls == []
    state = result.post_state
    assert result.post_state is state and calls == [1]
    assert abs(np.trace(state.matrix).real - 1.0) <= 1e-12
    row = sweep(SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0), {"eta": (0.9,)}).rows[0]
    assert row.fidelity == result.fidelity and calls == [1]


# ---------------------------------------------------------------------------
# factored herald against the dense oracle


def _dense_oracle(config):
    """Pattern probabilities and combined post-state from the dense state,
    both patterns heralded by `oracle.herald_patterns`, on the modes
    `run_scheme` reports."""
    (p_plain, plain), (p_flipped, flipped) = oracle.herald_patterns(config)
    matrix = (p_plain * plain + p_flipped * flipped) / (p_plain + p_flipped)
    return (p_plain, p_flipped), matrix


def _full_negativity(post):
    """The (A_H, A_V | B) negativity eigensolved on the whole post-state."""
    return metrics.matrix_negativity(post.matrix, post.dims[0] * post.dims[1])


def _target(config, post):
    """The dense hybrid target on the post-state's modes, flattened."""
    return oracle.target_hybrid(config.resolved_alpha_f, config.phi, post.dims).ravel()


# the ids keep naming the displacement convention, "diagonal" (the only one)
ORACLE_CASES = [
    pytest.param(*case, {}, id="-".join(case + ("diagonal",)))
    for case in itertools.product(
        ("chi", "vacuum_mixed", "spdc"), ("ideal", "squeezed"), ("pnr", "onoff")
    )
] + [
    pytest.param(pair, "ideal", det, dict(phi=0.7), id=f"{pair}-phi0.7-{det}")
    for pair, det in (("chi", "pnr"), ("vacuum_mixed", "onoff"))
]


@pytest.mark.parametrize("pair,beam,detector,extra", ORACLE_CASES)
def test_factored_herald_matches_dense_oracle(pair, beam, detector, extra):
    # Small amplitudes and cutoffs keep the dense seven-mode state cheap;
    # both paths truncate alike, at the default tail_tol.
    kwargs = dict(
        t=0.95,
        eta=0.8,
        alpha_i=0.5,
        pair_source=pair,
        scs_source=beam,
        detector=detector,
        cutoff_b=8,
    )
    if pair == "vacuum_mixed":
        kwargs["z"] = 0.6
    if pair == "spdc":
        kwargs["lam"] = 0.3
    if beam == "squeezed":
        # the squeezed photon's cutoff contract needs b >= 9 at s = 0.1
        kwargs.update(s=0.1, cutoff_b=9)
    config = SchemeConfig(**kwargs, **extra)
    result = run_scheme(config)
    probs, rho = _dense_oracle(config)
    plain = result.plain_probability
    for expected in probs:
        assert abs(plain - expected) <= 1e-12 * max(probs)
    assert abs(result.probability_total / sum(probs) - 1.0) <= 1e-12
    assert float(np.abs(result.post_state.matrix - rho).max()) <= 1e-12
    # the Gram, not the state, is Hermitised
    matrix = result.post_state.matrix
    assert float(np.abs(matrix - matrix.conj().T).max()) <= 1e-14
    assert abs(np.trace(matrix) - 1.0) <= 1e-12
    # the term-basis eigensolve against the full register's
    assert abs(result.negativity - _full_negativity(result.post_state)) <= 1e-12
    # the term-basis target coefficients against the dense target
    target = _target(config, result.post_state)
    dense = np.vdot(target, rho @ target).real
    assert abs(result.fidelity - dense) <= 1e-12


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


def _interfered_factors(config):
    """The measured factors Z of `config` the long way: the 50:50 splitter's
    dense matrix, scattered here from its amplitudes, applied on (4H, 2H)
    and on (4V, 2V) to every explicit product u_k (x) v_k (x) T_l, rows
    (k, l) over (6H, 5H, 6V, 5V)."""
    factors = pipeline._factors(pipeline._factors_key(config))
    dim = factors.cuts.detector + 1
    disp = optics.displacement_matrix(
        pipeline._displacement_amplitude(config), factors.cuts.detector
    )
    amplitudes = optics.mixer_amplitudes(splitter(0.5), dim, dim)
    # kernel[a, b, i, x]: output (a, b) on (6, 5) from input (i, x) on (4, 2)
    i, x, a = np.nonzero(amplitudes)
    kernel = np.zeros((dim,) * 4, dtype=np.complex128)
    kernel[a, i + x - a, i, x] = amplitudes[i, x, a]
    # signal |m, n - m> pairs with idler D|n - m> on 2H and D|m> on 2V
    m, n_minus_m = np.divmod(factors.signal_states, factors.cuts.a + 1)
    rows = []
    for u, v in zip(disp[:, n_minus_m].T, disp[:, m].T):
        for tap in factors.tap:
            product = np.einsum("ij,x,y->ixjy", tap, u, v)
            image = np.einsum(
                "abix,cdjy,ixjy->abcd", kernel, kernel, product, optimize=True
            )
            rows.append(image.ravel())
    return factors, np.array(rows)


@pytest.mark.parametrize(
    "kwargs", [dict(t=0.9, eta=0.9, alpha_f=1.0), SPOT_A]
)
def test_pulled_back_gram_matches_interfered_factors(kwargs):
    factors, z = _interfered_factors(SchemeConfig(**kwargs))
    ones = np.ones(factors.cuts.detector + 1)
    cases = [dict.fromkeys(("5H", "5V", "6H", "6V"), ones)]
    for detector, eta, flipped in itertools.product(
        ("pnr", "onoff"), (0.1, 0.7, 1.0), (False, True)
    ):
        pattern = herald_pattern(detector, eta, factors.cuts.detector)
        cases.append(oracle.flipped_pattern(pattern) if flipped else pattern)
    n_k, n_l = len(factors.signal_states), factors.beam_rank
    for w in cases:
        w_h, w_v = (np.outer(w["6" + p], w["5" + p]).ravel() for p in "HV")
        weights = np.outer(w_h, w_v).ravel()
        expected = ((z * weights) @ z.conj().T).reshape(n_k, n_l, n_k, n_l)
        # pair blocks (k, m), k-major
        expected = expected.transpose(0, 2, 1, 3).reshape(-1, n_l, n_l)
        bound = 1e-13 * np.abs(expected).max()
        # the pairs inside one sector, the only ones `_gram` contracts
        ks, ms = factors.pairs
        got = pipeline._gram(factors, w)
        assert np.abs(got - expected[ks * n_k + ms]).max() <= bound


def _record_eigensolves(patch):
    """Shapes of the stacks every `np.linalg.eigvalsh` call solves."""
    shapes = []
    real = np.linalg.eigvalsh
    patch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or real(m))
    return shapes


def _eigensolve_sizes(monkeypatch, config):
    """Shapes of the stacks `run_scheme(config)` eigensolves."""
    with monkeypatch.context() as patch:
        shapes = _record_eigensolves(patch)
        result = run_scheme(config)
    return shapes, result


def test_negativity_eigensolve_runs_on_the_product_support(monkeypatch):
    # two signal states |0, 1>, |1, 0> times the cat's beam rank 2, not the
    # 297 of the full (A_H, A_V, B) register
    sizes, result = _eigensolve_sizes(
        monkeypatch, SchemeConfig(t=0.9, eta=0.9, alpha_f=2.5)
    )
    # one run, one efficiency: a stack of one
    assert sizes == [(1, 4, 4)]
    assert abs(result.negativity - _full_negativity(result.post_state)) <= 1e-12
    for spot, expected in zip(FIGURE_4_SPOTS, (18, 20)):
        sizes, result = _eigensolve_sizes(monkeypatch, SchemeConfig(**spot))
        # vacuum-mixed pairs use |0, 0>, |0, 1> and |1, 0>; the vacuum
        # sector's one state is its own partial transpose and is skipped
        signal_states, beam_rank = result.schmidt_ranks
        assert signal_states == 3
        assert sizes == [(1, 2 * beam_rank, 2 * beam_rank)]
        assert 2 * beam_rank == expected


def test_negativity_cap_checks_the_eigensolved_dimension(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_NEGATIVITY_DIM", 18)
    # a figure 4 spot: the one-pair sector's 2 signal states times beam
    # rank 10; the cap trips before any eigensolve
    config = SchemeConfig(**FIGURE_4_SPOTS[1])
    with monkeypatch.context() as patch:
        shapes = _record_eigensolves(patch)
        with pytest.raises(ValidationError, match="dimension 20 exceeds"):
            run_scheme(config)
        # the cap sees the dimension, not the stack: every row of a sweep fails
        table = sweep(config, {"eta": (0.5, 0.7, 0.9)})
    assert shapes == []
    assert [row.status for row in table.rows] == ["error:ValidationError"] * 3
    # a figure 3 row: 2 signal states times beam rank 2
    sizes, result = _eigensolve_sizes(
        monkeypatch, SchemeConfig(t=0.99, eta=0.8, alpha_f=1.5)
    )
    assert sizes == [(1, 4, 4)] and result.negativity > 0.9
    # a figure 3 preparation: its five efficiencies in one stack
    with monkeypatch.context() as patch:
        shapes = _record_eigensolves(patch)
        table = sweep(
            SchemeConfig(t=0.99, eta=0.8, alpha_f=1.5),
            {"eta": (0.2, 0.4, 0.6, 0.8, 0.99)},
        )
    assert shapes == [(5, 4, 4)]
    assert all(row.status == "ok" for row in table.rows)


def test_factored_run_reports_schmidt_ranks():
    result = run_scheme(SchemeConfig(**SPOT_A))
    # the vacuum, one-pair and two-pair sectors keep 1, 2 and 3 signal
    # factors
    pair_rank, beam_rank = result.schmidt_ranks
    assert pair_rank == 6
    assert result.cutoffs == resolve_cutoffs(SchemeConfig(**SPOT_A))
    assert beam_rank < result.cutoffs.b + 1
    assert 0.0 <= result.discarded_mass < 1e-20


def test_eta_sweep_is_bit_identical_to_runs():
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.2)
    etas = (0.3, 0.6, 0.9)
    table = sweep(config, {"eta": etas, "t": (0.9, 0.95)})
    pipeline._factors.cache_clear()
    for row in table.rows:
        params = dict(row.params)
        result = run_scheme(dataclasses.replace(config, **params))
        assert row.fidelity == result.fidelity
        assert row.probability_total == result.probability_total
        assert row.negativity == result.negativity
        assert row.tail_mass == result.tail_mass


def _record_grams(monkeypatch):
    """Every call of `pipeline._gram` as (its pairs, and the pair blocks it
    returns)."""
    grams = []
    real = pipeline._gram

    def record(factors, w):
        grams.append((factors.pairs, real(factors, w)))
        return grams[-1][1]

    monkeypatch.setattr(pipeline, "_gram", record)
    return grams


def _sector_matrix(blocks, n_l):
    """Pair blocks (k, m) of one sector, k-major, as its Gram block with
    rows (k, l) and columns (m, n)."""
    q = math.isqrt(len(blocks))
    return blocks.reshape(q, q, n_l, n_l).transpose(0, 2, 1, 3).reshape(q * n_l, -1)


def test_eta_shares_one_preparation(monkeypatch):
    stacks = _record_gram_stacks(monkeypatch)
    grams = _record_grams(monkeypatch)
    shapes = _record_eigensolves(monkeypatch)
    pipeline._factors.cache_clear()
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
    sweep(config, {"eta": (0.5, 0.7, 0.9)})
    info = pipeline._factors.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    # one Gram per efficiency, contracted on its own over every pair, which
    # lie inside the one sector; the truncation deficit reads only the
    # Gram's diagonal blocks and forms no Gram
    factors = pipeline._factors(pipeline._factors_key(config))
    every = np.divmod(np.arange(len(factors.signal_states) ** 2), len(factors.signal_states))
    assert len(grams) == 3
    assert all(np.array_equal(a, b) for pairs, _ in grams for a, b in zip(pairs, every))
    # the chi pair's one sector: one stack of the three Grams and one
    # stacked eigensolve
    (sectors,) = stacks
    (stack,) = sectors.values()
    size = stack.shape[1]
    n_l = factors.beam_rank
    assert stack.shape == (3, size, size)
    for (_, gram), stacked in zip(grams, stack):
        assert np.array_equal(_sector_matrix(gram, n_l), stacked)
    assert shapes == [(3, size, size)]
    # downconversion points share it across lambda too: one Gram per
    # efficiency, on the pairs inside one sector, scores every sector at
    # every lambda, and each sector of more than one signal state takes one
    # eigensolve, stacked over the efficiencies, for every lambda
    stacks.clear()
    grams.clear()
    shapes.clear()
    pipeline._factors.cache_clear()
    sweep(SchemeConfig(**SPOT_A), {"lambda": (0.01, 0.02, 0.03), "eta": (0.5, 0.9)})
    assert pipeline._factors.cache_info().misses == 1
    factors = pipeline._factors(pipeline._factors_key(SchemeConfig(**SPOT_A)))
    inside = factors.pairs
    (sectors,) = stacks
    assert len(grams) == 2
    for i, (pairs, gram) in enumerate(grams):
        assert all(np.array_equal(a, b) for a, b in zip(pairs, inside))
        start = 0
        for n, stack in sectors.items():
            block = gram[start:start + (n + 1) ** 2]
            assert np.array_equal(stack[i], _sector_matrix(block, factors.beam_rank))
            start += (n + 1) ** 2
        assert start == len(gram)
    n_l = factors.beam_rank
    assert shapes == [(2, 2 * n_l, 2 * n_l), (2, 3 * n_l, 3 * n_l)]
    # a downconversion run makes one `_gram` call, on the same pairs, and
    # eigensolves each sector's block, never the whole state
    stacks.clear()
    grams.clear()
    shapes.clear()
    result = run_scheme(SchemeConfig(**SPOT_A))
    (sectors,) = stacks
    assert all(len(stack) == 1 for stack in sectors.values())
    assert len(grams) == 1
    assert all(np.array_equal(a, b) for a, b in zip(grams[0][0], inside))
    assert shapes == [(1, 2 * n_l, 2 * n_l), (1, 3 * n_l, 3 * n_l)]
    assert 0.0 < result.negativity <= 1.0


FIGURE_5B = dict(SPOT_A, alpha_i=1.0, s=0.313)


def test_figure_5_sweep_contracts_only_the_sector_blocks(monkeypatch):
    """A cold figure-5b table contracts, once per efficiency, only the 14
    of the 36 pairs (k, m) of pair factors that lie inside one pair-number
    sector, and their blocks are the ones `run_scheme` contracts at that
    point, in its one `_gram` call, bit for bit."""
    grams = _record_grams(monkeypatch)
    pipeline._factors.cache_clear()
    table = sweep(*cli.figure_sweep(5, "b"))
    etas = sorted({dict(row.params)["eta"] for row in table.rows})
    factors = pipeline._factors(pipeline._factors_key(SchemeConfig(**FIGURE_5B)))
    n_k, n_l = len(factors.signal_states), factors.beam_rank
    assert n_k == 6 and len(grams) == len(etas) == 5
    swept = list(grams)
    for eta, (pairs, blocks) in zip(etas, swept):
        assert len(pairs[0]) == 14
        grams.clear()
        run_scheme(SchemeConfig(**dict(FIGURE_5B, eta=eta)))
        ((run_pairs, run_blocks),) = grams
        assert all(np.array_equal(a, b) for a, b in zip(run_pairs, pairs))
        assert run_blocks.shape == (14, n_l, n_l)
        assert np.array_equal(run_blocks, blocks)


@pytest.mark.parametrize(
    "kwargs",
    FIGURE_4_SPOTS
    + [dict(FIGURE_4_SPOTS[1], z=0.3), dict(t=0.84, eta=0.7, alpha_f=1.0)]
    + [SPOT_A, SPOT_B],
)
def test_sector_negativities_sum_to_the_whole_state(kwargs):
    """Every pair source's heralded state is the mixture of its sectors,
    block diagonal, so the weighted sum of the sector blocks' negativities
    is the whole state's, downconversion's at both conversion spots too."""
    result = run_scheme(SchemeConfig(**kwargs))
    _, rho = result._heralded
    whole = metrics.matrix_negativity(rho, result.schmidt_ranks[0])
    assert abs(result.negativity - whole) <= 1e-13


def test_conversion_spot_negativities():
    """The pair-number mixture's negativity at the two conversion spots, a
    polarization qubit's, below its maximum of 1."""
    for kwargs, expected in ((SPOT_A, 0.877631504244), (SPOT_B, 0.862340131398)):
        assert abs(run_scheme(SchemeConfig(**kwargs)).negativity - expected) < 1e-9


def test_the_squeezed_photons_mass_above_b_counts_in_the_tail():
    """At the figure-5a spot (b = 15) the source runs past b and the box
    keeps the field up to b: each photon stays in the field with
    probability t, so at least t^(b + 1) of the photon's mass above b
    leaves the box and enters every sector's deficit."""
    result = run_scheme(SchemeConfig(**SPOT_A))
    b = result.cutoffs.b
    assert b == 15
    amps = resource_states.squeezed_amplitudes(SPOT_A["s"], 80)
    above = float(np.sum(np.abs(amps[b + 1 :]) ** 2))
    assert 1e-13 < SPOT_A["t"] ** (b + 1) * above <= result.tail_mass


def _largest_move(config, **cutoffs) -> float:
    """How far F and N move, and P relative to itself, when `config` runs
    at the given cutoffs instead of its own."""
    base, raised = run_scheme(config), run_scheme(dataclasses.replace(config, **cutoffs))
    return max(
        abs(raised.fidelity - base.fidelity),
        abs(raised.negativity - base.negativity),
        abs(raised.probability_total / base.probability_total - 1.0),
    )


@pytest.mark.parametrize("spot", [SPOT_A, SPOT_B], ids=["5a", "5b"])
def test_conversion_spots_converge_in_the_cutoffs(spot):
    """Raising the field cutoff by 6 and the detector cutoff by 4 moves
    F, N and P/P by at most 1e-10."""
    config = SchemeConfig(**spot)
    cuts = resolve_cutoffs(config)
    raised = dict(cutoff_b=cuts.b + 6, cutoff_detector=cuts.detector + 4)
    assert _largest_move(config, **raised) <= 1e-10


def test_a_large_detector_cutoff_runs_the_squeezed_photon():
    """At cutoff_detector = 80 the source runs to b + 2d = 185 photons, past
    where (2n + 1)! overflows a float: the run raises no `OverflowError`,
    and its numbers are the default cutoffs' within 1e-10."""
    config = SchemeConfig(**dict(FIGURE_4_SPOTS[1], pair_source="chi", z=None))
    assert _largest_move(config, cutoff_detector=80) <= 1e-10


SOURCES = {
    "chi": dict(t=0.9, eta=0.9, alpha_f=1.0),
    "vacuum_mixed": FIGURE_4_SPOTS[1],
    "spdc": SPOT_A,
}


def test_sweep_reports_each_efficiency_of_a_preparation_on_its_own():
    """For every pair source, eta = 0 cannot herald: one herald-floor rule
    fails its row alone, and the other rows of the same preparation equal
    their runs bit for bit, negativity included."""
    for source, kwargs in SOURCES.items():
        config = SchemeConfig(**kwargs)
        table = sweep(config, {"eta": (0.0, 0.5, 0.9)})
        statuses = [row.status for row in table.rows]
        assert statuses == ["error:HeraldImpossibleError", "ok", "ok"], source
        with pytest.raises(HeraldImpossibleError):
            run_scheme(dataclasses.replace(config, eta=0.0))
        for row in table.rows[1:]:
            result = run_scheme(dataclasses.replace(config, **dict(row.params)))
            sectors = result.sector_probabilities if source == "spdc" else {}
            expected = pipeline.SweepRow(
                row.params, result.fidelity, result.probability_total, result.negativity,
                *(sectors.get(n) for n in range(3)), result.tail_mass,
            )
            assert row == expected, source


def _clear_program_caches():
    """Empty every functools cache in the `hybridcat` modules, found by
    attribute, so that a cache added later is emptied too."""
    for name, module in list(sys.modules.items()):
        if name == "hybridcat" or name.startswith("hybridcat."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    value.cache_clear()


def _cold_peak(call):
    """The traced memory peak of `call()` with the program's caches empty."""
    _clear_program_caches()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cold_figure_4_sweep_stays_small():
    """The per-efficiency Gram contractions are not stacked, only their
    sector blocks: the traced peak of a cold figure-4 panel-b table stays
    below 2 MB."""
    assert _cold_peak(lambda: sweep(*cli.figure_sweep(4, "b"))) < 2e6


def test_cold_figure_5_sweep_stays_small():
    """A downconversion sweep holds each sector's Gram blocks and never the
    blocks between sectors: the traced peak of a cold figure-5 panel-b
    table stays below 0.95 MB (the five efficiencies' whole 66 x 66 Grams
    and their copies kept it above 1 MB)."""
    assert _cold_peak(lambda: sweep(*cli.figure_sweep(5, "b"))) < 0.95e6


def test_cold_large_amplitude_run_stays_small():
    """No array spans all four detector channels: the traced peak of one
    cold run at alpha_f = 2.5 stays below the 28 MB that the interfered
    factors Z (46 x 14^4 complex) would take alone."""
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=2.5)
    assert _cold_peak(lambda: run_scheme(config)) < 16e6


def test_cold_alpha_7_run_stays_small():
    """The idler images come from the 50:50 splitter's (d + 1)^3
    photon-number-conserving amplitudes, never its dense (d + 1)^4 matrix
    (27 MB at d = 35), the cat's beam is rank 2, and the Gram holds no
    adjoint copy of an image: the traced peak of one cold run at
    alpha_f = 7 stays below 8 MB. The run's F is the closed form's, the
    one accuracy pin at this amplitude."""
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=7.0)
    results = []
    assert _cold_peak(lambda: results.append(run_scheme(config))) < 8e6
    assert abs(results[0].fidelity - analytic.fidelity_eta(7.0, 0.9, 0.9)) <= 1e-12


def test_too_small_detector_cutoff_raises():
    config = SchemeConfig(t=0.8, eta=0.9, alpha_i=2.0, cutoff_detector=10)
    with pytest.raises(TruncationError):
        run_scheme(config)
    assert run_scheme(dataclasses.replace(config, cutoff_detector=12))


def test_too_small_field_cutoff_raises():
    # each source's cutoff contract holds at b, though the beam is built
    # from the source up to b + 2d photons
    small = SchemeConfig(t=0.9, eta=0.9, alpha_i=1.0, cutoff_b=10)
    # the squeezed photon at s = 0.2 needs b >= 13
    squeezed = dataclasses.replace(small, scs_source="squeezed", s=0.2, cutoff_b=12)
    for config in (small, squeezed):
        with pytest.raises(CutoffError):
            run_scheme(config)
        with pytest.raises(CutoffError):
            oracle.lab_frame_beam(config)


def test_pair_number_above_the_detector_cutoff_raises():
    """The signal cutoff is the source's largest pair number, so only the
    detector cutoff can be too small for a pair term: downconversion's two
    pairs fail at cutoff_detector = 1, and at 2 the displacement is the
    first to need more."""
    config = SchemeConfig(**dict(SPOT_A, cutoff_detector=1))
    assert resolve_cutoffs(config).a == 2
    with pytest.raises(CutoffError, match="2 pairs need cutoff_detector >= 2"):
        run_scheme(config)
    with pytest.raises(CutoffError, match="displacement"):
        run_scheme(dataclasses.replace(config, cutoff_detector=2))


def test_post_state_signal_modes_stop_at_the_largest_pair_number():
    """(A_H, A_V) hold exactly n photons in the n-pair term, so the signal
    cutoff is the largest pair number: 2 x 2 x 33 = 132 dimensions for the
    Bell pair at alpha_f = 2.5, and 3 x 3 x 16 = 144 for downconversion on
    the squeezed source."""
    for kwargs, dims in (
        (dict(t=0.9, eta=0.9, alpha_f=2.5), (2, 2, 33)),
        (SPOT_A, (3, 3, 16)),
    ):
        post = run_scheme(SchemeConfig(**kwargs)).post_state
        assert isinstance(post, DensityOperator)
        assert post.labels == ("A_H", "A_V", "B")
        assert post.dims == dims
        assert post.matrix.shape == (math.prod(dims),) * 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.dims = ()


def test_a_cold_preparation_evaluates_its_source_once(monkeypatch):
    """The beam takes the source up to b + 2d photons from one evaluation,
    its cutoff contract checked on that vector's first b + 1 entries: the
    cat's two coherent vectors once, the squeezed photon's expansion once,
    in `_factors` and in the dense oracle alike."""
    calls = []
    for name in ("coherent_amplitudes", "squeezed_amplitudes"):
        real = getattr(resource_states, name)
        monkeypatch.setattr(
            resource_states, name,
            lambda *args, real=real, name=name: calls.append(name) or real(*args),
        )
    cat = ["coherent_amplitudes"] * 2
    for kwargs, expected in (
        (dict(t=0.9, eta=0.9, alpha_f=1.0), cat),
        (FIGURE_4_SPOTS[1], ["squeezed_amplitudes"]),
    ):
        calls.clear()
        pipeline._factors.cache_clear()
        pipeline._factors(pipeline._factors_key(SchemeConfig(**kwargs)))
        assert calls == expected
    calls.clear()
    oracle.lab_frame_beam(SchemeConfig(t=0.95, eta=0.8, alpha_i=0.5, cutoff_b=8))
    assert calls == cat


@pytest.mark.parametrize(
    "kwargs", [FIGURE_4_SPOTS[1], SPOT_A], ids=["figure-4b", "spot-a"]
)
def test_discarded_beam_mass_is_counted_once(monkeypatch, kwargs):
    """`_beam` cut to its first two vectors: each sector's deficit rises by
    the mass of the terms it drops, which is the discarded singular mass
    times those terms' unit-POVM norms (just below one), so by the
    discarded mass once, not twice."""
    key = pipeline._factors_key(SchemeConfig(**kwargs))
    pipeline._factors.cache_clear()
    full = pipeline._factors(key)
    norms = full.scale**2 * pipeline._unit_norms(full.idler_h, full.idler_v, full.tap)
    dropped = np.arange(len(full.scale)) % full.beam_rank >= 2
    beam = pipeline._beam

    def cut(config, cuts):
        tap, s, vh, discarded = beam(config, cuts)
        return tap[:2], s[:2], vh[:2], discarded + float(np.sum(s[2:] ** 2))

    monkeypatch.setattr(pipeline, "_beam", cut)
    pipeline._factors.cache_clear()
    factors = pipeline._factors(key)
    pipeline._factors.cache_clear()
    extra = factors.discarded - full.discarded
    assert extra > 1e-8
    for n, span in full.blocks.items():
        rise = factors.tails[n] - full.tails[n]
        assert abs(rise - norms[span][dropped[span]].sum()) <= 1e-15
        assert abs(rise - extra) <= 1e-4 * extra


def test_truncation_gate_weights_the_sectors():
    # the unit two-pair sector alone loses more than tail_tol to the
    # detector cutoff; lambda^4 weights that loss far below it
    config = SchemeConfig(**dict(SPOT_A, t=0.95, lam=0.1, cutoff_detector=5))
    factors = pipeline._factors(pipeline._factors_key(config))
    assert factors.tails[2] > config.tail_tol
    tail = run_scheme(config).tail_mass
    weights = resource_states.sector_weights("spdc", None, 0.1)
    expected = sum(w * factors.tails[n] for n, w in weights.items())
    assert abs(tail - expected / sum(weights.values())) <= 1e-15 * tail
    assert tail < 1e-10


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
    assert row.probability_total == result.probability_total
    assert row.fidelity == result.fidelity
    assert (row.p_vac, row.p_chi, row.p_phi2) == tuple(
        result.sector_probabilities[n] for n in range(3)
    )
    assert row.tail_mass == result.tail_mass
    assert row.negativity == result.negativity
    # the post-state, the sectors' mixture, agrees with the recombination:
    # its trace is one and its overlap is F
    post = result.post_state
    target = _target(config, post)
    assert abs(np.vdot(target, post.matrix @ target).real - result.fidelity) <= 1e-12
    assert abs(np.trace(post.matrix).real - 1.0) <= 1e-12


def test_run_path_leaves_the_dense_oracle_alone(monkeypatch, tmp_path):
    """Every public name of `oracle`, patched in every `hybridcat` module
    that holds it, fails when called; `run`, `sweep`, `reproduce` and
    `run_scheme` never reach one."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense oracle called on the run path")

    api = {
        name: value
        for name, value in vars(oracle).items()
        if not name.startswith("_")
        and isinstance(value, (types.FunctionType, type))
        and value.__module__ == oracle.__name__
    }
    assert {"herald_patterns", "lab_frame_beam", "herald", "mix"} <= set(api)
    held = {id(value) for value in api.values()}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hybridcat":
            for attr, value in list(vars(module).items()):
                if id(value) in held:
                    monkeypatch.setattr(module, attr, forbidden)
    pipeline._factors.cache_clear()
    with pytest.raises(AssertionError):
        oracle.herald_patterns(SchemeConfig(**SPOT_A))
    scenario = "".join(
        f"{'lambda' if key == 'lam' else key} = {value}\n"
        for key, value in SPOT_A.items()
    )
    run_path = tmp_path / "run.txt"
    run_path.write_text(scenario, encoding="utf-8")
    sweep_path = tmp_path / "sweep.txt"
    sweep_path.write_text(
        scenario + "sweep_lambda = 0.002, 0.05\nsweep_eta = 0.1, 0.9\n",
        encoding="utf-8",
    )
    commands = [
        ["run", "--scenario", str(run_path), "--output", str(tmp_path / "run.tsv")],
        ["sweep", "--scenario", str(sweep_path), "--output", str(tmp_path / "s.tsv")],
    ] + [
        ["reproduce", "--figure", str(f), "--output", str(tmp_path / f"f{f}.tsv")]
        for f in (2, 3, 4, 5)
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    for kwargs in (
        dict(pair_source="chi", lam=None),
        dict(pair_source="vacuum_mixed", z=0.5, lam=None),
        dict(),
    ):
        run_scheme(SchemeConfig(**dict(SPOT_A, **kwargs)))


def test_spdc_sweep_eigensolves_each_sector_once(monkeypatch):
    """A downconversion preparation eigensolves each sector of more than
    one signal state once, stacked over its efficiencies, for all its
    lambda: the one-pair and two-pair blocks, 2 and 3 signal states times
    the beam rank; the vacuum sector's one state is skipped."""
    shapes = _record_eigensolves(monkeypatch)
    pipeline._factors.cache_clear()
    config = SchemeConfig(**SPOT_A)
    table = sweep(config, {"lambda": (0.01, 0.022, 0.038), "eta": (0.5, 0.9)})
    n_l = pipeline._factors(pipeline._factors_key(config)).beam_rank
    assert shapes == [(2, 2 * n_l, 2 * n_l), (2, 3 * n_l, 3 * n_l)]
    assert all(row.p_chi > 0.0 and 0.0 < row.negativity <= 1.0 for row in table.rows)


@pytest.mark.parametrize("detector", DETECTORS)
def test_ideal_cat_vacuum_sector_cannot_herald(detector):
    """With the ideal cat the idler displacement equals the tap amplitude
    on each polarization, so at the 50:50 splitters each cat branch sends
    all its light to the 5 channels or all to the 6 channels. Either way
    5V or 6H stays in vacuum, so the vacuum pair sector cannot fire the
    plain pattern: p_vac = 0 up to truncation, at any efficiency."""
    for alpha_i, eta, t in itertools.product(
        (0.7, 1.0, 1.5), (0.1, 0.5, 1.0), (0.9, 0.99)
    ):
        config = SchemeConfig(
            t=t, eta=eta, alpha_i=alpha_i, pair_source="spdc", lam=0.05,
            detector=detector,
        )
        got = sweep(config, {"eta": (eta,)}).rows[0]
        assert got.p_vac <= 1e-10 * got.p_chi, (alpha_i, eta, t)
