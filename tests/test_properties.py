"""Properties over random valid configurations (hypothesis; see
conftest.py for the profile)."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hybridcat import metrics  # noqa: E402
from hybridcat.errors import SimulationError  # noqa: E402
from hybridcat.pipeline import (  # noqa: E402
    DETECTORS,
    FIELDS,
    PAIR_SOURCES,
    SCS_SOURCES,
    SchemeConfig,
    run_scheme,
    sweep,
)


@st.composite
def configs(draw):
    """A small-amplitude config of any source, pair source and detector;
    the ideal cat at any phase, the squeezed photon at its phi = pi."""
    kwargs = dict(
        t=draw(st.floats(0.85, 0.999)),
        eta=draw(st.floats(0.05, 1.0)),
        scs_source=draw(st.sampled_from(SCS_SOURCES)),
        pair_source=draw(st.sampled_from(PAIR_SOURCES)),
        detector=draw(st.sampled_from(DETECTORS)),
    )
    if kwargs["scs_source"] == "ideal":
        kwargs.update(
            alpha_f=draw(st.floats(0.3, 1.2)), phi=draw(st.floats(0.0, 2 * np.pi))
        )
    else:
        kwargs.update(alpha_i=draw(st.floats(0.5, 1.0)), s=draw(st.floats(0.1, 0.35)))
    if kwargs["pair_source"] == "vacuum_mixed":
        kwargs["z"] = draw(st.floats(0.1, 1.0))
    elif kwargs["pair_source"] == "spdc":
        kwargs["lam"] = draw(st.floats(0.001, 0.1))
    return SchemeConfig(**kwargs)


@settings(max_examples=25)
@given(configs())
def test_one_point_sweep_row_is_its_run(config):
    """A one-point sweep's row holds its run's P, F, negativity, truncation
    deficit and, for downconversion, sector probabilities, bit for bit, for
    every pair source; a run that fails
    leaves the row failed with its error type and every cell empty."""
    grid = {"eta": (config.eta,), "t": (config.t,)}
    if config.pair_source == "spdc":
        grid["lambda"] = (config.lam,)
    (row,) = sweep(config, grid).rows
    try:
        result = run_scheme(config)
    except SimulationError as exc:
        assert row.status == f"error:{type(exc).__name__}"
        assert (row.fidelity, row.probability_total, row.tail_mass) == (None,) * 3
        return
    assert row.status == "ok"
    assert row.probability_total == result.probability_total
    assert row.fidelity == result.fidelity
    assert row.negativity == result.negativity
    assert row.tail_mass == result.tail_mass
    sectors = result.sector_probabilities if config.pair_source == "spdc" else {}
    assert (row.p_vac, row.p_chi, row.p_phi2) == tuple(sectors.get(n) for n in range(3))


@settings(max_examples=25)
@given(configs())
def test_a_run_heralds_a_state(config):
    """A run's `post_state` is Hermitian and positive semidefinite, within
    1e-12, with trace 1 within 1e-12, and its P and F lie in [0, 1]."""
    try:
        result = run_scheme(config)
    except SimulationError:
        return
    rho = result.post_state.matrix
    assert float(np.abs(rho - rho.conj().T).max()) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert 0.0 <= result.probability_total <= 1.0
    assert 0.0 <= result.fidelity <= 1.0


@settings(max_examples=30)
@given(
    configs(),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4, unique=True),
    st.lists(st.floats(0.001, 0.1), min_size=2, max_size=2, unique=True),
    st.sampled_from((-0.5, -1e-9, 1.0 + 1e-9, 1.5)),
)
def test_a_sweep_of_many_points_is_its_runs(config, etas, lams, bad_eta):
    """2-4 efficiencies and one out of range (and, for downconversion, 2
    lambdas) swept in one call: each row holds its point's run, P, F,
    negativity and truncation deficit bit for bit, or the error type of a
    failed run or of a config that refuses the point."""
    grid = {"eta": etas + [bad_eta]}
    if config.pair_source == "spdc":
        grid["lambda"] = lams
    table = sweep(config, grid)
    assert len(table.rows) == len(grid["eta"]) * (len(lams) if "lambda" in grid else 1)
    for row in table.rows:
        values = {FIELDS[a][0]: v for a, v in row.params}
        try:
            result = run_scheme(dataclasses.replace(config, **values))
        except SimulationError as exc:
            assert row.status == f"error:{type(exc).__name__}"
            continue
        assert row.status == "ok"
        assert row.probability_total == result.probability_total
        assert row.fidelity == result.fidelity
        assert row.negativity == result.negativity
        assert row.tail_mass == result.tail_mass


@settings(max_examples=30)
@given(configs())
def test_sector_negativities_sum_to_the_state_negativity(config):
    """A run's negativity, the weighted sum of its sectors' own, is that of
    its whole term-basis state rho_t, within 1e-13."""
    try:
        result = run_scheme(config)
    except SimulationError:
        return
    _, rho = result._heralded
    whole = metrics.matrix_negativity(rho, result.schmidt_ranks[0])
    assert abs(result.negativity - whole) <= 1e-13
