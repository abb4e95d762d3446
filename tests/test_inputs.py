"""One schema for every input: scenario files, sweep grids and SchemeConfig
read the fields through `pipeline.FIELDS` and hold each value to the same
rule (`errors.real`, `errors.integer`)."""

import dataclasses
import math

import numpy as np
import pytest

from hybridcat import cli, detection, pipeline
from hybridcat.cli import parse_scenario
from hybridcat.errors import ValidationError
from hybridcat.pipeline import FIELDS, SWEEP_AXES, SchemeConfig, run_scheme, sweep

KINDS = (float, int, str)
TOKENS = {float: "0.5", int: "3", str: "text"}


def test_the_schema_partitions_the_config_fields():
    fields = [f.name for f in dataclasses.fields(SchemeConfig)]
    by_kind = {kind: [f for f, k, _ in FIELDS.values() if k is kind] for kind in KINDS}
    assert sorted(sum(by_kind.values(), [])) == sorted(fields)
    assert set(FIELDS) == set(fields) - {"lam"} | {"lambda"}
    assert FIELDS["lambda"][0] == "lam"
    assert set(SWEEP_AXES) <= set(FIELDS)


def test_scenario_keys_are_the_schema_and_the_sweep_axes():
    keys = set(FIELDS) | {f"sweep_{axis}" for axis in SWEEP_AXES}
    for key in keys:
        kind = float if key.startswith("sweep_") else FIELDS[key][1]
        kwargs, grid = parse_scenario(f"{key} = {TOKENS[kind]}\n")
        assert len(kwargs) + len(grid) == 1, key
    for key in ("lam", "sweep_lam", "sweep_phi", "sweep_", "kept", "sweep_sweep_t"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(f"{key} = 0.5\n")
    # the front end keeps no field list of its own
    names = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, (tuple, list, set, frozenset)) and "n_cut" in value
    ]
    assert names == []


@pytest.mark.parametrize(
    "text",
    ["t = nan", "eta = inf", "n_cut = 7.0", "cutoff_b = x", "sweep_eta = 0.5, nan"],
)
def test_scenario_values_follow_the_rules(text):
    with pytest.raises(ValidationError, match="scenario line 1: .* must be a number"):
        parse_scenario(text)


BAD_GRIDS = [
    {"eta": [True]},
    {"t": [True]},
    {"eta": np.array([True, False])},
    {"eta": ["x"]},
    {"eta": "0.5"},
    {"eta": 0.5},
    {"eta": np.array(0.5)},
    {"eta": [None]},
    {"eta": [1 + 0j]},
    {"eta": [math.nan]},
    {"eta": [math.inf]},
    {"eta": [10**400]},
    {None: [0.5]},
]


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=repr)
def test_sweep_refuses_a_grid_that_is_not_finite_numbers(grid, monkeypatch):
    prepared = []
    monkeypatch.setattr(pipeline, "_factors", prepared.append)
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
    with pytest.raises(ValidationError):
        sweep(config, dict(grid, alpha_f=(0.5, 1.0)))
    assert prepared == []


def test_any_collection_of_numbers_is_a_grid_axis():
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
    table = sweep(config, {"eta": [0.7, 0.5]})
    for axis in ((0.5, 0.7), {0.5, 0.7}, np.array([0.7, 0.5]), iter([0.5, 0.7])):
        assert sweep(config, {"eta": axis}) == table


def test_an_out_of_range_grid_value_fails_its_own_row():
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
    table = sweep(config, {"eta": [1.5, np.float64(0.5)]})
    assert [row.status for row in table.rows] == ["ok", "error:ValidationError"]
    assert [row.params for row in table.rows] == [(("eta", 0.5),), (("eta", 1.5),)]


def test_config_refuses_numpy_bools():
    with pytest.raises(ValidationError, match="eta must be a number"):
        SchemeConfig(t=0.9, eta=np.True_, alpha_f=1.0)
    with pytest.raises(ValidationError, match="cutoff_b must be a number"):
        SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0, cutoff_b=np.True_)


SPDC = dict(
    t=0.99, eta=0.5, alpha_i=0.7, scs_source="squeezed", s=0.161,
    pair_source="spdc", lam=0.022, detector="onoff",
)


@pytest.mark.parametrize(
    "kwargs, field, value",
    [
        (dict(t=0.9, eta=0.9, alpha_f=1.0), "cutoff_detector", 8),
        (dict(SPDC, pair_source="chi", lam=None, detector="pnr"), "n_cut", 7),
        (SPDC, "spdc_order", 2),
    ],
)
def test_numpy_integers_run_as_their_python_ints(kwargs, field, value):
    results = []
    for given in (np.int64(value), value):
        pipeline._factors.cache_clear()
        results.append(run_scheme(SchemeConfig(**kwargs, **{field: given})))
    numpy_run, plain = results
    for name in ("probability_total", "fidelity", "negativity", "tail_mass", "cutoffs"):
        assert getattr(numpy_run, name) == getattr(plain, name), name
    assert numpy_run.sector_probabilities == plain.sector_probabilities
    assert np.array_equal(numpy_run.post_state.matrix, plain.post_state.matrix)


def test_detectors_hold_efficiency_and_cutoff_to_the_rules():
    for eta in (True, np.True_, "0.5", None):
        with pytest.raises(ValidationError, match="efficiency"):
            detection.herald_pattern("pnr", eta, 4)
    with pytest.raises(ValidationError, match="cutoff"):
        detection.povm_click(0.8, 4.0)
    with pytest.raises(ValidationError, match="photon count"):
        detection.povm_pnr(True, 0.8, 4)
    numpy_args = detection.povm_pnr(np.int64(1), np.float64(0.8), np.int64(4))
    assert np.array_equal(numpy_args, detection.povm_pnr(1, 0.8, 4))
