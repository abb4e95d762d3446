"""One schema for every input: scenario files, sweep grids and SchemeConfig
read the fields through `pipeline.FIELDS` and hold each value to the same
rule (`errors.real`, `errors.integer`), and each range or choice has one
home that every entry point goes through."""

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

from hybridcat import analytic, cli, detection, optics, oracle, pipeline
from hybridcat.cli import parse_scenario
from hybridcat.errors import ValidationError
from hybridcat.pipeline import CHOICES, FIELDS, SWEEP_AXES, SchemeConfig, run_scheme, sweep

KINDS = (float, int, str)
TOKENS = {float: "0.5", int: "3"}


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
        token = CHOICES[key][-1] if kind is str else TOKENS[kind]
        kwargs, grid = parse_scenario(f"{key} = {token}\n")
        assert len(kwargs) + len(grid) == 1, key
    for key in ("lam", "sweep_lam", "sweep_phi", "sweep_", "kept", "sweep_sweep_t"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(f"{key} = 0.5\n")
    # the front end keeps no field list of its own
    names = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, (tuple, list, set, frozenset)) and "cutoff_b" in value
    ]
    assert names == []


@pytest.mark.parametrize(
    "text",
    ["t = nan", "eta = inf", "cutoff_detector = 2.0", "cutoff_b = x",
     "sweep_eta = 0.5, nan"],
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


def test_a_points_own_values_fail_it_ahead_of_its_preparation():
    """A point's own out-of-range value decides its status first, then the
    shared preparation (alpha_f = 3.0 needs more than cutoff_detector 5),
    then its herald; every out-of-range lambda, eta and t fails its rows."""
    config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0, cutoff_detector=5)
    table = sweep(config, {"alpha_f": (0.5, 3.0), "eta": (0.9, 1.5)})
    assert [row.status for row in table.rows] == [
        "ok", "error:ValidationError", "error:CutoffError", "error:ValidationError",
    ]
    spot = SchemeConfig(
        t=0.99, eta=0.5, alpha_i=0.7, scs_source="squeezed", s=0.161,
        pair_source="spdc", lam=0.022, detector="onoff",
    )
    grid = {"eta": (-0.1, 0.5), "lambda": (0.022, 1.0), "t": (0.99, 1.5)}
    statuses = [row.status for row in sweep(spot, grid).rows]
    assert statuses.pop(4) == "ok"
    assert statuses == ["error:ValidationError"] * 7


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
        (dict(SPDC, pair_source="chi", lam=None, detector="pnr"), "cutoff_b", 15),
        (SPDC, "cutoff_detector", 7),
    ],
)
def test_numpy_integers_run_as_their_python_ints(kwargs, field, value):
    results = []
    for given in (np.int64(value), value):
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


def test_a_deleted_field_is_an_unknown_scenario_key(tmp_path, capsys):
    # the signal cutoff follows from the pair source; no input sets it
    path = tmp_path / "run.txt"
    path.write_text("t = 0.9\neta = 0.9\nalpha_f = 1.0\ncutoff_a = 2\n", "utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "scenario line 4: unknown key 'cutoff_a'" in capsys.readouterr().err


def test_n_cut_is_refused_naming_the_key(tmp_path, capsys):
    """The squeezed photon is evaluated exactly to every photon number the
    run reaches, so no input cuts it: a scenario or a config that still
    sets `n_cut` is refused, naming the key."""
    path = tmp_path / "run.txt"
    path.write_text(
        "t = 0.99\neta = 0.7\nalpha_i = 0.7\nscs_source = squeezed\n"
        "s = 0.161\nn_cut = 7\n",
        "utf-8",
    )
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "scenario line 6: unknown key 'n_cut'" in capsys.readouterr().err
    with pytest.raises(TypeError, match="n_cut"):
        SchemeConfig(t=0.99, eta=0.7, alpha_i=0.7, scs_source="squeezed", s=0.161,
                     n_cut=7)


def test_downconversion_knobs_are_refused_naming_the_key(tmp_path, capsys):
    """Downconversion is the paper's three pair-number terms with their
    (1 - lambda^2) lambda^(2n) weights, so no input sets its order or its
    weighting: a scenario or a config that still names one is refused,
    naming the key."""
    spot = "t = 0.99\neta = 0.5\nalpha_i = 0.7\npair_source = spdc\nlambda = 0.022\n"
    for line in ("spdc_order = 3", "spdc_weighting = exact"):
        path = tmp_path / "run.txt"
        path.write_text(f"{spot}{line}\n", "utf-8")
        assert cli.main(["run", "--scenario", str(path)]) == 1
        key = line.partition(" ")[0]
        assert f"scenario line 6: unknown key '{key}'" in capsys.readouterr().err
    for key, value in (("spdc_order", 3), ("spdc_weighting", "exact")):
        with pytest.raises(TypeError, match=key):
            SchemeConfig(**SPDC, **{key: value})


def test_the_odd_cats_divergence_has_one_home():
    """`analytic.n_phi` alone decides where the odd cat's normalization
    diverges: the config and the closed forms accept alpha_f = 8e-7 alike
    and refuse 4e-7 alike."""
    assert SchemeConfig(t=0.9, eta=0.9, alpha_f=8e-7)
    assert analytic.p_tot_eta(8e-7, 0.9, 0.9) > 0.0
    for call in (
        lambda: SchemeConfig(t=0.9, eta=0.9, alpha_f=4e-7),
        lambda: analytic.p_tot_eta(4e-7, 0.9, 0.9),
    ):
        assert "normalization diverges" in _message(call)


def test_the_squeezed_source_refuses_a_phase_other_than_pi(tmp_path, capsys):
    """The squeezed photon fills only odd photon numbers, the phi = pi cat,
    and ignores phi, which the target alone would read: the config and a
    scenario refuse any other phi, naming it, and keep phi = pi."""
    photon = dict(t=0.99, eta=0.7, alpha_i=0.7, scs_source="squeezed", s=0.161)
    assert SchemeConfig(**photon, phi=math.pi)
    scenario = "".join(f"{key} = {value}\n" for key, value in photon.items())
    for phi in (0.7, 0.0, -math.pi):
        message = _message(lambda: SchemeConfig(**photon, phi=phi))
        assert message.startswith("phi must be pi for the squeezed source")
        assert message.endswith(f"got {phi!r}")
        assert _run_message(tmp_path, capsys, scenario + f"phi = {phi!r}\n") == message


def _message(call) -> str:
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


def _run_message(tmp_path, capsys, text) -> str:
    """What `hybridcat run` prints on stderr for a refused scenario."""
    path = tmp_path / "run.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == 1
    return capsys.readouterr().err.removeprefix("error: ").strip()


@pytest.mark.parametrize("t", [True, np.True_, 0.0, 1.5, -0.1, math.nan])
def test_every_entry_point_refuses_a_transmissivity_alike(t, tmp_path, capsys):
    messages = {
        _message(call)
        for call in (
            lambda: SchemeConfig(t=t, eta=0.9, alpha_f=1.0),
            lambda: analytic.p_success_ideal(1.0, t),
            lambda: analytic.fidelity_eta(1.0, t, 0.9),
            lambda: analytic.p_tot_eta(1.0, t, 0.9),
            lambda: optics.splitter(t),
            lambda: oracle.bs_fock_coefficient(1, 0, 1, 0, t),
        )
    }
    if isinstance(t, (bool, np.bool_)):
        config = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
        messages.add(_message(lambda: sweep(config, {"t": [t]})))
    elif math.isfinite(t):
        scenario = f"t = {t}\neta = 0.9\nalpha_f = 1.0\n"
        messages.add(_run_message(tmp_path, capsys, scenario))
    assert len(messages) == 1, messages


def test_every_entry_point_refuses_a_choice_alike(tmp_path, capsys):
    scenario = "t = 0.9\neta = 0.9\nalpha_f = 1.0\n"
    detector = {
        _message(lambda: SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0, detector="apd")),
        _message(lambda: detection.herald_pattern("apd", 0.9, 4)),
    }
    assert detector == {"unknown detector 'apd'; choose one of ('pnr', 'onoff')"}
    # the scenario names the line, as it does for a refused number
    refused = _run_message(tmp_path, capsys, scenario + "detector = apd\n")
    assert refused == "scenario line 4: " + detector.pop()
    pair = {
        _message(lambda: SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0, pair_source="bell")),
    }
    assert pair == {
        "unknown pair_source 'bell'; choose one of ('chi', 'vacuum_mixed', 'spdc')"
    }
    refused = _run_message(tmp_path, capsys, scenario + "pair_source = bell\n")
    assert refused == "scenario line 4: " + pair.pop()


def _scenario_section() -> str:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    return readme.split("### Scenario files", 1)[1].split("\n### ", 1)[0]


def test_readme_scenario_examples_run():
    """README's two scenario examples parse and run: the first as one run,
    the second as a sweep of 12 ok rows."""
    blocks = re.findall(r"```\n(.*?)```", _scenario_section(), re.S)
    assert len(blocks) == 2
    kwargs, grid = parse_scenario(blocks[0])
    assert grid == {}
    assert run_scheme(cli.config_from_kwargs(kwargs)).probability_total > 0
    kwargs, grid = parse_scenario(blocks[1])
    table = sweep(cli.config_from_kwargs(kwargs), grid)
    assert list(table.status) == ["ok"] * 12


def test_readme_scenario_section_names_only_inputs():
    """Every key-like name the section quotes is a field, a sweep axis, a
    choice, a refused value or the subcommand: a deleted field such as
    `cutoff_a` fails."""
    names = set(re.findall(r"`([a-z][a-z_0-9]*)`", _scenario_section()))
    known = set(FIELDS) | {f.name for f in dataclasses.fields(SchemeConfig)}
    known |= set(SWEEP_AXES) | set().union(*pipeline.CHOICES.values())
    known |= {"nan", "inf", "sweep"}
    assert names - known == set()
    assert {"cutoff_detector", "cutoff_b"} <= names
