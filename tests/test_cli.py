"""Tests for the command-line interface: scenario parsing, table format,
subcommand behavior and exit codes."""

import itertools
import re

import numpy as np
import pytest

from hybridcat import analytic, cli, pipeline, selfcheck
from hybridcat.cli import main, parse_scenario
from hybridcat.errors import SimulationError, ValidationError
from hybridcat.selfcheck import CheckResult


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_SCENARIO = "t = 0.99\neta = 0.9\nalpha_f = 1.0\n"


# ---------------------------------------------------------------------------
# scenario parsing


def test_parse_scenario_basics():
    kwargs, grid = parse_scenario(
        "# comment line\n"
        "t = 0.9\n"
        "eta = 0.8  # trailing comment\n"
        "alpha_i = 0.7\n"
        "detector = onoff\n"
        "cutoff_b = 16\n"
    )
    assert kwargs == {
        "t": 0.9,
        "eta": 0.8,
        "alpha_i": 0.7,
        "detector": "onoff",
        "cutoff_b": 16,
    }
    assert grid == {}


def test_parse_scenario_lambda_maps_to_lam():
    kwargs, _ = parse_scenario("t=0.99\neta=0.5\nalpha_i=0.7\nlambda=0.022\n")
    assert kwargs["lam"] == 0.022


def test_parse_scenario_sweep_axes():
    _, grid = parse_scenario(
        BASE_SCENARIO + "sweep_eta = 0.9, 0.7\nsweep_t = 0.9,0.99\n"
    )
    assert grid == {"eta": (0.9, 0.7), "t": (0.9, 0.99)}


def test_parse_scenario_rejects_unknown_key():
    with pytest.raises(ValidationError):
        parse_scenario("t = 0.9\nvoltage = 2\n")


def test_parse_scenario_rejects_duplicates():
    with pytest.raises(ValidationError):
        parse_scenario("t = 0.9\nt = 0.95\n")


def test_parse_scenario_rejects_bad_values():
    with pytest.raises(ValidationError):
        parse_scenario("t = fast\n")
    with pytest.raises(ValidationError):
        parse_scenario("cutoff_b = 14.5\n")
    with pytest.raises(ValidationError):
        parse_scenario("just a line without equals\n")
    with pytest.raises(ValidationError):
        parse_scenario("t =\n")


# ---------------------------------------------------------------------------
# run


def test_run_prints_scalars_and_oracle(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO)
    code = main(["run", "--scenario", scenario])
    out = capsys.readouterr().out
    assert code == 0
    assert "fidelity" in out
    assert "probability_total" in out
    assert "numeric/analytic ratio 0.5" in out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line}
    total = float(lines["probability_total"][1].strip("()"))
    # the two click patterns are equally likely, so one number stands for both
    assert lines["per_pattern"] == [f"{total / 2:.6e}"]


def test_run_spdc_notes_missing_oracle(tmp_path, capsys):
    scenario = _write(
        tmp_path / "s.txt",
        "t = 0.99\neta = 0.5\nalpha_i = 0.7\nscs_source = squeezed\n"
        "s = 0.161\npair_source = spdc\nlambda = 0.022\ndetector = onoff\n",
    )
    code = main(["run", "--scenario", scenario])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_chi" in out
    assert "none" in out  # no closed form applies to this configuration


def test_run_prints_the_negativity_of_its_sweep_row(tmp_path, capsys):
    # a downconversion point: `run` prints the 12-digit negativity that the
    # one-point sweep table holds
    spot = (
        "t = 0.99\neta = 0.5\nalpha_i = 0.7\nscs_source = squeezed\n"
        "s = 0.161\npair_source = spdc\nlambda = 0.022\ndetector = onoff\n"
    )
    assert main(["run", "--scenario", _write(tmp_path / "run.txt", spot)]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line}
    printed = lines["negativity"][1].strip("()")
    scenario = _write(
        tmp_path / "sweep.txt", spot + "sweep_lambda = 0.022\nsweep_eta = 0.5\n"
    )
    table = tmp_path / "t.tsv"
    assert main(["sweep", "--scenario", scenario, "--output", str(table)]) == 0
    capsys.readouterr()
    header, row = (line.split("\t") for line in table.read_text().splitlines())
    assert row[header.index("negativity")] == printed == "8.77631504244e-01"


def test_run_writes_single_row_table(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO)
    table = tmp_path / "row.tsv"
    assert main(["run", "--scenario", scenario, "--output", str(table)]) == 0
    capsys.readouterr()
    lines = table.read_text().splitlines()
    assert lines[0].split("\t")[0] == "fidelity"
    assert len(lines) == 2


def test_run_rejects_sweep_scenario(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO + "sweep_eta = 0.7,0.9\n")
    assert main(["run", "--scenario", scenario]) == 1
    assert "sweep" in capsys.readouterr().err


def test_run_missing_file_is_invalid_input(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.txt")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_scenario_that_is_not_utf8_is_invalid_input(command, tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(BASE_SCENARIO.encode("utf-8") + b"# \xff\n")
    argv = [command, "--scenario", str(path), "--output", str(tmp_path / "o.tsv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "cannot read scenario" in err and repr(str(path)) in err


@pytest.mark.parametrize(
    "extra",
    [
        "cutoff_b = -3\n",
        "cutoff_detector = 0\n",
        "cutoff_b = -3\ncutoff_detector = 0\n",
    ],
    ids=["cutoff_b", "cutoff_detector", "all"],
)
def test_run_refuses_values_the_sources_do_not_read(extra, tmp_path, capsys):
    # no source reads a cutoff, but a malformed one is refused rather than
    # ignored
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO + extra)
    assert main(["run", "--scenario", scenario]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_truncation_failure_exit_code(tmp_path, capsys):
    scenario = _write(
        tmp_path / "s.txt", "t = 0.9\neta = 0.9\nalpha_i = 1.2\ncutoff_b = 4\n"
    )
    assert main(["run", "--scenario", scenario]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_too_small_detector_cutoff_exit_code(tmp_path, capsys):
    scenario = _write(
        tmp_path / "s.txt",
        "t = 0.8\neta = 0.9\nalpha_i = 2.0\ncutoff_detector = 10\n",
    )
    assert main(["run", "--scenario", scenario]) == 3
    assert "truncation lost probability" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_requires_output(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO + "sweep_eta = 0.7,0.9\n")
    assert main(["sweep", "--scenario", scenario]) == 1
    capsys.readouterr()


def test_sweep_requires_axes(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO)
    out = tmp_path / "t.tsv"
    assert main(["sweep", "--scenario", scenario, "--output", str(out)]) == 1
    capsys.readouterr()


def test_sweep_table_is_byte_stable(tmp_path, capsys):
    scenario = _write(
        tmp_path / "s.txt",
        BASE_SCENARIO + "sweep_eta = 0.9, 0.7\nsweep_t = 0.99, 0.9\n",
    )
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    for out in (first, second):
        assert main(["sweep", "--scenario", scenario, "--output", str(out)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("eta\tt\tfidelity")


def test_sweep_values_use_twelve_significant_digits(tmp_path, capsys):
    scenario = _write(tmp_path / "s.txt", BASE_SCENARIO + "sweep_eta = 0.9\n")
    out = tmp_path / "t.tsv"
    assert main(["sweep", "--scenario", scenario, "--output", str(out)]) == 0
    capsys.readouterr()
    row = out.read_text().splitlines()[1].split("\t")
    pattern = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
    for cell in row[:3]:
        assert pattern.match(cell), cell


def test_sweep_reports_failed_points_but_exits_zero(tmp_path, capsys):
    scenario = _write(
        tmp_path / "s.txt",
        "t = 0.9\neta = 0.9\nalpha_i = 0.6\ncutoff_b = 14\n"
        "sweep_alpha_f = 0.5, 2.4\n",
    )
    out = tmp_path / "t.tsv"
    assert main(["sweep", "--scenario", scenario, "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "warning" in printed
    body = out.read_text()
    assert "error:" in body
    assert "ok" in body


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_rejects_unknown_figure(capsys):
    assert main(["reproduce", "--figure", "7"]) == 1
    capsys.readouterr()


def test_reproduce_rejects_panel_for_unpaneled_figure(capsys):
    assert main(["reproduce", "--figure", "2", "--panel", "a"]) == 1
    capsys.readouterr()


def test_reproduce_rejects_missing_panel_letter(capsys):
    assert main(["reproduce", "--figure", "4", "--panel", "c"]) == 1
    capsys.readouterr()


def test_reproduce_single_panel_grid(tmp_path, capsys):
    out = tmp_path / "grid.tsv"
    code = main(["reproduce", "--figure", "4", "--panel", "a", "--output", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 22  # header plus 3 x 7 grid
    assert "panel a" in printed
    assert "PASS approximate_resource_thresholds" in printed


def test_reproduce_conversion_summary_mentions_reference(tmp_path, capsys):
    out = tmp_path / "grid.tsv"
    code = main(
        ["reproduce", "--figure", "5", "--panel", "b", "--output", str(out)]
    )
    printed = capsys.readouterr().out
    assert code == 0
    assert "reference 0.842" in printed
    assert "delta" in printed
    assert len(out.read_text().splitlines()) == 126


def test_reproduce_figure5_reports_tail_mass(tmp_path, capsys):
    tail_tol = pipeline.SchemeConfig(t=0.99, eta=0.5, alpha_i=0.7).tail_tol
    code = main(["reproduce", "--figure", "5", "--output", str(tmp_path / "f.tsv")])
    assert code == 0
    capsys.readouterr()
    for name in ("f_a.tsv", "f_b.tsv"):
        header, *lines = (tmp_path / name).read_text().splitlines()
        column = header.split("\t").index("tail_mass")
        assert len(lines) == 125
        for line in lines:
            assert 0.0 <= float(line.split("\t")[column]) <= tail_tol


@pytest.mark.parametrize(
    "output,expected",
    [
        ("fig.tsv", "fig_a.tsv"),
        ("fig", "fig_a"),
        ("run.v2/fig4", "run.v2/fig4_a"),
        ("run.v2/fig4.tsv", "run.v2/fig4_a.tsv"),
    ],
)
def test_panel_output_splits_the_file_name_only(output, expected):
    assert cli._panel_output(output, 4, "a") == expected


@pytest.mark.parametrize(
    "name,files",
    [("fig4", ["fig4_a", "fig4_b"]), ("fig4.tsv", ["fig4_a.tsv", "fig4_b.tsv"])],
)
def test_reproduce_panels_into_a_dotted_directory(name, files, tmp_path, capsys):
    folder = tmp_path / "run.v2"
    folder.mkdir()
    assert main(["reproduce", "--figure", "4", "--output", str(folder / name)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in folder.iterdir()) == files
    assert [path.name for path in tmp_path.iterdir()] == ["run.v2"]


# (figure, swept values of the one point made to fail, files written)
FAILED_POINTS = (
    (2, {"eta": 0.7, "t": 0.9}, ("fig.tsv",)),
    (3, {"alpha_f": 1.0, "eta": 0.6}, ("fig.tsv",)),
    (4, {"eta": 0.7, "t": 0.99}, ("fig_a.tsv", "fig_b.tsv")),
    (5, {"eta": 0.5, "lam": 0.022}, ("fig_a.tsv", "fig_b.tsv")),
)


@pytest.mark.parametrize("figure,point,files", FAILED_POINTS)
def test_reproduce_summary_skips_failed_rows(
    figure, point, files, tmp_path, capsys, monkeypatch
):
    """One row, picked by its swept values, fails inside the group function
    that scores every row of its preparation."""
    failed = []
    real = pipeline._score

    def failing(key, lams, etas):
        columns, failures, *rest = real(key, lams, etas)
        for (i, lam), (j, eta) in itertools.product(enumerate(lams), enumerate(etas)):
            values = {"eta": eta, "lam": lam}
            hit = all(
                values.get(name, getattr(key, name)) == value
                for name, value in point.items()
            )
            if hit and not failed:
                failed.append((key, eta, lam))
                failures[i, j] = SimulationError("injected failure")
        return (columns, failures, *rest)

    monkeypatch.setattr(pipeline, "_score", failing)
    code = main(
        ["reproduce", "--figure", str(figure), "--output", str(tmp_path / "fig.tsv")]
    )
    printed = capsys.readouterr().out
    assert code == 0
    assert len(failed) == 1
    assert "1 failed rows (see status column)" in printed
    statuses = []
    for name in files:
        lines = (tmp_path / name).read_text().splitlines()[1:]
        statuses += [line.rsplit("\t", 1)[1] for line in lines]
    assert statuses.count("error:SimulationError") == 1
    assert statuses.count("ok") == len(statuses) - 1


# ---------------------------------------------------------------------------
# selfcheck


def test_selfcheck_failure_exits_two(monkeypatch, capsys):
    fake = (
        CheckResult(
            name="bs_unitarity",
            passed=False,
            expected="identity",
            actual="off by 0.1",
            tolerance="1e-10",
        ),
    )
    monkeypatch.setattr("hybridcat.selfcheck.run_all_checks", lambda: fake)
    assert main(["selfcheck"]) == 2
    printed = capsys.readouterr().out
    assert "FAIL bs_unitarity" in printed


def test_selfcheck_pass_exits_zero(monkeypatch, capsys):
    fake = (
        CheckResult(
            name="bs_unitarity",
            passed=True,
            expected="identity",
            actual="identity",
            tolerance="1e-10",
        ),
    )
    monkeypatch.setattr("hybridcat.selfcheck.run_all_checks", lambda: fake)
    assert main(["selfcheck"]) == 0
    assert "PASS bs_unitarity" in capsys.readouterr().out


def test_run_all_checks_names_each_result_after_its_function(monkeypatch):
    def check_unnamed():
        return CheckResult(np.True_, "expected", "actual", "tolerance")

    checks = selfcheck.ALL_CHECKS + (check_unnamed,)
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", checks)
    results = selfcheck.run_all_checks()
    assert [r.name for r in results] == [
        check.__name__.removeprefix("check_") for check in checks
    ]
    assert all(type(r.passed) is bool for r in results)
    for result in results:
        assert selfcheck.run_all_checks([result.name]) == [result]


def _move_cells(monkeypatch, figure, panel, column, delta, point):
    """Make `selfcheck` and `reproduce` read the table of one figure panel
    with the `column` cells at the swept values `point` moved by `delta`."""
    real = pipeline.sweep
    base = cli.figure_sweep(figure, panel)[0]

    def moved(config, grid):
        table = real(config, grid)
        if config == base:
            at = cli.rows_at(table, **point)
            assert np.count_nonzero(at) == 1
            columns = dict(table.columns)
            columns[column] = np.where(at, columns[column] + delta, columns[column])
            table = pipeline.SweepTable(table.axes, columns, table.status)
        return table

    for module in (cli, selfcheck):
        monkeypatch.setattr(module, "sweep", moved)


@pytest.mark.parametrize(
    "name, figure, column, point, inside, past",
    [
        # quoted N = 0.922 within 5e-3; the cell reads 0.9226
        ("heralded_negativity", 4, "negativity", {"t": 0.99, "eta": 0.7}, 4e-3, 5e-3),
        # F > 0.996 for t >= 0.99 at every efficiency; the cell reads 0.99685
        (
            "approximate_resource_thresholds", 4, "fidelity",
            {"t": 0.99, "eta": 0.5}, -5e-4, -1e-3,
        ),
        # the frozen F_eff 0.950732 within 2e-3; the cell reads 0.9507316
        (
            "conversion_spots", 5, "fidelity",
            {"lambda": 0.022, "eta": 0.5}, 1.9e-3, 2.1e-3,
        ),
    ],
)
def test_figure_checks_read_the_reproduce_cells(
    monkeypatch, name, figure, column, point, inside, past
):
    for delta, passed in ((inside, True), (past, False), (np.nan, False)):
        with monkeypatch.context() as patch:
            _move_cells(patch, figure, "a", column, delta, point)
            (result,) = selfcheck.run_all_checks([name])
        assert result.passed is passed, (delta, result.actual)


@pytest.mark.parametrize(
    "name, figure, column, point, inside, past",
    [
        ("heralded_negativity", 4, "negativity", {"t": 0.99, "eta": 0.7}, 4e-3, 5e-3),
        (
            "approximate_resource_thresholds", 4, "fidelity",
            {"t": 0.99, "eta": 0.5}, -5e-4, -1e-3,
        ),
        (
            "conversion_spots", 5, "fidelity",
            {"lambda": 0.022, "eta": 0.5}, 1.9e-3, 2.1e-3,
        ),
    ],
)
def test_reproduce_prints_the_moved_cells_claim(
    monkeypatch, capsys, tmp_path, name, figure, column, point, inside, past
):
    # the cases of `test_figure_checks_read_the_reproduce_cells`, read by
    # `reproduce`: a claim past its bound prints FAIL, and the run still
    # exits 0
    argv = ["reproduce", "--figure", str(figure), "--panel", "a"]
    for delta, mark in ((inside, "PASS"), (past, "FAIL"), (np.nan, "FAIL")):
        with monkeypatch.context() as patch:
            _move_cells(patch, figure, "a", column, delta, point)
            assert main(argv + ["--output", str(tmp_path / "f.tsv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert f"  {mark} {name}" in printed, delta


def _panel_claims(figure):
    """Each panel of a figure: its freshly swept table and the claims
    `panel_checks` reads off it."""
    claims = {}
    for panel in analytic.PANELS:
        base, grid = cli.figure_sweep(figure, panel)
        table = pipeline.sweep(base, grid)
        claims[panel] = table, cli.panel_checks(figure, panel, base, table)
    return claims


@pytest.mark.parametrize("figure", [4, 5])
def test_reproduce_prints_each_panels_claims(figure, tmp_path, capsys):
    argv = ["reproduce", "--figure", str(figure), "--output", str(tmp_path / "f")]
    assert main(argv) == 0
    expected = []
    for panel, (table, checks) in _panel_claims(figure).items():
        path = tmp_path / f"f_{panel}"
        title = f"figure {figure} panel {panel}"
        expected.append(f"{title}: {len(table.status)} rows -> {path}")
        expected += ["  " + line for check in checks for line in cli.check_lines(check)]
    assert capsys.readouterr().out.splitlines() == expected


def test_selfcheck_joins_the_panel_claims_from_four_sweeps(monkeypatch):
    bases = []
    real = selfcheck.sweep

    def counted(base, grid):
        bases.append(base)
        return real(base, grid)

    monkeypatch.setattr(selfcheck, "sweep", counted)
    results = {result.name: result for result in selfcheck.run_all_checks()}
    # one sweep of each figure 4 and 5 panel table, and the detector
    # fidelity check's one sweep of its eight points
    panel_bases = [
        cli.figure_sweep(figure, panel)[0]
        for figure in (4, 5)
        for panel in analytic.PANELS
    ] + [pipeline.SchemeConfig(t=0.9, eta=0.9, alpha_f=0.7)]
    assert sorted(bases, key=repr) == sorted(panel_bases, key=repr)
    claims = {}
    for figure in (4, 5):
        for panel, (_, checks) in _panel_claims(figure).items():
            for check in checks:
                claims.setdefault(check.name, {})[panel] = check
    assert list(claims) == [
        "heralded_negativity", "approximate_resource_thresholds", "conversion_spots"
    ]
    for name, parts in claims.items():
        joined = results[name]
        assert joined.passed is all(part.passed for part in parts.values())
        for field in ("expected", "actual"):
            assert getattr(joined, field) == "; ".join(
                f"panel {panel}: {getattr(part, field)}"
                for panel, part in parts.items()
            )
        assert {joined.tolerance} == {part.tolerance for part in parts.values()}
        assert {joined.detail} == {part.detail for part in parts.values()}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    capsys.readouterr()


def test_unknown_subcommand_is_invalid_input(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    capsys.readouterr()
