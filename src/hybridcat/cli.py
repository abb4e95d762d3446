"""Command-line front end: scenario runs, parameter sweeps, reference
dataset reproduction, and the self-check suite.

Owns the two file formats. A scenario is a flat key = value document (one
assignment per line, '#' comments) whose keys are SchemeConfig's fields
(`lambda` for `lam`), read through the schema `pipeline.FIELDS`, plus
optional `sweep_<axis>` lines holding comma-separated grid values.
Physical parameters have no silent defaults beyond the documented
SchemeConfig ones; unknown or duplicate keys are rejected. Result tables
are tab-separated text with 12-significant-digit scientific notation,
lexicographic row order, and byte-identical reruns, written from a
`SweepTable`'s columns one column at a time; `run --output` writes its one
row the same way.

The paper's figure 4 and 5 claims live in `panel_checks`: `reproduce`
prints them, and `selfcheck` asserts them over both panels.

Exit codes: 0 success, 1 invalid input, 2 self-check tolerance failure,
3 truncation or numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import analytic
from .errors import (
    CutoffError,
    HeraldImpossibleError,
    SimulationError,
    TruncationError,
    ValidationError,
    choice,
)
from .pipeline import (
    CHOICES,
    FIELDS,
    METRIC_COLUMNS,
    SECTOR_COLUMNS,
    SWEEP_AXES,
    VALUE_RULES,
    SchemeConfig,
    SweepTable,
    run_scheme,
    sweep,
)

# ---------------------------------------------------------------------------
# scenario format


def _value(name: str, kind: type, token: str):
    """A scenario token read as a value of `kind`, held to its rule: a
    text token to its field's `CHOICES`."""
    if kind is str:
        return choice(name, token, CHOICES[name])
    try:
        value = kind(token)
    except ValueError:
        value = token  # not a number, which the rule refuses
    return VALUE_RULES[kind](name, value)


def parse_scenario(text: str) -> Tuple[Dict[str, object], Dict[str, Tuple[float, ...]]]:
    """Parse a scenario document into SchemeConfig keyword arguments and a
    sweep grid. Its keys are the config's fields, `lambda` for `lam`, and
    `sweep_<axis>` for each of `SWEEP_AXES`; each value is read as its
    field's kind (`pipeline.FIELDS`) and held to that kind's rule, and a
    sweep line's comma-separated values as reals. Raises ValidationError,
    naming the line, on any malformed or unknown content."""
    kwargs: Dict[str, object] = {}
    grid: Dict[str, Tuple[float, ...]] = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        try:
            if not equals:
                raise ValidationError(f"expected 'key = value', got {raw!r}")
            axis = key[len("sweep_"):] if key.startswith("sweep_") else None
            if key not in FIELDS and axis not in SWEEP_AXES:
                raise ValidationError(f"unknown key {key!r}")
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}")
            seen.add(key)
            if not value:
                raise ValidationError(f"{key!r} has no value")
            if axis:
                grid[axis] = tuple(_value(axis, float, x) for x in value.split(","))
            else:
                name, kind, _ = FIELDS[key]
                kwargs[name] = _value(key, kind, value)
        except ValidationError as exc:
            raise ValidationError(f"scenario line {lineno}: {exc}") from None
    return kwargs, grid


def config_from_kwargs(kwargs: Dict[str, object]) -> SchemeConfig:
    for field in dataclasses.fields(SchemeConfig):
        if field.default is dataclasses.MISSING and field.name not in kwargs:
            raise ValidationError(f"scenario must set {field.name!r}")
    return SchemeConfig(**kwargs)


def load_scenario(path: str) -> Tuple[SchemeConfig, Dict[str, Tuple[float, ...]]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read scenario {path!r}: {exc}") from exc
    kwargs, grid = parse_scenario(text)
    return config_from_kwargs(kwargs), grid


# ---------------------------------------------------------------------------
# result tables


def _cells(values: np.ndarray) -> List[str]:
    """One column's cells: `f"{x:.11e}"` of each value, empty where it is
    NaN."""
    return ["" if x != x else format(x, ".11e") for x in values.tolist()]


def write_table(table: SweepTable, handle: TextIO) -> None:
    """The table as tab-separated text: each column formatted in one pass,
    then the rows joined."""
    names = table.axes + METRIC_COLUMNS
    columns = [_cells(table.columns[name]) for name in names]
    lines = map("\t".join, zip(*columns, table.status.tolist()))
    handle.write("\n".join(("\t".join(names + ("status",)), *lines)) + "\n")


def save_table(table: SweepTable, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            write_table(table, handle)
    except OSError as exc:
        raise ValidationError(f"cannot write table {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(scenario_path: str, output: Optional[str]) -> int:
    config, grid = load_scenario(scenario_path)
    if grid:
        raise ValidationError(
            "scenario defines sweep axes; use the sweep subcommand"
        )
    result = run_scheme(config)
    print(f"fidelity           {result.fidelity:.6f} ({result.fidelity:.11e})")
    print(
        f"probability_total  {result.probability_total:.6e} "
        f"({result.probability_total:.11e})"
    )
    print(f"negativity         {result.negativity:.6f} ({result.negativity:.11e})")
    print(f"tail_mass          {result.tail_mass:.3e}")
    print(f"per_pattern        {result.plain_probability:.6e}")
    # the downconversion sectors: vacuum, one pair, two pairs
    sectors = result.sector_probabilities if config.pair_source == "spdc" else {}
    row = {name: sectors[n] for n, name in enumerate(SECTOR_COLUMNS) if n in sectors}
    for name, value in row.items():
        print(f"{name:<18} {value:.6e}")
    if result.analytic_p_tot is not None:
        print("oracle cross-checks:")
        print(
            f"  closed-form total probability: numeric/analytic ratio "
            f"{result.probability_total / result.analytic_p_tot:.9f} (documented "
            f"factor {analytic.PROBABILITY_CONVENTION_FACTOR})"
        )
    else:
        print("oracle cross-checks: none (no closed form for this configuration)")
    if output:
        cells = dict(
            row, fidelity=result.fidelity, probability_total=result.probability_total,
            negativity=result.negativity, tail_mass=result.tail_mass,
        )
        columns = {name: np.array([cells.get(name, np.nan)]) for name in METRIC_COLUMNS}
        save_table(SweepTable((), columns, np.array(["ok"], dtype=object)), output)
        print(f"table -> {output}")
    return 0


def cmd_sweep(scenario_path: str, output: Optional[str]) -> int:
    config, grid = load_scenario(scenario_path)
    if not grid:
        raise ValidationError("scenario defines no sweep axes (sweep_<name> keys)")
    if not output:
        raise ValidationError("sweep needs --output for the result table")
    table = sweep(config, grid)
    save_table(table, output)
    errors = np.count_nonzero(table.status != "ok")
    print(f"{len(table.status)} rows -> {output}")
    if errors:
        print(f"warning: {errors} grid points failed (see status column)")
    return 0


_FIG2_T = tuple(round(0.84 + 0.02 * k, 2) for k in range(8)) + (0.99, 0.995, 0.999)
_FIG3_ALPHA = tuple(round(0.25 * k, 2) for k in range(1, 7))
_FIG4_ETA = tuple(round(0.4 + 0.1 * k, 1) for k in range(7))
_FIG5_LAMBDA = tuple(round(0.002 * k, 3) for k in range(1, 26))


def figure_sweep(
    figure: int, panel: Optional[str]
) -> Tuple[SchemeConfig, Dict[str, Tuple[float, ...]]]:
    """The base config and grid of one `reproduce` table. A panel of
    figures 4 and 5 takes its squeezed photon from `analytic.PANELS`; the
    base point of figure 4 is where the paper quotes its negativity, its
    fidelity floor holding from that t up, and figure 5's is the
    conversion spot."""
    if figure == 2:
        base = SchemeConfig(t=0.9, eta=0.9, alpha_f=1.0)
        return base, {"t": _FIG2_T, "eta": (0.7, 0.8, 0.9, 0.99)}
    if figure == 3:
        base = SchemeConfig(t=0.99, eta=0.9, alpha_f=1.0)
        return base, {"alpha_f": _FIG3_ALPHA, "eta": (0.2, 0.4, 0.6, 0.8, 0.99)}
    spec = analytic.PANELS[panel]
    photon = dict(t=0.99, alpha_i=spec.alpha_i, scs_source="squeezed", s=spec.s)
    if figure == 4:
        base = SchemeConfig(eta=0.7, pair_source="vacuum_mixed", z=0.5, **photon)
        return base, {"t": (0.9, 0.99, 0.999), "eta": _FIG4_ETA}
    base = SchemeConfig(
        eta=0.5, pair_source="spdc", lam=spec.lam, detector="onoff", **photon
    )
    return base, {"lambda": _FIG5_LAMBDA, "eta": (0.1, 0.3, 0.5, 0.7, 0.9)}


def rows_at(table: SweepTable, **point: float) -> np.ndarray:
    """Which rows hold the given swept values, whatever their status: a
    failed row's cells are empty (NaN), and no bound holds for them."""
    at = np.ones(len(table.status), dtype=bool)
    for axis, value in point.items():
        at &= table.columns[axis] == value
    return at


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One check's outcome; `selfcheck.run_all_checks` names it after its
    function, `panel_checks` after the claim."""

    passed: bool
    expected: str
    actual: str
    tolerance: str
    detail: str = ""
    name: str = ""


def check_lines(result: CheckResult) -> List[str]:
    """A check as `selfcheck` and `reproduce` print it: PASS or FAIL and its
    name, then what was expected and found, its tolerance and any note."""
    lines = [
        f"{'PASS' if result.passed else 'FAIL'} {result.name}",
        f"    expected:  {result.expected}",
        f"    actual:    {result.actual}",
        f"    tolerance: {result.tolerance}",
    ]
    return lines + ([f"    note:      {result.detail}"] if result.detail else [])


def panel_checks(
    figure: int, panel: str, base: SchemeConfig, table: SweepTable
) -> List[CheckResult]:
    """The paper's claims on one panel table of figure 4 or 5 against
    `analytic.PANELS`: figure 4's negativity at its base point, and its
    fidelity floor from the base t up with P_tot at the base t in the quoted
    band; figure 5's P_tot and F_eff (the frozen value) at its conversion
    spot. A failed row's empty (NaN) cell fails its claim."""
    spec, cells = analytic.PANELS[panel], table.columns
    if figure == 4:
        (n,) = cells["negativity"][rows_at(table, t=base.t, eta=base.eta)]
        above = cells["fidelity"][cells["t"] >= base.t]
        p = cells["probability_total"][rows_at(table, t=base.t)]
        return [
            CheckResult(
                abs(n - spec.negativity) <= 5e-3,
                f"N = {spec.negativity} at t={base.t}, eta={base.eta}",
                f"N = {n:.4f}, off by {abs(n - spec.negativity):.1e}",
                "5e-3",
                name="heralded_negativity",
            ),
            CheckResult(
                np.all(above > spec.fidelity_floor)
                and 5e-5 <= p.min() and p.max() <= 5e-3,
                f"F > {spec.fidelity_floor} for t >= {base.t}; "
                f"P_tot in [5e-5, 5e-3] at t={base.t}",
                f"lowest F {above.min():.5f} of {len(above)} rows, "
                f"{above.min() - spec.fidelity_floor:.1e} above the floor; "
                f"P_tot range [{p.min():.2e}, {p.max():.2e}]",
                "strict inequalities",
                name="approximate_resource_thresholds",
            ),
        ]
    spot = rows_at(table, eta=base.eta, **{"lambda": base.lam})
    (f,), (p,) = (cells[c][spot] for c in ("fidelity", "probability_total"))
    return [
        CheckResult(
            abs(p - spec.p_tot_quoted) <= 0.2 * spec.p_tot_quoted
            and abs(f - spec.f_eff) <= 2e-3,
            f"P_tot within 20% of the reference, F_eff at the frozen value, "
            f"at lambda={base.lam}, eta={base.eta}",
            f"F_eff={f:.4f} (frozen {spec.f_eff}, off by {abs(f - spec.f_eff):.1e}; "
            f"reference {spec.f_eff_quoted}, delta {f - spec.f_eff_quoted:+.4f}), "
            f"P_tot={p:.2e} (reference {spec.p_tot_quoted:.1e}, "
            f"ratio {p / spec.p_tot_quoted:.2f})",
            "20% / 2e-3",
            detail=(
                "the reference F_eff quotes imply a uniform ~1.28x inflation of "
                "the non-pair herald weights that no convention of this model "
                "reproduces; probabilities and every other reference value agree"
            ),
            name="conversion_spots",
        )
    ]


def _failed_lines(table: SweepTable) -> List[str]:
    failed = np.count_nonzero(table.status != "ok")
    return [f"{failed} failed rows (see status column)"] if failed else []


def _curves(table: SweepTable, axis: str, values, text: str) -> List[str]:
    """One line per value of `axis`: `text` formatted with the first and
    last fidelity of its ok rows and whether they rise monotonically."""
    lines = []
    for value in values:
        ok = rows_at(table, **{axis: value}) & (table.status == "ok")
        curve = table.columns["fidelity"][ok]
        if not len(curve):
            lines.append(f"{axis}={value}: no successful rows")
            continue
        monotone = bool(np.all(curve[:-1] < curve[1:]))
        lines.append(f"{axis}={value}: " + text.format(curve[0], curve[-1], monotone))
    return lines


def _default_output(figure: int, panel: Optional[str]) -> str:
    suffix = f"_{panel}" if panel else ""
    return f"figure{figure}{suffix}.tsv"


def _panel_output(output: Optional[str], figure: int, panel: str) -> str:
    if output is None:
        return _default_output(figure, panel)
    stem, extension = os.path.splitext(output)
    return f"{stem}_{panel}{extension}"


def _summary(
    figure: int, panel: Optional[str], base: SchemeConfig, table: SweepTable
) -> List[str]:
    if figure == 2:
        text = "fidelity rises {:.4f} -> {:.4f} monotone={}"
        etas = sorted(set(table.columns["eta"].tolist()))
        return _curves(table, "eta", etas, text)
    if figure == 3:
        text = "fidelity {:.4f} -> {:.4f} monotone in eta={}"
        return _curves(table, "alpha_f", (0.5, 1.0, 1.5), text)
    checks = panel_checks(figure, panel, base, table)
    return [line for check in checks for line in check_lines(check)]


def cmd_reproduce(figure: int, panel: Optional[str], output: Optional[str]) -> int:
    if figure not in (2, 3, 4, 5):
        raise ValidationError(f"unknown figure id {figure}; choose 2, 3, 4 or 5")
    if figure in (2, 3) and panel is not None:
        raise ValidationError(f"figure {figure} has no panels")
    if panel is not None and panel not in analytic.PANELS:
        raise ValidationError(f"figure {figure} has panels a and b, not {panel!r}")
    panels = (panel,) if panel or figure in (2, 3) else ("a", "b")
    for name in panels:
        base, grid = figure_sweep(figure, name)
        table = sweep(base, grid)
        if len(panels) == 1:
            path = output or _default_output(figure, name)
        else:
            path = _panel_output(output, figure, name)
        save_table(table, path)
        title = f"figure {figure} panel {name}" if name else f"figure {figure}"
        print(f"{title}: {len(table.status)} rows -> {path}")
        for line in _summary(figure, name, base, table) + _failed_lines(table):
            print(f"  {line}")
    return 0


def cmd_selfcheck() -> int:
    # imported here, so that runs, sweeps and reproduce load neither the
    # check suite nor the dense oracle it compares against
    from .selfcheck import run_all_checks

    results = run_all_checks()
    for result in results:
        print(*check_lines(result), sep="\n")
    failures = sum(not result.passed for result in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad input by default; this front end reserves 2
    for self-check tolerance failures and uses 1 for invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridcat",
        description=(
            "Simulator of heralded hybrid entanglement between a "
            "single-photon polarization qubit and a coherent field"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one scenario and print the result scalars"
    )
    run.add_argument("--scenario", required=True, help="scenario file path")
    run.add_argument("--output", help="optional single-row result table")

    swp = commands.add_parser("sweep", help="evaluate a scenario's sweep grid")
    swp.add_argument("--scenario", required=True, help="scenario file path")
    swp.add_argument("--output", help="result table path (required)")

    rep = commands.add_parser(
        "reproduce", help="regenerate a reference dataset grid"
    )
    rep.add_argument(
        "--figure", type=int, required=True, help="reference dataset id (2-5)"
    )
    rep.add_argument("--panel", help="panel id of figures 4 and 5: a or b")
    rep.add_argument("--output", help="result table path")

    commands.add_parser("selfcheck", help="run the named validation checks")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.output)
        if args.command == "sweep":
            return cmd_sweep(args.scenario, args.output)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, args.panel, args.output)
        return cmd_selfcheck()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, CutoffError, HeraldImpossibleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
