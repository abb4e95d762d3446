"""The benchmark's three workloads: their inputs, the timed call into the
program, and the untimed checks of its outputs.

Nothing here imports `hybridcat` at module level: the worker times that
import as part of set-up. The expected values are computed here from closed
forms and from the paper's quoted numbers; none are read from the program's
own `analytic` module or copied from an earlier run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# The paper's figure grids, as the `reproduce` command draws them.
FIG2_T = tuple(round(0.84 + 0.02 * k, 2) for k in range(8)) + (0.99, 0.995, 0.999)
FIG2_ETA = (0.7, 0.8, 0.9, 0.99)
FIG3_ALPHA_F = tuple(round(0.25 * k, 2) for k in range(1, 7))
FIG3_ETA = (0.2, 0.4, 0.6, 0.8, 0.99)
FIG4_T = (0.9, 0.99, 0.999)
FIG4_ETA = tuple(round(0.4 + 0.1 * k, 1) for k in range(7))
FIG5_LAMBDA = tuple(round(0.002 * k, 3) for k in range(1, 26))
FIG5_ETA = (0.1, 0.3, 0.5, 0.7, 0.9)
# panel -> (squeezing s, source amplitude alpha_i)
PANELS = {"a": (0.161, 0.7), "b": (0.313, 1.0)}

# Figure 4: the paper's negativity at t = 0.99, eta = 0.7 and its fidelity
# floor for t >= 0.99.
FIG4_NEGATIVITY = {"a": 0.922, "b": 0.982}
FIG4_NEGATIVITY_TOL = 5e-3
FIG4_FIDELITY_FLOOR = {"a": 0.996, "b": 0.986}
# Figure 5: the paper's total success probability at its two conversion
# spots (eta = 0.5), within 20%.
FIG5_SPOTS = {"a": (0.022, 5.1e-7), "b": (0.038, 2.4e-6)}
FIG5_SPOT_TOL = 0.2
# Figure-5 rows per panel that the seed picks for recomputation through the
# full-ensemble `run_scheme`, on top of the spot rows.
FIG5_RECOMPUTED_PER_PANEL = 2

# Closed-form agreement of the ideal scheme; TSV cells carry 12 significant
# digits, and the agreement seen is a few 1e-12.
CLOSED_FORM_F_TOL = 1e-9
CLOSED_FORM_P_RTOL = 1e-9
# The decomposition drops the three-pair term, a relative 1e-8 in P at the
# largest lambda of figure 5.
SECOND_PATH_P_RTOL = 1e-6
SECOND_PATH_F_TOL = 1e-9
# Checks of the large-amplitude post-state.
STATE_TOL = 1e-10

LARGE_AMPLITUDE = {"t": 0.9, "eta": 0.9, "alpha_f": 2.5}


def ideal_fidelity(alpha_f: float, t: float, eta: float) -> float:
    """F = (1 + exp(-2 (1 - eta) mu^2)) / 2 with mu^2 = (1/t - 1) alpha_f^2."""
    mu2 = (1.0 / t - 1.0) * alpha_f * alpha_f
    return 0.5 * (1.0 + math.exp(-2.0 * (1.0 - eta) * mu2))


def ideal_probability(alpha_f: float, t: float, eta: float) -> float:
    """P = N^2 eta^2 mu^2 exp(-2 eta mu^2), N^2 = 1 / (2 - 2 exp(-2 alpha_i^2)),
    alpha_i^2 = alpha_f^2 / t: both herald patterns of the odd cat."""
    mu2 = (1.0 / t - 1.0) * alpha_f * alpha_f
    alpha_i2 = alpha_f * alpha_f / t
    n2 = 1.0 / (2.0 - 2.0 * math.exp(-2.0 * alpha_i2))
    return n2 * eta * eta * mu2 * math.exp(-2.0 * eta * mu2)


@dataclass
class Outcome:
    """Checked result of one repetition: one entry per operation."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    # Exceptions the program raised and exit codes it returned. They are not
    # operations: the rows they cost are missing or marked, and fail.
    errors: List[str] = field(default_factory=list)
    # Operations that passed every other check and wait for a comparison that
    # is made after the timed repetitions: (operation name, key, values).
    deferred: List[tuple] = field(default_factory=list)

    def record(self, name: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")


# ---------------------------------------------------------------------------
# result tables


def read_table(path: str) -> Optional[Dict[Tuple[float, ...], Dict[str, str]]]:
    """Rows of a result table keyed by their swept values; None if missing."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return None
    header = lines[0].split("\t")
    axes = header[: header.index("fidelity")]
    rows = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split("\t")))
        rows[tuple(float(cells[axis]) for axis in axes)] = cells
    return rows


def _number(cells: Dict[str, str], column: str) -> Optional[float]:
    text = cells.get(column, "")
    return float(text) if text else None


def _row_problem(cells: Optional[Dict[str, str]]) -> Optional[str]:
    """Status and range checks every grid row must pass."""
    if cells is None:
        return "row missing from the table"
    if cells["status"] != "ok":
        return f"status {cells['status']}"
    f = _number(cells, "fidelity")
    p = _number(cells, "probability_total")
    if f is None or not 0.0 <= f <= 1.0:
        return f"fidelity {f} outside [0, 1]"
    if p is None or not 0.0 < p <= 1.0:
        return f"probability {p} outside (0, 1]"
    return None


def _closed_form_problem(cells, alpha_f: float, t: float, eta: float):
    problem = _row_problem(cells)
    if problem:
        return problem
    f = _number(cells, "fidelity")
    p = _number(cells, "probability_total")
    f_expected = ideal_fidelity(alpha_f, t, eta)
    p_expected = ideal_probability(alpha_f, t, eta)
    if abs(f - f_expected) > CLOSED_FORM_F_TOL:
        return f"F {f!r} vs closed form {f_expected!r}"
    if abs(p / p_expected - 1.0) > CLOSED_FORM_P_RTOL:
        return f"P {p!r} vs closed form {p_expected!r}"
    return None


def _reproduce(argvs) -> List[str]:
    """Run `hybridcat reproduce` for each argument list and return what went
    wrong: exceptions raised and exit codes other than 0. The summary the
    command prints goes to a buffer and the tables to their files. A command
    that fails part-way leaves its rows missing or marked as errors in the
    saved table, and the checks count those rows as failed."""
    from hybridcat.cli import main

    errors = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            command = " ".join(argv[:3])
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001  counted through the rows
                errors.append(f"{command}: {exc!r}")
                continue
            if code != 0:
                errors.append(f"{command}: exit code {code}")
    return errors


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload. `build` is part of set-up; `run` is the timed call;
    `check` turns the outputs of one repetition into an Outcome, untimed;
    `check_deferred` finishes the checks that need reference values, once
    per run, after the timed repetitions and the reading of peak memory."""

    name = ""

    def __init__(self, out_dir: str, seed: int):
        self.out_dir = out_dir
        self.seed = seed

    def build(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)

    def clean(self) -> None:
        """Remove the previous repetition's tables, so none is read stale."""
        for name in os.listdir(self.out_dir):
            if name.endswith(".tsv"):
                os.remove(os.path.join(self.out_dir, name))

    def run(self):
        raise NotImplementedError

    def check(self, output) -> Outcome:
        raise NotImplementedError

    def check_deferred(self, deferred) -> List[str]:
        """Failures among the deferred entries of the counted repetitions."""
        return []


class IdealGrids(Workload):
    name = "ideal_grids"

    def build(self):
        super().build()
        self.fig2 = os.path.join(self.out_dir, "figure2.tsv")
        self.fig3 = os.path.join(self.out_dir, "figure3.tsv")
        self.argvs = (
            ["reproduce", "--figure", "2", "--output", self.fig2],
            ["reproduce", "--figure", "3", "--output", self.fig3],
        )

    def run(self):
        return _reproduce(self.argvs)

    def check(self, output) -> Outcome:
        outcome = Outcome(errors=output)
        fig2 = read_table(self.fig2) or {}
        for eta in FIG2_ETA:
            for t in FIG2_T:
                outcome.record(
                    f"fig2 eta={eta} t={t}",
                    _closed_form_problem(fig2.get((eta, t)), 1.0, t, eta),
                )
        fig3 = read_table(self.fig3) or {}
        for alpha_f in FIG3_ALPHA_F:
            for eta in FIG3_ETA:
                outcome.record(
                    f"fig3 alpha_f={alpha_f} eta={eta}",
                    _closed_form_problem(fig3.get((alpha_f, eta)), alpha_f, 0.99, eta),
                )
        return outcome


class RealisticGrids(Workload):
    name = "realistic_grids"

    def build(self):
        super().build()
        self.argvs = (
            ["reproduce", "--figure", "4", "--output", self._path(4)],
            ["reproduce", "--figure", "5", "--output", self._path(5)],
        )
        # Figure-5 rows recomputed through the full-ensemble `run_scheme`, a
        # second code path: each panel's spot row and a few seed-picked rows.
        rng = random.Random(self.seed)
        self.recomputed = set()
        for panel in PANELS:
            points = {(0.5, FIG5_SPOTS[panel][0])}
            while len(points) < 1 + FIG5_RECOMPUTED_PER_PANEL:
                points.add((rng.choice(FIG5_ETA), rng.choice(FIG5_LAMBDA)))
            self.recomputed.update((panel, eta, lam) for eta, lam in points)

    def _path(self, figure: int, panel: str = "") -> str:
        suffix = f"_{panel}" if panel else ""
        return os.path.join(self.out_dir, f"figure{figure}{suffix}.tsv")

    def run(self):
        return _reproduce(self.argvs)

    def check(self, output) -> Outcome:
        outcome = Outcome(errors=output)
        for panel in PANELS:
            table = read_table(self._path(4, panel)) or {}
            for eta in FIG4_ETA:
                for t in FIG4_T:
                    cells = table.get((eta, t))
                    outcome.record(
                        f"fig4{panel} eta={eta} t={t}",
                        _row_problem(cells) or self._fig4_problem(panel, eta, t, cells),
                    )
        for panel in PANELS:
            table = read_table(self._path(5, panel)) or {}
            for eta in FIG5_ETA:
                for lam in FIG5_LAMBDA:
                    name = f"fig5{panel} eta={eta} lambda={lam}"
                    cells = table.get((eta, lam))
                    problem = _row_problem(cells) or self._fig5_problem(panel, eta, lam, cells)
                    outcome.record(name, problem)
                    if problem is None and (panel, eta, lam) in self.recomputed:
                        values = (_number(cells, "probability_total"),
                                  _number(cells, "fidelity"))
                        outcome.deferred.append((name, (panel, eta, lam), values))
        return outcome

    @staticmethod
    def _fig4_problem(panel, eta, t, cells):
        f = _number(cells, "fidelity")
        if t >= 0.99 and not f > FIG4_FIDELITY_FLOOR[panel]:
            return f"F {f} not above {FIG4_FIDELITY_FLOOR[panel]}"
        if (t, eta) == (0.99, 0.7):
            n = _number(cells, "negativity")
            quoted = FIG4_NEGATIVITY[panel]
            if n is None or abs(n - quoted) > FIG4_NEGATIVITY_TOL:
                return f"negativity {n} vs the paper's {quoted}"
        return None

    @staticmethod
    def _fig5_problem(panel, eta, lam, cells):
        p = _number(cells, "probability_total")
        spot_lam, spot_p = FIG5_SPOTS[panel]
        if (eta, lam) == (0.5, spot_lam) and abs(p / spot_p - 1.0) > FIG5_SPOT_TOL:
            return f"P_tot {p} vs the paper's {spot_p}"
        return None

    def check_deferred(self, deferred) -> List[str]:
        from hybridcat import SchemeConfig, run_scheme

        references = {}
        for panel, eta, lam in sorted(self.recomputed):
            s, alpha_i = PANELS[panel]
            result = run_scheme(
                SchemeConfig(
                    t=0.99, eta=eta, alpha_i=alpha_i, scs_source="squeezed",
                    s=s, pair_source="spdc", lam=lam, detector="onoff",
                )
            )
            references[(panel, eta, lam)] = (result.probability_total, result.fidelity)
        failures = []
        for name, key, (p, f) in deferred:
            p_full, f_full = references[key]
            if abs(p / p_full - 1.0) > SECOND_PATH_P_RTOL:
                failures.append(f"{name}: P {p!r} vs full-ensemble run {p_full!r}")
            elif abs(f - f_full) > SECOND_PATH_F_TOL:
                failures.append(f"{name}: F {f!r} vs full-ensemble run {f_full!r}")
        return failures


class LargeAmplitude(Workload):
    name = "large_amplitude"

    def build(self):
        super().build()
        from hybridcat import SchemeConfig

        self.config = SchemeConfig(**LARGE_AMPLITUDE)

    def run(self):
        from hybridcat import run_scheme

        try:
            return run_scheme(self.config)
        except Exception as exc:  # noqa: BLE001  counted as the failed operation
            return exc

    def check(self, output) -> Outcome:
        import numpy as np

        outcome = Outcome()
        if isinstance(output, Exception):
            outcome.record("run_scheme alpha_f=2.5", repr(output))
            return outcome
        t, eta, alpha_f = (LARGE_AMPLITUDE[k] for k in ("t", "eta", "alpha_f"))
        f_expected = ideal_fidelity(alpha_f, t, eta)
        p_expected = ideal_probability(alpha_f, t, eta)
        rho = output.post_state.matrix
        eigenvalues = np.linalg.eigvalsh(rho)
        problem = None
        if abs(output.fidelity - f_expected) > CLOSED_FORM_F_TOL:
            problem = f"F {output.fidelity!r} vs closed form {f_expected!r}"
        elif abs(output.probability_total / p_expected - 1.0) > CLOSED_FORM_P_RTOL:
            problem = f"P {output.probability_total!r} vs closed form {p_expected!r}"
        elif float(np.abs(rho - rho.conj().T).max()) > STATE_TOL:
            problem = "post-state is not Hermitian"
        elif eigenvalues.min() < -STATE_TOL:
            problem = f"post-state eigenvalue {eigenvalues.min():.3e} < 0"
        elif abs(float(np.trace(rho).real) - 1.0) > STATE_TOL:
            problem = f"post-state trace {np.trace(rho).real!r} != 1"
        outcome.record("run_scheme alpha_f=2.5", problem)
        return outcome


WORKLOADS: Dict[str, Callable[[str, int], Workload]] = {
    cls.name: cls for cls in (IdealGrids, RealisticGrids, LargeAmplitude)
}
