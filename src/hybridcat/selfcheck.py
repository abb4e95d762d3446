"""Named validation checks for the simulator.

Each check compares a computed quantity against an expectation with an
explicit tolerance: operator-level identities (beam-splitter unitarity,
detector completeness, coherent interference), scheme-level invariants
(vacuum filtering, mixture scaling, herald-pattern symmetry, the documented
numeric/analytic probability ratio), and the reference values the simulator
is validated against. The figure 4 and 5 checks join, over both panels,
the claims `cli.panel_checks` reads off the tables `reproduce` prints.
`run_all_checks` evaluates the checks in a fixed order, names each result
after its function, and is the engine behind the command-line `selfcheck`
subcommand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from . import analytic
from .cli import CheckResult, figure_sweep, panel_checks
from .detection import povm_click, povm_pnr
from .metrics import matrix_negativity
from .optics import displacement_matrix, mixer_amplitudes, splitter
from .oracle import bs_fock_coefficient, herald_patterns, mix, target_hybrid
from .pipeline import SchemeConfig, run_scheme, sweep
from .resource_states import coherent_amplitudes


def _sector_unitary_from_coefficients(total: int, t: float) -> np.ndarray:
    """Beam-splitter block on the fixed-photon-number sector, assembled from
    the combinatorial coefficients.

    The |out_i, total - out_i> amplitude for input |n, m> sums the
    coefficient over all (p, q) splittings landing in that output, restoring
    the bosonic factor sqrt(out_i! out_j! / (n! m!)) * sqrt(C(n,p) C(m,q))
    that the bare coefficient omits.
    """
    dim = total + 1
    block = np.zeros((dim, dim))
    for n in range(dim):
        m = total - n
        for p in range(n + 1):
            for q in range(m + 1):
                out_i = p + (m - q)
                boson = math.sqrt(
                    math.factorial(out_i) * math.factorial(total - out_i)
                    / (math.factorial(n) * math.factorial(m))
                    * math.comb(n, p) * math.comb(m, q)
                )
                block[out_i, n] += bs_fock_coefficient(n, m, p, q, t) * boson
    return block


def check_bs_unitarity() -> CheckResult:
    """Brute-force unitarity of the splitter coefficients for n + m <= 6."""
    worst = 0.0
    worst_amplitude = 0.0
    for t in (0.3, 0.5, 0.73, 0.99):
        amplitudes = mixer_amplitudes(splitter(t), 8, 8)
        for total in range(7):
            block = _sector_unitary_from_coefficients(total, t)
            gram = block.T @ block - np.eye(total + 1)
            worst = max(worst, float(np.abs(gram).max()))
            n = np.arange(total + 1)
            entries = amplitudes[n, total - n][:, n].T  # [out_i, n], as block
            worst_amplitude = max(
                worst_amplitude,
                float(np.abs(block - entries.real).max()),
                float(np.abs(entries.imag).max()),
            )
    passed = worst <= 1e-10 and worst_amplitude <= 1e-12
    return CheckResult(
        passed,
        "U^T U = 1 on every sector; entries match the mixer amplitudes",
        f"max |U^T U - 1| = {worst:.2e}, max amplitude mismatch = {worst_amplitude:.2e}",
        "1e-10 / 1e-12",
    )


def check_bs_coefficient_norm() -> CheckResult:
    """The printed splitting coefficients square-sum to one per input."""
    worst = 0.0
    for t in (0.3, 0.5, 0.73):
        for n in range(5):
            for m in range(5 - n):
                total = sum(
                    bs_fock_coefficient(n, m, p, q, t) ** 2
                    for p in range(n + 1)
                    for q in range(m + 1)
                )
                worst = max(worst, abs(total - 1.0))
    return CheckResult(
        worst <= 1e-12,
        "sum_{p,q} B_pq^2 = 1",
        f"max deviation {worst:.2e}",
        "1e-12",
    )


def check_povm_completeness() -> CheckResult:
    worst = 0.0
    cutoff = 9
    for eta in (0.3, 0.5, 0.7, 1.0):
        total = np.zeros(cutoff + 1)
        for n in range(cutoff + 1):
            total += povm_pnr(n, eta, cutoff)
        worst = max(worst, float(np.abs(total - 1.0).max()))
        pair = povm_pnr(0, eta, cutoff) + povm_click(eta, cutoff)
        worst = max(worst, float(np.abs(pair - 1.0).max()))
    return CheckResult(
        worst <= 1e-12,
        "sum_n E_n = 1 and E_0 + E_click = 1",
        f"max deviation {worst:.2e}",
        "1e-12",
    )


def check_displacement_composition() -> CheckResult:
    worst = 0.0
    cutoff = 24
    for alpha in (0.4, 0.9, 0.5 + 0.3j):
        zero = displacement_matrix(0.0, cutoff)
        worst = max(worst, float(np.abs(zero - np.eye(cutoff + 1)).max()))
        forward = displacement_matrix(alpha, cutoff)
        backward = displacement_matrix(-alpha, cutoff)
        # interior block only: the truncation edge is not unitary
        product = (backward @ forward)[:8, :8]
        worst = max(worst, float(np.abs(product - np.eye(8)).max()))
    return CheckResult(
        worst <= 1e-10,
        "D(0) = 1 and D(-a) D(a) = 1 away from the truncation edge",
        f"max deviation {worst:.2e}",
        "1e-10",
    )


def check_coherent_interference() -> CheckResult:
    """Mixing two coherent beams gives coherent beams with the scattered
    amplitudes; at 50:50 the single-photon pair shows the two-photon dip."""
    worst = 0.0
    cutoff = 20
    for t in (0.5, 0.73):
        scattering = splitter(t)
        for alpha, beta in ((0.4, 0.2), (0.6, 0.5j)):
            pair = np.multiply.outer(
                coherent_amplitudes(alpha, cutoff), coherent_amplitudes(beta, cutoff)
            )
            state = mix(pair, (0, 1), scattering)
            out_i = scattering[0, 0] * alpha + scattering[0, 1] * beta
            out_j = scattering[1, 0] * alpha + scattering[1, 1] * beta
            expected = np.multiply.outer(
                coherent_amplitudes(out_i, cutoff), coherent_amplitudes(out_j, cutoff)
            )
            worst = max(worst, abs(1.0 - abs(np.vdot(expected, state))))
    ket = np.zeros((5, 5), dtype=np.complex128)
    ket[1, 1] = 1.0
    hom = abs(mix(ket, (0, 1), splitter(0.5)))
    split = abs(hom[2, 0] - 1.0 / math.sqrt(2.0)) + abs(hom[0, 2] - 1.0 / math.sqrt(2.0))
    worst = max(worst, hom[1, 1], split)
    return CheckResult(
        worst <= 1e-10,
        "coherent in -> coherent out at scattered amplitudes; (1,1) -> no coincidence",
        f"max deviation {worst:.2e}",
        "1e-10",
    )


def _ideal_config(alpha_i: float, t: float, eta: float = 1.0, **kw) -> SchemeConfig:
    return SchemeConfig(t=t, eta=eta, alpha_i=alpha_i, **kw)


def _vacuum_probability(config: SchemeConfig) -> float:
    """Herald probability of the empty pair alone, both patterns: the unit
    vacuum sector of a vacuum-mixed pair."""
    run = run_scheme(replace(config, pair_source="vacuum_mixed", z=0.5))
    return run.sector_probabilities[0]


def check_vacuum_filtering() -> CheckResult:
    """An empty pair source never fires the number-resolved herald.

    The dark output port of the interference is exactly empty, so the
    cross-pattern herald probability is zero; numerically a floor remains
    from the truncated tail of the source mode. The check pins both facts:
    the residual sits below 1e-12 at the default cutoffs and collapses by
    many more decades when the source cutoff grows, which a genuinely
    nonzero probability could not do.
    """
    worst = 0.0
    for alpha_i, t in ((0.7, 0.9), (1.0, 0.9), (1.0, 0.99)):
        worst = max(worst, _vacuum_probability(_ideal_config(alpha_i, t)))
    base = _vacuum_probability(_ideal_config(1.0, 0.9))
    deep = _vacuum_probability(
        SchemeConfig(t=0.9, eta=1.0, alpha_i=1.0, cutoff_b=20)
    )
    collapse = deep / base if base > 0.0 else 0.0
    passed = worst <= 1e-12 and collapse <= 1e-6
    return CheckResult(
        passed,
        "herald probability 0 (truncation floor only)",
        f"max residual {worst:.2e}; deepening the source cutoff leaves "
        f"{collapse:.1e} of it",
        "1e-12, collapse factor 1e-6",
    )


def check_mixture_scaling() -> CheckResult:
    pure = run_scheme(_ideal_config(0.7, 0.9, 0.8))
    z = 0.37
    mixed = run_scheme(
        _ideal_config(0.7, 0.9, 0.8, pair_source="vacuum_mixed", z=z)
    )
    ratio = mixed.probability_total / pure.probability_total
    fidelity_shift = abs(mixed.fidelity - pure.fidelity)
    passed = abs(ratio - z) <= 1e-12 and fidelity_shift <= 1e-9
    return CheckResult(
        passed,
        f"P ratio {z}, fidelity unchanged",
        f"ratio {ratio:.15f}, fidelity shift {fidelity_shift:.2e}",
        "1e-12 / 1e-9",
    )


def check_pattern_symmetry() -> CheckResult:
    """The two herald patterns fire equally and agree after the bit flip,
    on the dense seven-mode state; `run_scheme`'s factored contraction
    gives both the same probability. The dense state holds every detector
    mode, which `run_scheme` never forms, so a small amplitude keeps it
    cheap."""
    config = _ideal_config(0.5, 0.95, 0.9, cutoff_b=8)
    (p_plain, plain), (p_flipped, flipped) = herald_patterns(config)
    probs = [p_plain, p_flipped]
    prob_gap = abs(probs[0] - probs[1]) / max(probs)
    state_gap = float(np.abs(plain - flipped).max())
    factored = run_scheme(config).plain_probability
    oracle_gap = max(abs(factored - p) / p for p in probs)
    passed = prob_gap <= 1e-10 and state_gap <= 1e-9 and oracle_gap <= 1e-12
    return CheckResult(
        passed,
        "equal pattern probabilities, identical corrected posts, factored "
        "herald equal to the dense one",
        f"probability gap {prob_gap:.2e}, state gap {state_gap:.2e}, "
        f"factored vs dense {oracle_gap:.2e}",
        "1e-10 / 1e-9 / 1e-12",
    )


@functools.lru_cache(maxsize=None)
def _ideal_runs() -> tuple:
    """(P over its closed form, F) of the six ideal runs `probability_ratio` and
    `ideal_exactness` read, once per `run_all_checks`, which empties this cache."""
    points = [(a, t) for a in (0.7, 1.0) for t in (0.75, 0.9, 0.99)]
    runs = [run_scheme(_ideal_config(a, t)) for a, t in points]
    return tuple((r.probability_total / r.analytic_p_tot, r.fidelity) for r in runs)


def check_probability_ratio() -> CheckResult:
    """Numeric total probability over the closed form is one constant."""
    ratios = np.array([ratio for ratio, _ in _ideal_runs()])
    spread = float(ratios.max() - ratios.min()) / float(ratios.mean())
    constant = float(ratios.mean())
    documented = analytic.PROBABILITY_CONVENTION_FACTOR
    passed = spread < 1e-6 and abs(constant - documented) <= 1e-9
    return CheckResult(
        passed,
        f"constant {documented}",
        f"constant {constant:.12f}, relative spread {spread:.2e}",
        "spread < 1e-6, offset < 1e-9",
    )


def check_ideal_exactness() -> CheckResult:
    worst = max(0.0, *(1.0 - fidelity for _, fidelity in _ideal_runs()))
    return CheckResult(
        worst <= 1e-8,
        "fidelity 1 with ideal resources and detectors",
        f"max infidelity {worst:.2e}",
        "1e-8",
    )


def check_detector_fidelity_formula() -> CheckResult:
    # four preparations at two efficiencies each; a failed row misses by inf
    rows = sweep(
        SchemeConfig(t=0.9, eta=0.9, alpha_f=0.7),
        {"t": (0.9, 0.99), "alpha_f": (0.7, 1.0), "eta": (0.7, 0.9)},
    ).rows
    worst = max(
        math.inf if row.fidelity is None
        else abs(row.fidelity - analytic.fidelity_eta(p["alpha_f"], p["t"], p["eta"]))
        for row in rows for p in [dict(row.params)]
    )
    return CheckResult(
        worst <= 1e-4,
        "numeric fidelity matches the closed form",
        f"max |numeric - analytic| = {worst:.2e}",
        "1e-4",
    )


def check_scs_fidelity_spots() -> CheckResult:
    """Each panel's squeezed photon against the superposition it stands for."""
    panels = analytic.PANELS.values()
    first, second = (analytic.scs_fidelity(p.alpha_i, p.s) for p in panels)
    passed = abs(first - 0.9998) <= 5e-4 and abs(second - 0.997) <= 5e-3
    return CheckResult(
        passed,
        "0.9998 and 0.997",
        f"{first:.5f} and {second:.5f}",
        "5e-4 / 5e-3",
    )


def check_target_negativity() -> CheckResult:
    worst_quote = 0.0
    worst_closed = 0.0
    for alpha_f, quote in ((0.7, 0.927), (1.0, 0.991)):
        field = max(10, int(8 * alpha_f ** 2) + 8)
        state = target_hybrid(alpha_f, math.pi, (2, 2, field + 1)).ravel()
        value = matrix_negativity(np.outer(state, state.conj()), 4)
        worst_quote = max(worst_quote, abs(value - quote))
        worst_closed = max(
            worst_closed, abs(value - analytic.ideal_negativity(alpha_f))
        )
    passed = worst_quote <= 1e-3 and worst_closed <= 1e-9
    return CheckResult(
        passed,
        "0.927 / 0.991, equal to the closed form",
        f"quote gap {worst_quote:.2e}, closed-form gap {worst_closed:.2e}",
        "1e-3 / 1e-9",
    )


def check_asymptotic_probability() -> CheckResult:
    alpha = 10.0
    t = 1.0 - 1.0 / (2.0 * alpha * alpha)
    value = analytic.p_success_ideal(alpha, t)
    limit = 1.0 / (8.0 * math.e)
    gap = abs(value - limit) / limit
    return CheckResult(
        gap <= 0.01,
        f"1/(8e) = {limit:.6f}",
        f"{value:.6f} (relative gap {gap:.2e})",
        "1%",
    )


@functools.lru_cache(maxsize=None)
def _joined(figure: int) -> dict:
    """Each claim of figure 4 or 5 (`cli.panel_checks`) by name, joined over
    both panels: it passes where every panel's does and lists each panel's
    expected and actual values; a claim's tolerance and note are the same
    on every panel. One sweep of each panel table per `run_all_checks`,
    which empties this cache."""
    parts = {}
    for panel in analytic.PANELS:
        base, grid = figure_sweep(figure, panel)
        for result in panel_checks(figure, panel, base, sweep(base, grid)):
            parts.setdefault(result.name, []).append((panel, result))
    return {
        name: CheckResult(
            all(result.passed for _, result in part),
            "; ".join(f"panel {panel}: {result.expected}" for panel, result in part),
            "; ".join(f"panel {panel}: {result.actual}" for panel, result in part),
            part[0][1].tolerance, part[0][1].detail,
        )
        for name, part in parts.items()
    }


def check_heralded_negativity() -> CheckResult:
    """Figure 4's negativity at its base point."""
    return _joined(4)["heralded_negativity"]


def check_approximate_resource_thresholds() -> CheckResult:
    """Figure 4's fidelity floor and probability band."""
    return _joined(4)["approximate_resource_thresholds"]


def check_spdc_lambda_scaling() -> CheckResult:
    """The run's F equals the paper's F_eff formula at three lambda, and
    at one small point (the `pattern_symmetry` size) its P and heralded
    state equal the dense oracle's herald of the pair-number mixture."""
    worst_f = 0.0
    base = replace(figure_sweep(5, "a")[0], eta=0.8)
    for lam in (0.01, 0.03, 0.05):
        full = run_scheme(replace(base, lam=lam))
        p = full.sector_probabilities
        formula = analytic.f_eff(p[0], p[1], p[2], lam, full.f_chi)
        worst_f = max(worst_f, abs(full.fidelity - formula) / formula)
    small = replace(base, t=0.95, eta=0.9, alpha_i=0.5, lam=0.05, cutoff_b=11)
    run = run_scheme(small)
    (probability, post), _ = herald_patterns(small)
    gap_p = abs(run.plain_probability / probability - 1.0)
    gap_state = float(np.abs(run.post_state.matrix - post).max())
    return CheckResult(
        max(gap_p, gap_state) <= 1e-12 and worst_f <= 1e-12,
        "P and heralded state equal to the dense pair-number mixture's; "
        "F equal to the paper's F_eff",
        f"relative gap {gap_p:.2e} in P, {gap_state:.2e} in the state, "
        f"{worst_f:.2e} in F",
        "1e-12 / 1e-12",
    )


def check_conversion_spots() -> CheckResult:
    """Figure 5's P_tot and F_eff at the conversion spots."""
    return _joined(5)["conversion_spots"]


ALL_CHECKS: Sequence[Callable[[], CheckResult]] = (
    check_bs_unitarity,
    check_bs_coefficient_norm,
    check_povm_completeness,
    check_displacement_composition,
    check_coherent_interference,
    check_vacuum_filtering,
    check_mixture_scaling,
    check_pattern_symmetry,
    check_probability_ratio,
    check_ideal_exactness,
    check_detector_fidelity_formula,
    check_scs_fidelity_spots,
    check_target_negativity,
    check_asymptotic_probability,
    check_heralded_negativity,
    check_approximate_resource_thresholds,
    check_spdc_lambda_scaling,
    check_conversion_spots,
)


def run_all_checks(names: Optional[Iterable[str]] = None) -> List[CheckResult]:
    """Run the named checks (all of them by default), in declaration order."""
    wanted = None if names is None else set(names)
    _joined.cache_clear()
    _ideal_runs.cache_clear()
    results = []
    for func in ALL_CHECKS:
        name = func.__name__.removeprefix("check_")
        if wanted is None or name in wanted:
            result = func()
            results.append(replace(result, name=name, passed=bool(result.passed)))
    return results
