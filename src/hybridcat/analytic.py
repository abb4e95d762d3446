"""Closed-form expressions used as fast paths and cross-validation oracles.

Every function here is a plain scalar formula; the numerical pipeline is
cross-checked against these on configurations where they apply (ideal
superposition-of-coherent-states resource, ideal or vacuum-mixed photon
pair, photon-number-resolving detectors). For approximate resources the
numerics are authoritative and these formulas are not used.

Probability bookkeeping: `p_success_ideal` is the probability of heralding
on one specific detector pattern, which the simulator reproduces exactly;
the click-pattern total over both accepted patterns is twice that.
`p_tot_eta` is the conventional closed-form total with detector efficiency
folded in; it counts each pattern with the displaced beam's full amplitude
credited to a single polarization channel, which overstates the physical,
polarization-consistent total by exactly a factor of two. The simulator's
total therefore satisfies P_tot = PROBABILITY_CONVENTION_FACTOR * p_tot_eta,
with the factor constant across all parameters.

`PANELS` declares the panels of figures 4 and 5 once: the squeezed
photon's (s, alpha_i) that both figures of a panel share, figure 4's
quoted fidelity floor and negativity, and figure 5's conversion spot,
which has no closed form. `reproduce` prints the tables' cells next to
them and `selfcheck` asserts those cells. Every argument is held to the
rule `SchemeConfig` applies, which checks its cat by `n_phi` and its
lambda by `interaction_strength`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

from .detection import efficiency
from .errors import ValidationError, nonnegative, real
from .optics import transmissivity

__all__ = [
    "PANELS",
    "PROBABILITY_CONVENTION_FACTOR",
    "interaction_strength",
    "n_phi",
    "p_success_ideal",
    "fidelity_eta",
    "p_tot_eta",
    "scs_fidelity",
    "f_eff",
    "ideal_negativity",
]

PROBABILITY_CONVENTION_FACTOR = 0.5


@dataclass(frozen=True)
class Panel:
    """One panel of figures 4 and 5 (arXiv:1410.6823). Both figures use the
    squeezed single photon of squeezing `s` for the superposition of
    amplitude `alpha_i`. Figure 4 quotes F > `fidelity_floor` for
    t >= 0.99 and N = `negativity` at t = 0.99, eta = 0.7. Figure 5's
    conversion spot is lambda = `lam` at t = 0.99, eta = 0.5, where the
    paper quotes `f_eff_quoted` and `p_tot_quoted`; `f_eff` is this
    implementation's converged value there, frozen for regression, since
    the quote is not reproduced (see README).
    """

    s: float
    alpha_i: float
    fidelity_floor: float
    negativity: float
    lam: float
    f_eff: float
    f_eff_quoted: float
    p_tot_quoted: float


PANELS = MappingProxyType({
    "a": Panel(
        s=0.161, alpha_i=0.7, fidelity_floor=0.996, negativity=0.922,
        lam=0.022, f_eff=0.950732, f_eff_quoted=0.939, p_tot_quoted=5.1e-7,
    ),
    "b": Panel(
        s=0.313, alpha_i=1.0, fidelity_floor=0.986, negativity=0.982,
        lam=0.038, f_eff=0.869283, f_eff_quoted=0.842, p_tot_quoted=2.4e-6,
    ),
})


def interaction_strength(lam) -> float:
    """A downconversion interaction strength as a float: a number in
    [0, 1), the one range check of the pair source's lambda and `f_eff`'s."""
    lam = float(real("lambda", lam))
    if not 0.0 <= lam < 1.0:
        raise ValidationError(
            f"interaction strength lambda must be in [0, 1), got {lam}"
        )
    return lam


def n_phi(alpha: float, phi: float) -> float:
    """Normalization of N (|alpha> + e^{i phi} |-alpha>)."""
    nonnegative("alpha", alpha)
    denom = 2.0 + 2.0 * math.exp(-2.0 * alpha * alpha) * math.cos(real("phi", phi))
    if denom <= 1e-12:
        raise ValidationError(
            f"superposition normalization diverges at alpha={alpha}, phi={phi}"
        )
    return denom ** -0.5


def p_success_ideal(alpha: float, t: float, phi: float = math.pi) -> float:
    """Single-pattern herald probability with ideal resources and detectors.

    Equals (1/2) N^2 (1-t) alpha^2 exp(-2 (1-t) alpha^2) in the source
    amplitude alpha = alpha_i; at the optimal transmissivity
    t = 1 - 1/(2 alpha^2) it approaches 1/(8e) for large alpha. The
    accepted-pattern total is twice this value.
    """
    t, alpha = transmissivity(t), nonnegative("alpha", alpha)
    mu2 = (1.0 - t) * alpha * alpha
    return 0.5 * n_phi(alpha, phi) ** 2 * mu2 * math.exp(-2.0 * mu2)


def fidelity_eta(alpha_f: float, t: float, eta: float) -> float:
    """Heralded-state fidelity with detector efficiency eta.

    (1/2) (1 + exp(-2 (1-eta) (1/t - 1) alpha_f^2)); exact for the ideal
    resource states under number-resolved heralding.
    """
    t, eta = transmissivity(t), efficiency(eta)
    alpha_f = nonnegative("alpha_f", alpha_f)
    mu2 = (1.0 / t - 1.0) * alpha_f * alpha_f
    return 0.5 * (1.0 + math.exp(-2.0 * (1.0 - eta) * mu2))


def p_tot_eta(alpha_f: float, t: float, eta: float, phi: float = math.pi) -> float:
    """Conventional closed-form total herald probability with efficiency eta.

    2 N^2 eta^2 (1/t - 1) alpha_f^2 exp(-2 eta (1/t - 1) alpha_f^2). See the
    module docstring: the simulator's polarization-consistent total equals
    PROBABILITY_CONVENTION_FACTOR times this expression.
    """
    t, eta = transmissivity(t), efficiency(eta)
    alpha_i = nonnegative("alpha_f", alpha_f) / math.sqrt(t)
    mu2 = (1.0 / t - 1.0) * alpha_f * alpha_f
    return (
        2.0 * n_phi(alpha_i, phi) ** 2 * eta * eta * mu2
        * math.exp(-2.0 * eta * mu2)
    )


def scs_fidelity(alpha: float, s: float) -> float:
    """Fidelity of a squeezed single photon to the odd coherent superposition.

    2 alpha^2 exp(alpha^2 (tanh s - 1)) / (cosh^3 s (1 - exp(-2 alpha^2))).
    """
    if nonnegative("alpha", alpha) == 0.0:
        raise ValidationError("alpha must be positive, got 0")
    nonnegative("s", s)
    a2 = alpha * alpha
    return (
        2.0 * a2 * math.exp(a2 * (math.tanh(s) - 1.0))
        / (math.cosh(s) ** 3 * (1.0 - math.exp(-2.0 * a2)))
    )


def f_eff(p_vac: float, p_chi: float, p_phi2: float, lam: float,
          f_chi: float) -> float:
    """Effective fidelity with a parametric pair source of strength lam.

    P_chi / (lam^-2 P_vac + P_chi + lam^2 P_phi2) * F_chi, with the photon
    pair's success diluted by false heralds from the vacuum and double-pair
    components. At lam = 0 the vacuum term dominates (limit 0) unless
    P_vac = 0, in which case the limit is F_chi.
    """
    for name, value in (("p_vac", p_vac), ("p_chi", p_chi), ("p_phi2", p_phi2)):
        nonnegative(name, value)
    lam, f_chi = interaction_strength(lam), real("f_chi", f_chi)
    if lam == 0.0:
        if p_vac > 0.0:
            return 0.0
        if p_chi == 0.0:
            raise ValidationError("all component probabilities vanish")
        return f_chi
    denom = p_vac / (lam * lam) + p_chi + lam * lam * p_phi2
    if denom <= 0.0:
        raise ValidationError("all component probabilities vanish")
    return p_chi / denom * f_chi


def ideal_negativity(alpha_f: float) -> float:
    """Negativity of the ideal hybrid state: sqrt(1 - exp(-4 alpha_f^2)).

    Follows from the two-term Schmidt decomposition of the hybrid state: the
    coherent branches overlap by exp(-2 alpha_f^2), giving Schmidt
    coefficients (1 +- exp(-2 alpha_f^2))/2 and negativity
    2 sqrt(p_plus p_minus).
    """
    alpha_f = nonnegative("alpha_f", alpha_f)
    return math.sqrt(1.0 - math.exp(-4.0 * alpha_f * alpha_f))
