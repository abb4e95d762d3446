"""Deterministic Fock-space simulator for heralding hybrid entanglement
between a single-photon polarization qubit and a coherent field.

The simulation follows one optical scheme: a cat-like superposition of
coherent states is split on a high-transmissivity tap, the tapped beam
interferes with one photon of a polarization-entangled pair behind
displaced detectors, and a two-detector click pattern heralds the
entangled state of the surviving photon and field. The package computes
the heralded state exactly in a truncated Fock space, reports success
probabilities, fidelities and entanglement negativities, and cross-checks
itself against closed-form expressions wherever they exist.
"""

from .analytic import (
    PROBABILITY_CONVENTION_FACTOR,
    f_eff,
    fidelity_eta,
    ideal_negativity,
    n_phi,
    p_success_ideal,
    p_tot_eta,
    scs_fidelity,
)
from .errors import (
    CutoffError,
    HeraldImpossibleError,
    SimulationError,
    TruncationError,
    ValidationError,
)
from .fock_core import DensityOperator
from .pipeline import (
    SWEEP_AXES,
    ResolvedCutoffs,
    SchemeConfig,
    SchemeResult,
    SweepRow,
    SweepTable,
    resolve_cutoffs,
    run_scheme,
    sweep,
)
from .resource_states import source_amplitudes, squeezed_amplitudes

__version__ = "0.1.0"

__all__ = [
    "PROBABILITY_CONVENTION_FACTOR",
    "SWEEP_AXES",
    "CutoffError",
    "DensityOperator",
    "HeraldImpossibleError",
    "ResolvedCutoffs",
    "SchemeConfig",
    "SchemeResult",
    "SimulationError",
    "SweepRow",
    "SweepTable",
    "TruncationError",
    "ValidationError",
    "__version__",
    "f_eff",
    "fidelity_eta",
    "ideal_negativity",
    "n_phi",
    "p_success_ideal",
    "p_tot_eta",
    "resolve_cutoffs",
    "run_scheme",
    "scs_fidelity",
    "source_amplitudes",
    "squeezed_amplitudes",
    "sweep",
]
