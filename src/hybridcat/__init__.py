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
from .fock_core import (
    DensityOperator,
    Ensemble,
    PureState,
    Register,
    basis_state,
    build_register,
    inner,
    tensor,
    to_density,
)
from .metrics import (
    Bipartition,
    fidelity,
    negativity,
    partial_transpose,
    support_negativity,
    target_hybrid,
)
from .pipeline import (
    SWEEP_AXES,
    ResolvedCutoffs,
    SchemeConfig,
    SchemeResult,
    SweepRow,
    SweepTable,
    build_prestate,
    resolve_cutoffs,
    run_scheme,
    spdc_decomposition,
    sweep,
)
from .resource_states import (
    bell_chi,
    coherent,
    pair_source,
    phi_state,
    scs,
    squeezed_amplitudes,
)
from .selfcheck import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "PROBABILITY_CONVENTION_FACTOR",
    "SWEEP_AXES",
    "Bipartition",
    "CheckResult",
    "CutoffError",
    "DensityOperator",
    "Ensemble",
    "HeraldImpossibleError",
    "PureState",
    "Register",
    "ResolvedCutoffs",
    "SchemeConfig",
    "SchemeResult",
    "SimulationError",
    "SweepRow",
    "SweepTable",
    "TruncationError",
    "ValidationError",
    "__version__",
    "basis_state",
    "bell_chi",
    "build_prestate",
    "build_register",
    "coherent",
    "f_eff",
    "fidelity",
    "fidelity_eta",
    "ideal_negativity",
    "inner",
    "n_phi",
    "negativity",
    "p_success_ideal",
    "p_tot_eta",
    "pair_source",
    "partial_transpose",
    "phi_state",
    "resolve_cutoffs",
    "run_scheme",
    "scs",
    "scs_fidelity",
    "spdc_decomposition",
    "squeezed_amplitudes",
    "support_negativity",
    "sweep",
    "target_hybrid",
    "tensor",
    "to_density",
]
