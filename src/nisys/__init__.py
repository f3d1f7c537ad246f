"""Analysis and synthesis for negative-imaginary systems.

Core objects: StateSpace / ModalModel realizations, zeros-of-Phi verdicts for
the negative-imaginary properties, frequency sweeps for the positive-real
ones, LMI certificates on demand, the DC-gain stability test for positive
feedback loops, standard NI controller families with a gain tuning loop, and
state feedback synthesis against strictly-NI uncertainty.
"""

from .analysis import (
    Classification,
    FreqVerdict,
    NiLmiResult,
    PhiZeros,
    SniZerosResult,
    check_ni,
    check_ni_lmi,
    check_ni_sweep,
    check_positive_real,
    check_sni_zeros,
    check_strictly_positive_real,
    classify,
    default_grid,
    hermitian_imaginary_part,
    phi_imaginary_axis_zeros,
    phi_system,
    rotated_system,
)
from .controllers import (
    IrcDesign,
    choose_phi,
    design_irc_gamma,
    irc,
    irc_root_locus,
    ppf,
    ppf_mimo,
    resonant_acc,
    resonant_vel_type,
)
from .lmi import (
    CertificateReport,
    LmiProblem,
    RectVar,
    SolveResult,
    SymVar,
    finsler_tau,
    ni_problem,
    solve_feasibility,
    verify_certificate,
)
from .lti import (
    LtiError,
    ModalModel,
    StateSpace,
    add,
    dc_gain,
    diagonal_replicate,
    evaluate,
    inf_gain,
    is_minimal,
    modal_to_ss,
    paraconjugate_transpose,
    poles,
    positive_feedback,
    star_product,
)
from .numerics import NumericsError
from .stability import StabilityReport, dc_gain_verdict, internal_stability
from .synthesis import (
    ClosedLoopReport,
    SynthesisResult,
    UncertainPlant,
    closed_loop,
    synth_problem,
    synth_verification_problem,
    synthesize_state_feedback,
    verify_closed_loop,
)
from .sysfile import SystemFileError, load_system

__version__ = "0.1.0"

__all__ = [
    "Classification", "FreqVerdict", "NiLmiResult", "PhiZeros",
    "SniZerosResult",
    "check_ni", "check_ni_lmi", "check_ni_sweep", "check_positive_real",
    "check_sni_zeros", "check_strictly_positive_real", "classify",
    "default_grid", "hermitian_imaginary_part", "phi_imaginary_axis_zeros",
    "phi_system", "rotated_system",
    "IrcDesign", "choose_phi", "design_irc_gamma", "irc", "irc_root_locus", "ppf",
    "ppf_mimo", "resonant_acc", "resonant_vel_type",
    "CertificateReport", "LmiProblem", "RectVar", "SolveResult", "SymVar",
    "finsler_tau", "ni_problem", "solve_feasibility", "verify_certificate",
    "LtiError", "ModalModel", "StateSpace", "add", "dc_gain",
    "diagonal_replicate", "evaluate", "inf_gain", "is_minimal", "modal_to_ss",
    "paraconjugate_transpose", "poles", "positive_feedback", "star_product",
    "NumericsError",
    "StabilityReport", "dc_gain_verdict", "internal_stability",
    "ClosedLoopReport", "SynthesisResult", "UncertainPlant", "closed_loop",
    "synth_problem", "synth_verification_problem", "synthesize_state_feedback",
    "verify_closed_loop",
    "SystemFileError", "load_system",
    "__version__",
]
