"""Phase-boundary and symmetry-breaking analysis for two-species spin glasses.

Numerical library and CLI for the multi-species Sherrington-Kirkpatrick
model: replica-symmetric critical points and their uniqueness threshold, the
de Almeida-Thouless boundary via closed-form stability thresholds, one-step
symmetry-breaking certificates, a generic k-level hierarchical functional for
cross-validation, and finite-N enumeration / Monte Carlo ground truth.
"""

from .errors import (
    BadDimension,
    BadPoint,
    BadZeta,
    CertificateNotFound,
    InternalInconsistency,
    MskGlassError,
    NonmonotoneOverlap,
    NotConverged,
    Unsupported,
)
from .model import (
    Contractions,
    ModelSpec,
    TempField,
    Thresholds,
    overlap_contractions,
    two_species_thresholds,
    validate,
)
from .quadrature import (
    DEFAULT_ORDER,
    QuadRule,
    cavity_expect,
    gauss_hermite,
    log_cosh,
    sech4,
)
from .parisi import ParisiParams
from .parisi import evaluate as parisi_value
from .rs import (
    RSSolution,
    fixed_point_map,
    rs_functional,
    solve_fixed_point,
    uniqueness_threshold,
)
from .atline import (
    ATReport,
    Verdict,
    at_line_beta,
    at_verdict,
    positivity_witness,
    quartic_susceptibility,
    stability_matrices,
)
from .onersb import OneRSBCertificate, certify_rsb
from .simulate import (
    DisorderSample,
    FreeEnergyEstimate,
    OverlapHistogram,
    free_energy_exact,
    overlap_histogram,
    sample_disorder,
)

__version__ = "0.1.0"
