"""Phase-boundary and symmetry-breaking analysis for two-species spin glasses.

Numerical library and CLI for the multi-species Sherrington-Kirkpatrick
model: replica-symmetric critical points and their uniqueness threshold, the
de Almeida-Thouless boundary via closed-form stability thresholds, one-step
symmetry-breaking certificates, a generic k-level hierarchical functional for
cross-validation, and finite-N enumeration / Monte Carlo ground truth.
"""

from .errors import (
    BadDimension, BadPoint, BadZeta, CertificateNotFound, InternalInconsistency, MskGlassError,
    NonmonotoneOverlap, NotConverged, Unsupported,
)
from .model import (
    Contractions, ModelSpec, TempField, Thresholds, overlap_contractions, two_species_thresholds,
    validate,
)
from .quadrature import DEFAULT_ORDER, QuadRule, gauss_hermite, log_cosh
from .parisi import ParisiParams
from .parisi import evaluate as parisi_value
from .rs import (
    MapDerivatives, RSSolution, map_derivatives, rs_functional, solve_points, uniqueness_threshold,
)
from .atline import (
    ATReport, Verdict, at_line_betas, at_verdicts, positivity_witness, stability_matrices,
)
from .onersb import OneRSBCertificate, certify_points, certify_slopes
from .simulate import (
    DisorderSample, FreeEnergyEstimate, OverlapHistogram, free_energy_exact, overlap_histogram,
    sample_disorder,
)

__version__ = "0.1.0"
