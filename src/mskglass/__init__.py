"""Phase-boundary and symmetry-breaking analysis for two-species spin glasses.

Numerical library and CLI for the multi-species Sherrington-Kirkpatrick
model: replica-symmetric critical points and their uniqueness threshold, the
de Almeida-Thouless boundary via closed-form stability thresholds, one-step
symmetry-breaking certificates, a generic k-level hierarchical functional for
cross-validation, and finite-N enumeration / Monte Carlo ground truth.

Any process that loads numpy through mskglass runs BLAS on one thread: no product in the package
is worth a second one, and OpenBLAS's idle worker busy-waits, doubling a command's CPU time.  An
explicit OPENBLAS_NUM_THREADS wins; a program that imports numpy before mskglass keeps numpy's own.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when .model first imports numpy

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
