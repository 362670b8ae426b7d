"""Exact rational arithmetic for dyadic wavelet sets.

Constructs scaling sets and wavelet sets inside admissible frequency
supports, verifies translation and dilation tilings exactly, validates
step-function spectra, computes dimension-function windows, Calderon and
translation-orthogonality sums, and decides 2D wavelet-set existence for
rational and quadratic-irrational dilations.  No floating point anywhere.
"""

from .construct import (
    DefectReport,
    RzeResult,
    ScalingSetResult,
    WaveletSetVerdict,
    check_S1,
    check_S2,
    lemma_r3_construct,
    rze_pipeline,
    verify_wavelet_set,
)
from .errors import InconsistentSpectrumError, InputError, PreconditionError
from .intervals import EMPTY, Interval, IntervalSet, iset, normalize, rat
from .msf2d import (
    ExistenceResult,
    LceReport,
    Mat2,
    QuadScalar,
    lattice_count,
    lce_report,
    wavelet_set_exists,
)
from .spectral import (
    CalderonResult,
    DimFnWindow,
    MraVerdict,
    OrthonormalityReport,
    PsiBReport,
    StepFn,
    TqResult,
    calderon,
    check_D1_D4,
    dimension_function,
    mra_check,
    orthonormality_check,
    psi_b_report,
    psi_b_spectrum,
    psi_spectrum_from_scaling,
    tq_check,
    validate_scaling_spectrum,
)
from .torus import (
    check_S3,
    check_cover_r4,
    extract_transversal,
    fold_multiplicity,
    periodize_window,
)

__version__ = "0.1.0"
