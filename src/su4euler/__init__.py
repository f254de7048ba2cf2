"""Euler-angle toolkit for SU(4): group composition, Haar measure and
volumes, two-qubit density matrices, and the determinant form of the
partial-transpose separability test."""

__version__ = "0.1.0"

from .errors import ValidationError
from .algebra import (
    N_GENERATORS,
    exp_generator,
    gell_mann,
    gell_mann_stack,
    structure_constants,
)
from .euler import (
    RangeProfile,
    SU2_GENERATOR_SEQUENCE,
    SU3_GENERATOR_SEQUENCE,
    SU4_GENERATOR_SEQUENCE,
    compose,
    compose_su2,
    compose_su3,
    compose_su4,
    range_profile,
)
from .haar import (
    VolumeResult,
    analytic_volume,
    group_volume,
    haar_density,
    haar_density_su2,
    haar_density_su3,
    one_form_matrix,
    one_form_matrix_su3,
    sample_haar_angles,
    sample_haar_unitary,
)
from .density import (
    CONJUGATION_SEQUENCE,
    SPECTRUM_LOWER,
    SPECTRUM_UPPER,
    BlochCoefficients,
    bloch_coefficients,
    conjugate,
    rho_diagonal,
    rho_full,
    spectrum_diagonal,
)
from .separability import (
    CharPolyCoeffs,
    Classification,
    DepressedQuartic,
    ResolventRoots,
    SeparabilityVerdict,
    char_poly_coeffs,
    classify,
    corner_scan,
    depressed_quartic,
    eigenvalues_via_resolvent,
    is_entangled,
    partial_transpose,
    resolvent_roots,
    scan,
    validate_density_matrix,
)
