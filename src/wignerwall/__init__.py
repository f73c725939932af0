"""Wigner-function dynamics with impenetrable walls via momentum convolution.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 when none of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is
set, before its modules import NumPy: NumPy's OpenBLAS starts its worker
threads at import, they spin, and the package's few BLAS calls (the
spline's start, the disk kernel's direct sums) gain nothing from a second
thread. Set any of the three to choose another count. If NumPy is already
imported, its thread count is fixed and the default has no effect.
"""

import os as _os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .boundary_kernels import (
    BoundaryKernel,
    ShapeIndicator,
    billiard_indicator,
    halfline_kernel,
    interval_kernel,
    kernel_field_1d,
    kernel_from_indicator,
    numeric_kernel,
)
from .convolution_engine import (
    BoundedEvolutionPlan,
    convolve_p,
    evolve_bounded,
    far_field_check,
    kernel_tail_bound,
)
from .errors import (
    AsymmetricIndicator,
    BadInterval,
    BadSampling,
    ConfigError,
    DomainTooSmall,
    EmptyInterior,
    GridMismatch,
    LengthMismatch,
    NumericalGuardError,
    NyquistViolation,
    RealnessViolation,
    SupportEscaped,
    TruncationTooSevere,
    ValidationError,
    WignerWallError,
)
from .free_evolution import ShearParams, naive_bounded_evolve, shear_evolve
from .oracle import (
    BoxSpectrum,
    FieldComparison,
    GaussianPacket,
    box_evolve,
    compare_fields,
    free_gaussian,
    images_reflect,
    project_gaussian_to_box,
)
from .phase_grid import (
    ComplexWave,
    PhaseGrid,
    WignerField,
    marginal_p,
    marginal_x,
    read_field_binary,
    read_field_csv,
    total_mass,
    write_field_binary,
    write_field_csv,
)
from .wigner_transform import wigner_of

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
