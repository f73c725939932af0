"""Wigner-function dynamics with impenetrable walls via momentum convolution."""

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
