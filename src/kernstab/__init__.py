"""Stability bounds for kernel matrices of shifted and convolutional kernels."""

from ._version import __version__
from .analysis import (
    BoundCheck,
    EquivalenceResult,
    FittedLaw,
    cond_upper_bound,
    conv_lower_bound,
    conv_lower_bound_from_sym,
    fit_power_law,
    symmetric_lower_bound,
    verify_conv_chain,
    verify_damping_bound,
    verify_equivalence,
    verify_shift_identity,
)
from .assembly import (
    antisymmetric_part,
    conv_gram,
    gram,
    shifted_gram,
    symmetric_part,
)
from .errors import QuadratureError, SingularMatrixError
from .experiments import ExperimentConfig, ExperimentReport, run, sample_grid
from .geometry import (
    PointSet,
    boundary_distance,
    equispaced,
    halton,
)
from .kernels import (
    Family,
    KernelSpec,
    SpectralDensity,
    phi,
    smoothness,
    spectral_density_1d,
)
from .quadrature import (
    FourierFormResult,
    QuadratureRule,
    closed_form_conv_exp,
    conv_value,
    fourier_quadratic_form,
    gauss_legendre,
    integrate,
)
from .rng import SplitMix64
from .spectral import (
    below_precision_floor,
    centrosymmetric_eigvalsh,
    inv_sqrt,
    precision_floor,
    sym_eigen,
    whiten,
    whitened_spectrum,
)
