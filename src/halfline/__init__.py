"""Forward and inverse quantum scattering on the half-line.

Forward direction: sampled potential -> Jost field, bound states, norming
constants, S-matrix, phase shift, transformation kernel.  Inverse direction:
scattering data -> Marchenko input F -> transformation kernel A -> potential,
together with every reverse arrow (A -> F, F -> data, A -> data), a scalar
Riemann-problem reconstruction of the Jost function from S(k), and the
characterization conditions on scattering data, which also check every
forward result.
"""

from .characterize import full_report
from .forward import ForwardResult, jost_boundary, kernel_from_potential, s_matrix
from .marchenko import (
    InversionConfig,
    build_F,
    data_from_F,
    data_from_kernel,
    f_from_kernel,
    invert,
    solve_kernel,
)
from .model import (
    BoundState,
    ConditionEntry,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
    UniformGrid,
    ValidationReport,
)
from .riemann import RiemannSolution, solve_riemann, verify_factorization

__all__ = [
    "BoundState",
    "ConditionEntry",
    "ForwardResult",
    "InversionConfig",
    "MarchenkoInput",
    "MomentumGrid",
    "Potential",
    "RadialGrid",
    "RiemannSolution",
    "ScatteringData",
    "TransformationKernel",
    "UniformGrid",
    "ValidationReport",
    "build_F",
    "data_from_F",
    "data_from_kernel",
    "f_from_kernel",
    "full_report",
    "invert",
    "jost_boundary",
    "kernel_from_potential",
    "s_matrix",
    "solve_kernel",
    "solve_riemann",
    "verify_factorization",
]

__version__ = "0.1.0"
