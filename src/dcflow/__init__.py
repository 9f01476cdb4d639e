"""Difference-of-convex schemes, their limiting metric gradient flow, and rate certification.

The package splits a smooth objective as ``f = g - h`` with both parts
convex and ``g`` strongly convex, iterates the classical and damped
schemes in primal or dual coordinates, integrates the continuous dynamics
in the dual coordinate, and checks every certified descent inequality,
rate constant and linearization against measured behavior on built-in
instances.

Only the names below are exported here; everything else is imported from
its submodule (``dcflow.core``, ``dcflow.schemes``, ``dcflow.flow``,
``dcflow.analysis``, ``dcflow.problems``, ``dcflow.cli``).
"""

from .core import Box, DcError
from .flow import FlowConfig, closed_form_linear_flow, dual_euler_interpolant, integrate_flow
from .problems import make_double_well, make_quadratic, make_shifted_decomposition
from .schemes import Mode, SchemeConfig, descent_margins, run_scheme

__version__ = "0.1.0"

__all__ = [
    "Box",
    "DcError",
    "FlowConfig",
    "Mode",
    "SchemeConfig",
    "closed_form_linear_flow",
    "descent_margins",
    "dual_euler_interpolant",
    "integrate_flow",
    "make_double_well",
    "make_quadratic",
    "make_shifted_decomposition",
    "run_scheme",
]
