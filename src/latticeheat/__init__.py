"""Discrete semilinear heat dynamics on a box lattice.

Simulates the nonlinear neighbor-average dynamics with finite-time blow-up
detection, solves the linear companion problem directly and by sine-mode
decomposition, builds the majorant super-solution, and evaluates the
small-data global-existence bounds.
"""

from types import ModuleType as _Module

from .domain import BoxDomain, Field
from .evolution import (
    BlewUpAt,
    BlowupReport,
    Params,
    Survived,
    simulate,
)
from .majorant import (
    BoundReport,
    ComparisonVerdict,
    MajorantTrace,
    ThresholdResult,
    bound_alpha_gt_1,
    bound_alpha_le_1,
    compute_trace,
    find_threshold,
    majorant_field,
    regime_bound,
    tail_start,
    verify_comparison,
)
from .spectral import (
    ModeTable,
    SpectralCoeffs,
    analyze,
    eigenvalue,
    mode_table,
    step_linear_direct,
    synthesize,
)

# the names imported above, not the submodules they come from
__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _Module))]

__version__ = "0.1.0"
