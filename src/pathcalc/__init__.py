"""Pathwise stochastic calculus on cadlag price paths.

Subpackages follow the pipeline: ``paths`` (event tables and the
jump-restricted sample space), ``simulate`` (reproducible generators),
``partitions`` (dyadic crossing times and crossing counters), ``qv``
(discrete quadratic variation and its convergence diagnostics),
``strategies`` (simple trading strategies, admissibility and the explicit
superhedging constructions), ``integration`` (step-function integrals,
the quadratic compensator, metrics and bound checks) and ``checks`` (each
acceptance criterion's inputs and per-stream check, defined once).
"""

from .errors import CheckFailedError, ContractError, InternalConsistencyError, PathcalcError
from .paths import (
    BASE_CADLAG,
    BASE_CONTINUOUS,
    BASE_NONNEGATIVE,
    MODE_LINEAR,
    MODE_STEP,
    MembershipReport,
    Path,
    PsiSpec,
    SampleSpaceSpec,
    check_membership,
    read_path_csv,
    write_path_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_CADLAG",
    "BASE_CONTINUOUS",
    "BASE_NONNEGATIVE",
    "MODE_LINEAR",
    "MODE_STEP",
    "CheckFailedError",
    "ContractError",
    "InternalConsistencyError",
    "MembershipReport",
    "Path",
    "PathcalcError",
    "PsiSpec",
    "SampleSpaceSpec",
    "check_membership",
    "read_path_csv",
    "write_path_csv",
    "__version__",
]
