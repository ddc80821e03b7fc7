"""Run-wide defaults: seed, size caps, tolerances."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_SEED = 0xA55C

# size caps
DEFAULT_ELEMENT_CAP = 50_000          # loop elements, checked at the build: bounds whole-loop reads
DEFAULT_CLOSURE_CAP = 200_000         # group closure
DEFAULT_RELATION_CAP = 300_000_000    # n^2 entries of a relation
MOUFANG_EXHAUSTIVE_LIMIT = 150        # exhaustive identity checks allowed up to this size

# tolerances
DEFAULT_TOL_EIGEN = 1e-10             # eigenpair residual relative to the combined matrix norm
DEFAULT_TOL_COMPARE = 1e-8            # entrywise table comparison and residual pass thresholds
DEFAULT_TOL_SQUARE = 1e-6             # multiplicity perfect-square slack for group transfer
EIGENVALUE_COLLISION_TOL = 1e-6       # minimum eigenvalue separation before retrying

CAP_ENV_VAR = "SCHEMEFORGE_CAP_ELEMENTS"


def element_cap_default() -> int:
    """Element cap, honouring the SCHEMEFORGE_CAP_ELEMENTS override."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{CAP_ENV_VAR} must be positive, got {value}")
    return value


OUTPUT_FORMATS = ("json", "csv", "latex", "text")


@dataclass
class RunConfig:
    """Effective settings for one invocation; identical configs give identical outputs."""

    seed: int = DEFAULT_SEED
    element_cap: int = field(default_factory=element_cap_default)
    tol_eigen: float = DEFAULT_TOL_EIGEN
    tol_compare: float = DEFAULT_TOL_COMPARE
    output_format: str = "json"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {self.seed}")
        if self.element_cap <= 0:
            raise ValueError("size caps must be positive")
        for name in ("tol_eigen", "tol_compare"):
            tol = getattr(self, name)
            if not (0 < tol < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {tol}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}")
