"""Run-wide defaults: seed, size caps, tolerances, output formats.

Constants only.  A run's settings are its command-line arguments, each
defaulting to the constant here; nothing is read from the environment.
"""

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

OUTPUT_FORMATS = ("json", "csv", "latex", "text")
