"""Exact symbolic engine for a generalized curious binomial identity.

Sparse multivariate polynomials over arbitrary-precision rationals, the
binomial lemmas (upper negation, absorption, trinomial revision), both
sides of the main identity and every intermediate form of its proof, and
a verification/benchmark layer with a seeded randomized point oracle.
"""

import types

from .binomials import (
    binom_int,
    binom_poly,
    falling_factorial,
    negate_upper,
    trinomial_revision_check,
)
from .identities import (
    RING_ABC,
    RING_T,
    RING_XYZ,
    RING_XZ,
    RING_Z,
    binomial_collapse,
    chebyshev_closed,
    chebyshev_recurrence,
    chebyshev_trig_check,
    collapse_closed,
    f_closed,
    f_def,
    g_closed,
    g_def,
    jensen_lhs,
    jensen_rhs,
    lhs_identity,
    rhs_identity,
    telescoped_closed,
    telescoped_sum,
)
from .rings import Polynomial, Ring, rat
from .verify import (
    BenchReport,
    IdentityReport,
    PointSample,
    RandomCheckReport,
    SplitMix64,
    bench,
    random_point_check,
    sweep,
    verify_identity,
    verify_lemma,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules are not part of it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
