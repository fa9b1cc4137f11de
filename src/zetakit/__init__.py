"""Exact zeta functions, character sums, Witt vectors, and height counts.

Everything downstream of a variety spec is computed by at least two
routes and compared exactly (the zeta routes share the point counts;
see zetas); floating point appears only in
statistical estimators (abscissas, asymptotic fits) and in carefully
bounded integer linear algebra.
"""

__version__ = "0.1.0"

from .cyclofield import build_field, character  # noqa: F401
from .cyclotomic import Cyclotomic  # noqa: F401
from .errors import ZetakitError  # noqa: F401
from .polynomials import Poly  # noqa: F401
from .series import SeriesTrunc  # noqa: F401
from .varieties import (  # noqa: F401
    VarietySpec,
    affine,
    count_points_ff,
    exp_sum,
    load_spec,
    projective,
)
from .zetas import exp_zeta, hw_zeta, rational_reconstruct  # noqa: F401
