"""Exact-arithmetic multiparameter persistence modules on finite grids.

Modules over the poset Q^n presented by finite grids of rationals, with
decomposition into indecomposables, verified interleaving certificates,
and constructive approximation of any module by an indecomposable one.
"""

from .core import (DEFAULT_PRIME, Grid, GridModule, ModuleMorphism,
                   direct_sum, hom_space, interval_module,
                   random_basis_change, zero_module)
from .decomp import decompose, end_algebra, is_indecomposable, is_isomorphic
from .interleave import (CertificateError, InterleavingCertificate,
                         TrivialRegion, compose_chain,
                         is_eps_trivial, rank_lower_bound, triviality_radius)
from .construct import (approximate_indecomposable, module_G, tack)
from .match import (bottleneck_upper_bound, instability_demo,
                    is_eps_indecomposable, matching_lower_bound)

__version__ = "0.1.0"
