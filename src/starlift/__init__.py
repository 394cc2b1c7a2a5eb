"""starlift: exact lifts of coboundary Lie bialgebra structures.

Functional pentagon and twist-cocycle equations solved degree by degree
in the BCH star group, co-Hochschild cohomology, PBW envelopes, trace
transport into U(g*), and quasitriangular subalgebra machinery. All
arithmetic is exact over Q.
"""
import types

from .cohochschild import cohomology_dimension
from .core import (
    FormalSeriesTensor,
    LieAlgebraSpec,
    RMatrix,
    alt_project,
    coproduct_insert,
    cyb,
    g_action,
    is_invariant,
    load_lie_algebra,
    multiply,
    poisson_bracket,
)
from .duality import (
    LinearForm,
    convolution_bracket,
    form_pair,
    is_poisson_trace,
    poisson_traces,
    rho_product,
    theta,
    twisted_coproduct,
)
from .envelope import (
    PBWElement,
    PBWTensorSquare,
    center,
    copoisson_delta,
    derivation_D,
    dual_bracket,
    invariants_s_dual,
    pbw_commutator,
    pbw_product,
)
from .lifts import (
    cocycle_defect,
    gauge_phi,
    gauge_rho,
    lift,
    lift_associator,
    lift_twist,
    pentagon_defect,
)
from .quasitriangular import (
    QTStructure,
    c_s_basis,
    c_s_graded_dims,
    c_s_map,
    check_inner_derivation,
    compare_images,
    qt_validate,
    sts_alpha,
    sts_theta,
)
from .star import negate, star, star_conjugate

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
__all__.append("__version__")
