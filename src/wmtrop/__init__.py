"""wmtrop: exact weight/monodromy filtration checks and tropical models.

Subpackages:

* ratlin      - exact rational matrices, canonical subspaces, polynomials
* polyfactor  - factorization over Q (squarefree + Zassenhaus)
* monodromy   - nilpotent-operator filtrations, weights, the comparison
* troplattice - lattices, quotient models and their towers, dual graphs
* tropbundle  - tropical line-bundle data and piecewise-affine witnesses
* cli         - the `wmtrop` command-line interface and JSON schemas
"""

from .monodromy import (
    Filtration,
    FrobeniusData,
    NilpotentOperator,
    NotNilpotentError,
    NotPureError,
    NotUnipotentError,
    WeightDecomposition,
    WmcReport,
    check_commutation,
    check_wmc,
    exp_nilpotent,
    log_unipotent,
    monodromy_filtration,
    weight_decomposition,
    weight_filtration,
    weil_weight,
)
from .polyfactor import factor_rational, squarefree_decomposition
from .ratlin import (
    DimensionMismatch,
    Matrix,
    RatPoly,
    Subspace,
    char_poly,
    contains,
    image,
    kernel,
    subspace_intersect,
    subspace_sum,
)
from .tropbundle import (
    BundleData,
    NoPLevelError,
    TropicalSection,
    ample_check,
    chi_valuation,
    construct_f,
    extends_to,
    form_matrix,
    minimal_level,
    tensor_power,
    verify_section,
)
from .troplattice import (
    CellWidth,
    DualGraph,
    QuotientModel,
    TropicalLattice,
    descriptor,
    divides,
    dual_graph,
    max_dividing_width,
    quotient_components,
    tower_preimages,
    tower_project,
)

__version__ = "0.1.0"
