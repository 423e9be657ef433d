"""pmkit: finite pseudocomplemented de Morgan algebras through their dual spaces.

The working objects are finite posets with an order-reversing involution.
The dual algebra of such a space is its lattice of downsets with a
pseudocomplement and a de Morgan operation; the library computes with both
sides of this duality: classification (regularity, the Kleene condition,
width and range, simplicity), exhaustive morphism search, subvariety
lattices of finite simple algebras, and subalgebra growth experiments.
"""

from .algebra import Algebra, dual_algebra
from .catalog import (
    crown_pair,
    disjoint_union,
    kf_subalgebra_crown,
    kf_subalgebra_q6,
    named_space,
    nonregular_chain3,
    q,
    q6,
    range2_grid,
)
from .document import NamedSpace, format_space, parse_space
from .errors import PmkitError
from .morphism import (
    MorphismCheck,
    MorphismMap,
    SearchReport,
    check_pm_morphism,
    check_q6_criteria,
    is_pm_isomorphic,
    search_surjective,
)
from .order import INFINITE, Distance, Poset
from .space import Space, SpaceKind
from .subalgebra import (
    ClosureResult,
    crown_bound_check,
    generate_subalgebra,
    is_closed_family,
    local_finiteness_bound,
    one_generator_growth,
)
from .variety import (
    SimpleRef,
    VarietyLattice,
    is_member,
    l6_member,
    l6_member_oracle,
    subvariety_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "ClosureResult",
    "Distance",
    "INFINITE",
    "MorphismCheck",
    "MorphismMap",
    "NamedSpace",
    "PmkitError",
    "Poset",
    "SearchReport",
    "SimpleRef",
    "Space",
    "SpaceKind",
    "VarietyLattice",
    "check_pm_morphism",
    "check_q6_criteria",
    "crown_bound_check",
    "crown_pair",
    "disjoint_union",
    "dual_algebra",
    "format_space",
    "generate_subalgebra",
    "is_closed_family",
    "is_member",
    "is_pm_isomorphic",
    "kf_subalgebra_crown",
    "kf_subalgebra_q6",
    "l6_member",
    "l6_member_oracle",
    "local_finiteness_bound",
    "named_space",
    "nonregular_chain3",
    "one_generator_growth",
    "parse_space",
    "q",
    "q6",
    "range2_grid",
    "search_surjective",
    "subvariety_lattice",
]
