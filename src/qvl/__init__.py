"""qvl: exact computations on bound quiver representation varieties.

Modules by concern: linalg (exact fields and matrices), quiver
(presentations, their Hom and Ext quivers, and ideal computations), reps
(representations and morphisms), extensions (cocycles and extension
assembly), families (the built-in algebra families and the paper's
identifications as arrow maps), strata (Jordan and rank strata as one
table), counting (point enumeration over finite fields and the degree
probe: evidence), certificates (the census, the reducibility witness and
the product identity), dsl (the text format), serialize (JSON
interchange), cli (command line).
"""

from .linalg import GF, Matrix, PrimeField, QQ, RationalField
from .quiver import (AlgebraElement, BoundQuiver, Path, Quiver, QuiverError,
                     Relation, decompose_by_support, degree, ext2_dimension,
                     ext_quiver, hom_quiver, ideal_membership,
                     ideal_subspace, is_isomorphism,
                     is_minimal_relation_set, is_normalized_relation_set,
                     is_simple_loop_extension, is_weakly_triangular,
                     loop_nilpotency_index, monomial_relation, power)
from .reps import (HomTriple, Morphism, Representation, cokernel, direct_sum,
                   gl_action, hom_basis, is_monomorphism, relabel,
                   simple_module)
from .extensions import (ExtensionTriple, build_extension, cocycle_space_basis,
                         extension_from_mono, is_cocycle,
                         mono_triple_from_extension, splitting_from_mono)
from .families import (FamilyDescriptor, FamilyParameterError, build_family,
                       family_a, family_a_prime, family_a_prime_commuting,
                       family_b, family_lambda,
                       is_geometrically_irreducible_family)
from .counting import (BudgetExceededError, count_ext_points,
                       count_hom_points, count_mono_points, count_rep_points,
                       leading_coefficient_probe)
from .certificates import (hom_counterexample_census,
                           mono_reducibility_witness, product_count_check)
from .dsl import (DslSemanticError, DslSyntaxError,
                  derive_truncation_bound, parse_quiver_spec,
                  print_quiver_spec)

__version__ = "0.1.0"
