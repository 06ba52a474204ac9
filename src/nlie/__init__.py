"""Exact computational engine for n-Lie algebras and relative Rota-Baxter
operators: structure checks, cochain calculus, operator cohomology,
deformations, and arity raising.  All arithmetic is over exact rationals.
"""

from .linalg import Matrix, kernel_basis, rank, solve_linear, vector
from .combinat import Shuffle, blocks_of, compositions, shuffles, sort_with_sign
from .multilinear import (BlockMap, LazyMap, SpaceSpec, apply_map, bidegree_of,
                          lift_map, lift_operator_map, project_operator_part,
                          restrict_map, sum_space)
from .core import (CheckReport, NLieAlgebra, NPreLie, Representation,
                   SymplecticForm, abelian, adjoint_rep, check_filippov,
                   check_n_pre_lie, check_representation, check_symplectic,
                   coadjoint_rep, left_mult_rep, pre_lie_from_table,
                   semidirect_product, sub_adjacent, symplectic_operator,
                   symplectic_to_pre_lie, zero_representation)
from .cochain import (check_mc_pair, coboundary, coboundary_matrix,
                      cohomology_dim, graded_bracket, twisted_differential)
from .rota_baxter import (DerivedContext, RBOperator, Wedge, check_rb,
                          check_rb_mc, derived_bracket, induced_bracket,
                          matrix_to_cochain, operator_rep, pre_lie_of_operator,
                          rb_coboundary, rb_cohomology_dim, twisted_bracket,
                          twisted_mc_holds, wedge_coboundary)
from .deformation import (DeformationJet, ObstructionClass, check_infinitesimal,
                          check_order, extend, find_equivalence, obstruction,
                          obstruction_via_derived)
from .lift import (admissible_covectors, find_center, induced_covector,
                   is_admissible, is_central, lift_cochain, lift_operator,
                   lift_operator_cochain, operator_chain_map_holds,
                   pair_chain_map_holds, raise_arity, raise_arity_rep)

__version__ = "0.1.0"
