"""Exact Eulerian distributions on involutions of the symmetric and
hyperoctahedral groups, with mechanical verification of their identities,
recurrences, generating functions and counterexamples."""

from .distributions import (
    DES_B,
    DES_COXETER,
    InexactDivisionError,
    full_eulerian,
    gamma_reconstruct,
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_eulerian_recurrence,
    signed_involution_recurrence_rows,
)
from .permutations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    des_b,
    des_coxeter,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
    involution_count,
    signed_descent_set,
    unpack_descents,
)
from .polynomials import (
    binomial,
    expand_negative_binomial_product,
    negative_binomial_coefficient,
    poly_multiply,
)
from .qsym import fundamental_spec, schur_spec
from .reports import CheckRecord, Report
from .tableaux import (
    bipartitions,
    enumerate_all_syb,
    enumerate_all_syt,
    enumerate_syb,
    enumerate_syt,
    partitions,
    syb_signed_descent_set,
    syb_transpose,
)

__version__ = "0.1.0"
