"""Exact Eulerian distributions on involutions of the symmetric and
hyperoctahedral groups, with mechanical verification of their identities,
recurrences, generating functions and counterexamples."""

from .distributions import (
    DES_B,
    DES_COXETER,
    GammaVector,
    InexactDivisionError,
    first_log_concavity_failure,
    full_eulerian,
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_eulerian,
    signed_involution_eulerian_recurrence,
    signed_involution_recurrence_rows,
)
from .permutations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    des_b,
    des_coxeter,
    descent_set,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
    involution_count,
    signed_descent_set,
    signed_involution_count,
)
from .polynomials import (
    binomial,
    expand_negative_binomial_product,
    poly_multiply,
)
from .qsym import (
    fundamental_spec,
    schur_spec,
    signed_fundamental_spec,
    verify_cauchy_spec,
    verify_signed_schur_spec,
)
from .reports import CheckRecord, Report
from .tableaux import (
    bipartitions,
    enumerate_all_syb,
    enumerate_all_syt,
    enumerate_syb,
    enumerate_syt,
    partitions,
    syb_des_b,
    syb_signed_descent_set,
    syb_transpose,
    syt_descent_set,
    syt_transpose,
)

__version__ = "0.1.0"
