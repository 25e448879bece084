"""gkptri: exact triangular arrays from two-term recurrences.

Generate the rows of T(n,k) = (a2*n + a1*k + a0) T(n-1,k)
+ (b2*n + b1*k + b0) T(n-1,k-1), expand them through the derivation
operator of the associated two-letter grammar, solve the matching
analytic system as exact power series, evaluate every closed form, and
cross-check the whole stack against brute-force enumeration.
"""

from .census import (
    StructureCensus,
    cadet_leaf_census,
    census_components,
    census_vleaves,
    r_excedance_census,
    set_partition_census,
    stirling_descent_census,
)
from .closedforms import (
    a_mr_explicit,
    euler_at_zero,
    f_a2zero_explicit,
    f_gram_explicit,
    rising_step,
    stirling2,
    t_b2zero_explicit,
    a1zero_rowsum,
)
from .errors import GkpError
from .fps import (
    OdeSystem,
    TruncatedSeries,
    gen_series,
    grammar_ode,
    solve_ode,
    tree_function,
)
from .grammar import (
    Grammar,
    apply_D,
    extract_triangle,
    hao_grammar,
    hao_seed,
    iterate_D,
)
from .polyring import LaurentPoly, Monomial, parse_poly
from .triangles import (
    Triangle,
    TriangleParams,
    format_triangle,
    r_eulerian,
    recurrence_triangle,
    second_order_eulerian,
    stirling2_triangle,
    whitney_eulerian,
    whitney_params,
)
from .verify import (
    CheckReport,
    verify_closed_form_whitney,
    verify_secondorder_egf,
    verify_sol_a1zero,
    verify_sol_a2zero,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "GkpError",
    "Grammar",
    "LaurentPoly",
    "Monomial",
    "OdeSystem",
    "StructureCensus",
    "Triangle",
    "TriangleParams",
    "TruncatedSeries",
    "a_mr_explicit",
    "apply_D",
    "cadet_leaf_census",
    "census_components",
    "census_vleaves",
    "euler_at_zero",
    "extract_triangle",
    "f_a2zero_explicit",
    "f_gram_explicit",
    "format_triangle",
    "gen_series",
    "grammar_ode",
    "hao_grammar",
    "hao_seed",
    "iterate_D",
    "parse_poly",
    "r_eulerian",
    "r_excedance_census",
    "recurrence_triangle",
    "rising_step",
    "second_order_eulerian",
    "set_partition_census",
    "solve_ode",
    "stirling2",
    "stirling2_triangle",
    "stirling_descent_census",
    "t_b2zero_explicit",
    "tree_function",
    "verify_closed_form_whitney",
    "verify_secondorder_egf",
    "verify_sol_a1zero",
    "verify_sol_a2zero",
    "whitney_eulerian",
    "whitney_params",
    "a1zero_rowsum",
]
