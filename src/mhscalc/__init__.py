"""Exact calculus for multiple harmonic sums and parametric nested sums.

Everything runs on arbitrary-precision rationals; every identity the
package verifies is checked to exact equality, never numerically.
"""

from .errors import GuardExceeded
from .kernel import gen_binomial, multinomial, format_rational, parse_rational
from .multiseq import MultiSequenceTable, iterated_delta
from .mhs import (
    MultiIndex,
    dual_index,
    embed_type1,
    embed_type2,
    mhs_value,
    multi_indices_of_weight,
    verify_mhs_duality,
)
from .nestedsums import (
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    c_recursive,
    enumerate_chains,
    kt_value,
    two_index_value,
    verify_difference_formula,
    verify_duality,
    verify_recurrence,
    verify_shift_identity,
)
from .egf import (
    TruncatedSeries,
    F_from_sequence,
    exp_linear,
    from_sequence,
    nabla_series,
    subst_linear,
    verify_operator_suite,
    xi_apply,
)
from .report import Comparison, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "GuardExceeded",
    "gen_binomial",
    "multinomial",
    "format_rational",
    "parse_rational",
    "MultiSequenceTable",
    "iterated_delta",
    "MultiIndex",
    "dual_index",
    "embed_type1",
    "embed_type2",
    "mhs_value",
    "multi_indices_of_weight",
    "verify_mhs_duality",
    "NestedSumSpec",
    "RecurrenceEvaluator",
    "c_direct",
    "c_recursive",
    "enumerate_chains",
    "kt_value",
    "two_index_value",
    "verify_difference_formula",
    "verify_duality",
    "verify_recurrence",
    "verify_shift_identity",
    "TruncatedSeries",
    "F_from_sequence",
    "exp_linear",
    "from_sequence",
    "nabla_series",
    "subst_linear",
    "verify_operator_suite",
    "xi_apply",
    "Comparison",
    "VerificationReport",
    "__version__",
]
