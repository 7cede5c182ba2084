"""Exact arithmetic for desingularized and renormalized multiple zeta
values at non-positive integer arguments.

The library computes both value families from their closed-form
generating functions over the rationals, verifies the finite identities
relating them (recurrences, shuffle-type products, family conversion,
the shifted-zeta coefficient machinery, and the word-algebra character),
and exposes everything through a small CLI.  No floating point anywhere.
"""

from .bernoulli import BernoulliCache, bernoulli, default_cache
from .genfun import (
    ValueTable,
    conversion_table,
    depth1_conversion_residuals,
    ems_factor,
    ems_prefactor,
    ems_series,
    ems_series_from_fkmt,
    ems_value,
    ems_value_series,
    fkmt_factor,
    fkmt_series,
    fkmt_value,
    fkmt_value_series,
    series_value_table,
    value_table,
)
from .multipoly import LaurentPolynomial
from .multiseries import MultiSeries, substitute_linear_form, substitute_linear_forms
from .rationals import (
    Rational,
    binomial,
    format_rational,
    multinomial,
    parse_rational,
    pochhammer,
)
from .report import Check, IdentityReport
from .series import (
    UniSeries,
    divide_with_valuation,
    exp_minus_one,
    exp_over_one_minus_exp,
    exp_series,
    laurent_divide,
)
from .shiftcoeffs import (
    ShiftedZetaExpression,
    coefficient_polynomial,
    shift_coefficients,
    shifted_zeta_expression,
)
from .verify import SUITES, ValueStore, VerifyConfig, reports_pass, run_all
from .words import (
    Word,
    WordSum,
    character,
    leibniz_defect,
    multiplicativity_defect,
    word_product,
)

__version__ = "0.1.0"
