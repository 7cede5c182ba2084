"""Exact arithmetic for desingularized and renormalized multiple zeta
values at non-positive integer arguments.

The library computes both value families from their closed-form
generating functions over the rationals, verifies the finite identities
relating them (recurrences, shuffle-type products, family conversion,
the shifted-zeta coefficient machinery, and the word-algebra character),
and exposes everything through a small CLI.  No floating point anywhere.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or one command of the CLI, loads only the layers
that are used.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# the module that defines each public name
_SOURCES = {
    "bernoulli": ("BernoulliCache", "bernoulli", "default_cache"),
    "genfun": (
        "conversion_table",
        "ems_factor",
        "ems_prefactor",
        "ems_series",
        "ems_series_from_fkmt",
        "ems_value",
        "fkmt_factor",
        "fkmt_series",
        "fkmt_value",
        "series_value_table",
        "value_table",
    ),
    "multipoly": ("LaurentPolynomial",),
    "multiseries": ("MultiSeries", "substitute_linear_form", "substitute_linear_forms"),
    "rationals": ("binomial", "format_rational", "multinomial", "parse_rational", "pochhammer"),
    "report": ("Check", "IdentityReport"),
    "series": ("UniSeries", "exp_over_one_minus_exp"),
    "shiftcoeffs": (
        "ShiftedZetaExpression",
        "coefficient_polynomial",
        "shifted_zeta_expression",
    ),
    "verify": ("SUITES", "ValueStore", "VerifyConfig", "reports_pass", "run_all"),
    "words": (
        "Word",
        "WordSum",
        "character",
        "leibniz_defect",
        "multiplicativity_defect",
        "word_product",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    # The import system binds every submodule it loads on its package.
    # Where a public name is also a submodule's name (``bernoulli``), the
    # package keeps the public name: ``from dmzv import bernoulli`` is the
    # function whichever modules were loaded before.
    def __setattr__(self, name: str, value) -> None:
        if name in _MODULE_OF and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
