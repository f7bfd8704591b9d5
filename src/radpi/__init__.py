"""High-precision evaluation of pi and 1 through nested-radical half-angle
recursions, with convergence diagnostics and exact identity checks."""

from .arith import (
    FixedReal,
    PrecisionContext,
    arccos_oracle,
    decimal_digits_for_bits,
    isqrt,
    pi_oracle,
)
from .analysis import (
    Report,
    cancellation_audit,
    convergence_table,
    correct_decimal_digits,
    reproduce_catalog,
    verify_identities,
)
from .drivers import (
    AngleRatio,
    Approximant,
    arccos_by_recursion,
    pi_combined,
    pi_method1,
    pi_method2,
    taylor_seed_exact,
    unity_formula,
    viete_product,
)
from .errors import (
    CatalogFailure,
    CatalogMissError,
    DomainError,
    PrecisionError,
    RadpiError,
    UsageError,
)
from .recursion import (
    PowerForm,
    Seed,
    f_power_form,
    half_angle_step,
    nested_literal,
    radicand_step,
    scale_factors,
    sine_step_naive,
)

__version__ = "0.1.0"

__all__ = [
    "AngleRatio",
    "Approximant",
    "CatalogFailure",
    "CatalogMissError",
    "DomainError",
    "FixedReal",
    "PowerForm",
    "PrecisionContext",
    "PrecisionError",
    "RadpiError",
    "Report",
    "Seed",
    "UsageError",
    "arccos_by_recursion",
    "arccos_oracle",
    "cancellation_audit",
    "convergence_table",
    "correct_decimal_digits",
    "decimal_digits_for_bits",
    "f_power_form",
    "half_angle_step",
    "isqrt",
    "nested_literal",
    "pi_combined",
    "pi_method1",
    "pi_method2",
    "pi_oracle",
    "radicand_step",
    "reproduce_catalog",
    "scale_factors",
    "sine_step_naive",
    "taylor_seed_exact",
    "unity_formula",
    "verify_identities",
    "viete_product",
]
