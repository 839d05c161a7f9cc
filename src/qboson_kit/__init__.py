"""Finite-truncation operator toolkit for deformed oscillator algebras.

Builds truncated Fock-space matrix representations of bosons, exponential
phase (shift) operators, thermal and coherent densities, the four standard
deformed oscillator families with the averaging recipe that produces them,
shifted-vacuum bosons, and covariant multimode families with R-matrix and
Chevalley-basis verification.  Every construction is deterministic and every
claimed identity is measurable as an operator-norm residual on a
truncation-safe subspace.
"""

from .densities import (
    AsymptoticsRow,
    DensityOperator,
    TruncationAccuracyError,
    asymptotics_csv,
    coherent_density,
    coherent_state,
    mixture_density,
    phase_asymptotics,
    pure_density,
    shift_expectation_matrix,
    shift_expectation_series,
    thermal_density,
)
from .fock import (
    DimensionLimitError,
    FockSpace,
    LinearOperator,
    QBosonFamily,
    StateVector,
    basis_state,
    commutator,
    diagonal_operator,
    expectation,
    identity_operator,
    ladder,
    linear_combination,
    make_space,
    number_state_projector,
    operator_on_mode,
    relation_residual,
)
from .multimode import (
    CovariantFamily,
    RMatrix,
    cartan_matrix,
    chevalley_check,
    covariant_bosons,
    covariant_check,
    covariant_recipe_check,
    independent_qbosons,
    pair_product_residuals,
    su_r_matrix,
    worst_by_relation,
    yang_baxter_residual,
)
from .phase import (
    alpha_boson,
    alpha_phase_pair,
    phase_pair,
    sqrt_number_operator,
    theta_operator,
)
from .qboson import (
    EffectiveRelation,
    OverflowGuardError,
    averaged_relation,
    beta_closed_form,
    defining_relation_residual,
    family_from_relation,
    recipe_relations,
    standard_qboson,
)
from .suites import SuiteConfig, SuiteReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
