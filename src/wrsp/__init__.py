"""Exact computational engine and verification harness for a tower of
finite 2-groups: packed normal-form arithmetic, subgroup algebra over an
induced-generating-sequence chain, the standard filtration series, and
exact logarithmic-density data."""

from .engine import (
    Element,
    GroupContext,
    commutator,
    get_context,
    parse_element,
)
from .subgroup import (
    Subgroup,
    UnsupportedExactIntersection,
    agemo_mod_derived,
    base_and_centre_subgroup,
    centre_block_subgroup,
    close,
    commutator_subgroup,
    extend,
    full_group,
    intersect,
    join,
    layer_shape,
    normal_closure,
    pair_block_subgroup,
    trivial_subgroup,
)
# the function series() is not re-exported: wrsp.series stays the submodule
from .series import (
    SeriesKind,
    SeriesTable,
    commutator_identity_checks,
    exact_power_subgroup,
    gamma_n_subgroups,
    lcs_generator_check,
    power_expansion_check,
    power_series,
    projection_kernel,
    shift_identity_check,
    stated_gamma_generators,
    expected_gamma_layer,
)
from .spectra import (
    DensityPoint,
    DensitySequence,
    InvariantSubspace,
    complement_density,
    density_sequence,
    invariant_subspace,
)
from .claims import CLAIMS, VerificationResult, run_claims, select_claims

__version__ = "0.1.0"
