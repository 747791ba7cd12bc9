"""Exact real Gromov-Witten and enumerative invariants of projective 3-space.

The package computes real genus-g degree-d GW-invariants of the projective
3-space with d conjugate pairs of point constraints by torus-equivariant
localization over decorated graphs with involution, converts GW columns to
signed integer curve counts through the sinh-kernel transform, and verifies
the attendant Hodge-integral identities order by order in exact arithmetic.
"""

from .exact_arith import (
    Polynomial,
    Rational,
    RationalFunction,
    Series,
    poly_gcd,
    series_exp,
    series_pow,
    series_sinc,
)
from .gw_convert import (
    InvariantTable,
    bundled_table,
    bundled_tables,
    e_from_gw,
    emit_table,
    emit_tables,
    gw_from_e,
    load_table,
    load_tables,
    parity_check,
)
from .hodge import (
    alpha_coeff,
    hodge_integral,
    i1,
    i2,
    lambda_product_integral,
    lambda_to_ch,
)
from .localization import (
    AdmissiblePair,
    DecoratedGraph,
    GraphInvolution,
    enumerate_pairs,
    gw_real,
    pair_contribution,
    pair_contributions,
)
from .psi_kappa import witten_psi
from .series_ids import (
    F1_series,
    F2_series,
    IdentityReport,
    check_conjecture,
    coeff_cx,
    coeff_hat,
    coeff_real,
    verify_identity,
)

__version__ = "0.1.0"
