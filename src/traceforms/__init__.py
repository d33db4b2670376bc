"""Exact arithmetic for integral trace forms of number fields.

Ramification invariants, local and global genus machinery for integral
quadratic forms, and decision procedures for isometry and spinor-genus
equality of trace forms, cross-validated by a genus-symbol oracle computed
directly from trace Gram matrices.
"""

from .decide import (
    FieldInvariants,
    Verdict,
    cubic_local_form_at_3,
    cubic_same_spinor_genus,
    galois_same_spinor_genus,
    invariants_of,
    isometric_by_parity,
    isometric_fundamental_disc,
    isometric_trace_forms,
    same_spinor_genus,
    single_odd_prime_isometric,
)
from .cubicsearch import (
    CubicFieldClass,
    cubics_isomorphic,
    enumerate_cubic_fields,
    equal_disc_groups,
)
from .numberfield import (
    FieldRecord,
    NumberFieldData,
    SplittingData,
    field_from_record,
    is_fundamental_discriminant,
    make_splitting,
    maximal_order,
    ramification_profile,
    signature_of_field,
    splitting_data,
    trace_gram,
)
from .padic import (
    hilbert_symbol,
    jacobi_symbol,
    least_nonresidue,
    legendre_symbol,
    square_class,
    val_unit,
)
from .quadform import (
    GenusSymbol,
    GramMatrix,
    canonical_two_adic_symbol,
    genus_equal,
    genus_symbol,
    isometry_witness_search,
    signature,
)
from .raminv import (
    first_ramification_factor,
    local_trace_model,
    model_form,
    nonresidue_odd_count,
    second_ramification_factor,
    tame_diagonal_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
