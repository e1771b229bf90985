"""Computing with finite ordered algebras.

Build term algebras over posets, close relations into compatible
quasiorders and order-congruences with checkable zigzag witnesses, form
quotients and amalgam pushouts, compute dominions, check epimorphisms for
surjectivity, and normalize certificates down to their single-node form.
"""

from .signature import SIG1, Signature, parse_signature, print_signature
from .terms import (
    Term,
    leaf,
    leaf_subst,
    leaves,
    is_regular,
    node,
    op_count,
    parse_term,
    print_term,
    regularize,
    skeleton,
    var_seq,
)
from .algebra import (
    Homomorphism,
    OrderedAlgebra,
    chain,
    check_homomorphism,
    directed_kernel,
    evaluate,
    factor_through,
    generated_subalgebra,
    is_order_congruence,
    leq_theta,
    load_algebra,
    nonregular_quotient,
    parse_algebra,
    product,
    regular_quotient,
    subalgebra,
    validate_algebra,
    with_trivial_order,
)
from .closure import gen_compatible_quasiorder, gen_order_congruence
from .termorder import VarPoset, extend_monotone_map, term_leq
from .schemes import (
    IneqStep,
    MultiStep,
    RelStep,
    Scheme,
    Translation,
    covering,
    extract_center,
    grid_contract,
    normalize,
    push_rel_inv_right,
    push_rel_left,
    validate_scheme,
)
from .amalgam import (
    Amalgam,
    Budget,
    SpecialAmalgam,
    dominion_special,
    epi_check,
    load_amalgam,
    make_special,
    mediate,
    pushout_equal,
    pushout_leq,
    separator_search,
    validate_amalgam,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
