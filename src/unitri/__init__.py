"""Exact computations in windows of the unitriangular pro-p group."""

from .rings import Ring, RingElem, frobenius, regular_rep
from .matrices import (
    UniTriWindow, ClosureCapExceeded,
    identity, elementary, mat_mul, mat_inv, commutator, conjugate,
    valuation, distance, shift, truncate, extend, is_periodic,
    closure_order, closure_elements, closure_dense, DenseOps,
    DEFAULT_CLOSURE_CAP,
)
from .partitions import (
    Tail, PartitionDiagram, Partition, TailUndetermined,
    rect_closure, lattice_union, lattice_intersect,
    lower_central, derived_series, congruence_level, rectangular, staircase,
    family, commutator_with_group, centre_preimage, membership,
    subgroup_generators, string_decompose,
    format_partition, parse_partition, parse_squares,
)
from .hausdorff import (
    AlphaTarget, AmbiguousFloorError, DimSequence,
    partition_for_alpha, dim_sequence_partition, monotone_normalize,
    dim_sequence_group, exact_log, PI_INV_DIGITS, EXP_MINUS_3_DIGITS,
)
from .series import (
    SeriesAut, identity_series, generator, compose, invert,
    series_matrix, generator_matrix, series_from_first_row,
    first_row_determined,
)
from .freeprod import (
    Word, periodic_generators, embed_word, four_syllable_matrix,
    read_word_length, free_closure_log_index, two_periodic_log_order,
    two_periodic_image_order,
)
from .autos import (
    Flip, FieldAut, DiagonalAut, InnerAut, CentralAut, ExtremalAut,
    scalar_central, generator_images, apply, elementary_factorization,
    evaluate_generator_word, extend_generator_map, is_homomorphism,
)
from .fieldext import (
    EmbeddingContext, restrict_scalars, extend_scalars,
    restricted_image_log_order, sandwich_bounds, extension_image_ratio,
    centralizer_solve,
)
from .padic import (
    u_membership, v_valuation, reduce_window_level,
    ideal_partition_generators, ideal_partition_log_order, IdealOrderResult,
    dim_sequence_padic, PadicDimReport,
)

__version__ = "0.1.0"
