"""Exact combinatorics of cyclic-group fixed loci in Calogero-Moser spaces."""

__version__ = "0.1.0"

from .arith import CyclotomicNumber, Rational, embed, zeta
from .partitions import (
    core,
    enumerate_core_tuples,
    enumerate_multipartitions,
    flip,
    from_core_and_quotient,
    is_l_core,
    quotient,
    residue_to_core,
    residues,
)
from .affine_weyl import (
    bar,
    is_plus,
    orbit_normalize,
    pairing,
    reflect_dim,
    reflect_theta,
    translate_theta,
)
from .parameters import (
    CyclicCMSurface,
    ParamSet,
    ak_from_theta,
    cyclic_cm_polynomial,
    smooth_cyclic,
    smooth_g4,
    smooth_gl1n,
    smooth_quiver,
    theta_from_ak,
    transport,
    transport_via_theta,
    weyl_on_ak,
)
from .fixed_points import (
    ComponentDescriptor,
    component_catalog,
    delta_inverse,
    delta_map,
    enumerate_E,
    nesting_check,
)
from .wreath import (
    CentralElement,
    central_idempotent,
    character_table,
    character_value,
    class_sum,
    codim,
    enumerate_classes,
    filtration_degree,
    i_gamma_star,
    verify_filtration,
)
from .quiver import (
    QuiverRep,
    block_immersion,
    gl_action,
    in_deformed_fiber,
    moment_map,
    norton_simplicity,
    scale_action,
)
