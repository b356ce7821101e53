"""Exact combinatorics of Bernstein asymptotics for reductive root data.

The package computes, in exact integer arithmetic, the normalized Frobenius
traces attached to the principal degeneration of the moduli of bundles: the
asymptotics table of the basic spherical function, by three independent
routes that must agree; Kostant partition enumeration and counting; and the
index combinatorics of the underlying stratifications.
"""

from .asymptotics import (
    AsympTable,
    ColoredDivisor,
    MonoidSeries,
    VerificationError,
    asymp_table_from_json,
    build_asymp_table,
    divisor_trace,
    geometric_factor,
    gk_product_series,
    parse_divisor,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from .cartan import (
    CartanMatrix,
    Coweight,
    ParabolicType,
    RootSystem,
    RootSystemSpec,
    build_root_system,
    coweights_up_to_height,
    height,
    leq,
    levi_subsystem,
    parse_spec_text,
    root_system,
    root_system_from_json,
    root_system_to_json,
)
from .kostant import (
    KostantPartition,
    count_partitions,
    enumerate_partitions,
    enumerate_simple_partitions,
    partition_from_json,
    partition_to_json,
)
from .qlaurent import GrothendieckClass, LaurentPoly
from .strata import (
    DefectPoset,
    DefectStratumIndex,
    ParabolicStratum,
    codim_defect,
    defect_poset,
    enumerate_local_strata,
    enumerate_parabolic_strata,
)

__version__ = "0.1.0"

__all__ = [
    "AsympTable",
    "CartanMatrix",
    "ColoredDivisor",
    "Coweight",
    "DefectPoset",
    "DefectStratumIndex",
    "GrothendieckClass",
    "KostantPartition",
    "LaurentPoly",
    "MonoidSeries",
    "ParabolicStratum",
    "ParabolicType",
    "RootSystem",
    "RootSystemSpec",
    "VerificationError",
    "asymp_table_from_json",
    "build_asymp_table",
    "build_root_system",
    "codim_defect",
    "count_partitions",
    "coweights_up_to_height",
    "defect_poset",
    "divisor_trace",
    "enumerate_local_strata",
    "enumerate_parabolic_strata",
    "enumerate_partitions",
    "enumerate_simple_partitions",
    "geometric_factor",
    "gk_product_series",
    "height",
    "leq",
    "levi_subsystem",
    "parse_divisor",
    "parse_spec_text",
    "partition_from_json",
    "partition_to_json",
    "root_system",
    "root_system_from_json",
    "root_system_to_json",
    "trace_from_series",
    "trace_grothendieck_oracle",
    "trace_kostant_sum",
    "__version__",
]
