"""Exact combinatorics of Bernstein asymptotics for reductive root data.

The package computes, in exact integer arithmetic, the normalized Frobenius
traces attached to the principal degeneration of the moduli of bundles: the
asymptotics table of the basic spherical function, by three independent
routes that must agree; Kostant partition enumeration and counting; and the
index combinatorics of the underlying stratifications.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each public name under its defining module, which is imported the first time one of its names is read
_PUBLIC_NAMES = {
    "asymptotics": ("AsympTable", "ColoredDivisor", "VerificationError", "asymp_table_from_json", "build_asymp_table",
                    "divisor_trace", "gk_product_series", "parse_divisor", "trace_from_series",
                    "trace_grothendieck_oracle", "trace_kostant_sum"),
    "cartan": ("CartanMatrix", "Coweight", "ParabolicType", "RootSystem", "RootSystemSpec", "build_root_system",
               "coweights_up_to_height", "height", "root_system", "root_system_from_json", "root_system_to_json"),
    "kostant": ("KostantPartition", "count_partitions", "enumerate_partitions", "partition_from_json",
                "partition_to_json"),
    "qlaurent": ("GrothendieckClass", "LaurentPoly"),
    "strata": ("DefectPoset", "DefectStratumIndex", "ParabolicStratum", "defect_poset", "enumerate_local_strata",
               "enumerate_parabolic_strata"),
}

__all__ = [*(name for names in _PUBLIC_NAMES.values() for name in names), "__version__"]


def __getattr__(name: str):
    """Import the module defining a public ``name``, and bind the name here so that this runs once per name."""
    module = next((module for module, names in _PUBLIC_NAMES.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{module}", __name__), name))


def __dir__() -> list[str]:
    """The names bound here and every public name, bound or not yet."""
    return sorted({*globals(), *__all__})
