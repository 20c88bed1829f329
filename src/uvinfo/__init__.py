"""Exact-arithmetic information theory for uncertain variables.

Everything is computed over rationals (`fractions.Fraction`); no floats enter
any comparison.  The package models nonempty-range uncertain variables on
finite or interval grounds, measures sets with uncertainty functions, and
builds overlap families, capacities, and single-letter certificates on top.

``import uvinfo`` loads no submodule: each public name (and each submodule
named below) is imported on first use, through a module ``__getattr__``.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "uvcore": (
        "CardinalityPower",
        "DeltaOutOfRange",
        "DiameterPlusOne",
        "ExplicitWeights",
        "FiniteGround",
        "IncompatibleGround",
        "IntervalGround",
        "IntervalUnion",
        "LebesguePlusOffset",
        "PointOutsideRange",
        "UncertainPair",
        "UncertaintyFunction",
        "UvinfoError",
        "format_ratio",
        "ratio",
    ),
    "infocalc": (
        "AssociationSets",
        "EmptyPair",
        "LevelStatus",
        "MIResult",
        "NotDisassociated",
        "OverlapFamily",
        "TaxicabFamily",
        "association_sets",
        "classify_levels",
        "delta_components",
        "mutual_information",
        "overlap_family",
        "taxicab_family",
    ),
    "chancap": (
        "CapacityResult",
        "Channel",
        "NotNormalized",
        "capacity",
        "check_distinguishable",
        "induced_pair",
        "mi_sup_oracle",
        "verify_coding_theorem",
    ),
    "memoryless": (
        "ConfidenceSequence",
        "HorizonTooLarge",
        "NonProductUncertainty",
        "NotCapacityAchieving",
        "ProductChannel",
        "Rate",
        "SingleLetterCertificate",
        "capacity_profile",
        "information_rate_at_horizon",
        "parse_sequence_spec",
        "product_pair",
        "product_uncertainty",
        "rate_at_horizon",
        "single_letter_check",
        "tensorization_check",
    ),
    "apps": (
        "BitString",
        "EquivocationMatrix",
        "LengthMismatch",
        "NotDistinguishable",
        "confusion_ingest",
        "hamming_distance_bound",
        "hamming_equivocation",
        "label_uncertainty",
        "matrix_capacity",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # cached here, so the next lookup never reaches this hook
    value = globals()[name] = getattr(
        import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
