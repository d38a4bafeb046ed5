"""Entropy, fractal dimensions and Hausdorff measure of subsets of the unit
box recognized by Buchi automata over base-k digit alphabets, with
brute-force enumeration oracles validating every analytic quantity at desk
scale."""

from .core import (
    DEFAULT_ENUMERATION_CAP,
    AmbiguityReport,
    Automaton,
    DigitVector,
    PropertyFlags,
    Word,
    accepts,
    automaton_to_dict,
    check_unambiguous,
    classify_properties,
    closure,
    enumerate_prefixes,
    load_automaton,
    parse_automaton,
    prefix_count,
    serialize_automaton,
    trim,
)
from .dimension import (
    REPORT_TOL,
    DensityReport,
    DimensionReport,
    cycle_entropies,
    density_classifier,
    dimension_report,
    mw_alpha,
)
from .errors import (
    AmbiguousError,
    ArityError,
    CapExceededError,
    ConfigError,
    EmptyLanguageError,
    FormatError,
    NonCriticalExponentWarning,
    NotConvergedError,
    NotStronglyConnectedError,
    NotTrimError,
    OmegafractError,
    ValidationError,
)
from .geometry import (
    Box,
    box_cover,
    estimate_box_dimension,
    nu_k,
    render,
)
from .measure import (
    ComponentMeasure,
    MeasureReport,
    hausdorff_measure,
    scc_measure,
)
from .spectral import (
    entropy,
    entropy_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityReport",
    "Automaton",
    "Box",
    "ComponentMeasure",
    "DEFAULT_ENUMERATION_CAP",
    "DensityReport",
    "DigitVector",
    "DimensionReport",
    "MeasureReport",
    "PropertyFlags",
    "REPORT_TOL",
    "Word",
    "accepts",
    "automaton_to_dict",
    "box_cover",
    "check_unambiguous",
    "classify_properties",
    "closure",
    "cycle_entropies",
    "density_classifier",
    "dimension_report",
    "entropy",
    "entropy_estimate",
    "enumerate_prefixes",
    "estimate_box_dimension",
    "hausdorff_measure",
    "load_automaton",
    "mw_alpha",
    "nu_k",
    "parse_automaton",
    "prefix_count",
    "render",
    "scc_measure",
    "serialize_automaton",
    "trim",
    # errors
    "OmegafractError",
    "FormatError",
    "ValidationError",
    "EmptyLanguageError",
    "NotTrimError",
    "AmbiguousError",
    "NotStronglyConnectedError",
    "CapExceededError",
    "ArityError",
    "ConfigError",
    "NotConvergedError",
    "NonCriticalExponentWarning",
]
