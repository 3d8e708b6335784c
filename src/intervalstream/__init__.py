"""Streaming interval selection and independent-set size estimation.

The public names, and the submodules as attributes, are resolved on first
use (PEP 562), so a command or a script loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "core": ("DomainError", "Instance", "Interval", "ParseError", "format_stream",
             "intersects", "parse_stream"),
    "estimator": ("EstimatorConfig", "GeneralAlphaEstimator", "estimate_oracle_mode"),
    "estimator_samelen": ("SamelenAlphaEstimator", "SamelenConfig", "samelen_estimate_oracle"),
    "generators": ("gen_index_general", "gen_index_samelen", "gen_uniform",
                   "gen_uniform_samelen"),
    "harness": ("TrialReport", "run_single", "run_trials", "trial_success"),
    "hashing": ("BottomK", "ExactDistinct", "HashFamily", "KMVDistinct", "PolyBank"),
    "oracle": ("SegTree", "alpha", "beta", "brute_force_alpha", "gamma"),
    "selector": ("PartitionSelector",),
    "selector_samelen": ("ShiftedGridSelector",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "rng"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
