"""Streaming interval selection and independent-set size estimation."""

from .core import (DomainError, Instance, Interval, ParseError, format_stream,
                   intersects, parse_stream)
from .estimator import (EstimatorConfig, GeneralAlphaEstimator,
                        estimate_oracle_mode)
from .estimator_samelen import (SamelenAlphaEstimator, SamelenConfig,
                                samelen_estimate_oracle)
from .generators import (gen_index_general, gen_index_samelen, gen_uniform,
                         gen_uniform_samelen)
from .harness import TrialReport, run_single, run_trials, trial_success
from .hashing import BottomK, ExactDistinct, HashFamily, KMVDistinct, PolyBank
from .oracle import SegTree, alpha, beta, brute_force_alpha, gamma
from .selector import PartitionSelector
from .selector_samelen import ShiftedGridSelector

__version__ = "0.1.0"
