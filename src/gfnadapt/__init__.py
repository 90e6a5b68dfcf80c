"""Reward-proportional GFlowNet adaptation of mechanistic crop simulators."""

from .cache import RewardCache
from .rewards import QuantileTable, RewardConfig, TerminalScorer
from .simulator import (
    DEFAULT_TRUTH_KEY,
    ContextDataset,
    builtin_space,
    generate_contexts,
    simulate,
    simulate_batch,
    synthesize_observations,
)
from .space import (
    ActionSpec,
    GroupSpec,
    ParameterSpec,
    SpaceSpec,
    build_space,
    decode_batch,
    decode_state,
    enumerate_terminals,
    hamming,
    load_space_file,
    neighbors,
)

__version__ = "0.1.0"
