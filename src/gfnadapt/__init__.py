"""Reward-proportional GFlowNet adaptation of mechanistic crop simulators."""

__version__ = "0.1.0"
