"""Greedy adaptive decomposition of sampled analytic signals.

The package expands a boundary-sampled signal over adaptively selected
normalized reproducing kernels, one atom per step, with two interchangeable
engines for the per-step selection field: a radix-2 weighted inverse
transform per radius (O(M N log N)) and a plain quadrature baseline
(O(M N^2)). See `fastafd.core.decompose` for the main entry point and the
`fastafd` console script for the file pipeline.
"""

from .core import (
    Decomposition,
    DecompositionStep,
    ParameterGrid,
    ParameterPoint,
    analytic_projection,
    decompose,
    discrete_energy,
    error_trace,
    reconstruct,
    relative_error,
)
from .signals import synth_f1, synth_f2, synth_random_hardy

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "DecompositionStep",
    "ParameterGrid",
    "ParameterPoint",
    "analytic_projection",
    "decompose",
    "discrete_energy",
    "error_trace",
    "reconstruct",
    "relative_error",
    "synth_f1",
    "synth_f2",
    "synth_random_hardy",
    "__version__",
]
