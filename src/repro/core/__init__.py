"""Core process model: FSPs, model classification, weak derivatives, paper figures."""

from repro.core.classify import ModelClass, belongs_to, classify, require
from repro.core.derivatives import saturate, saturate_reference, tau_closure_reference
from repro.core.errors import (
    ExpressionError,
    InvalidProcessError,
    ModelClassError,
    ReproError,
    StateSpaceLimitError,
)
from repro.core.fsp import (
    ACCEPT,
    EPSILON,
    FSP,
    TAU,
    FSPBuilder,
    from_transitions,
    single_state_process,
)
from repro.core.lts import LTS
from repro.core.weak import WeakKernel, saturate_lts, tau_scc

__all__ = [
    "ACCEPT",
    "EPSILON",
    "ExpressionError",
    "FSP",
    "FSPBuilder",
    "InvalidProcessError",
    "LTS",
    "ModelClass",
    "ModelClassError",
    "ReproError",
    "StateSpaceLimitError",
    "TAU",
    "WeakKernel",
    "belongs_to",
    "classify",
    "from_transitions",
    "require",
    "saturate",
    "saturate_lts",
    "saturate_reference",
    "single_state_process",
    "tau_closure_reference",
    "tau_scc",
]
