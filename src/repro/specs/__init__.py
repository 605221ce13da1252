"""Specification language: state machines, action classes, strategies, phases.

Implements the formal machinery of paper Sections 3.1-3.4 and the phase
decomposition of Section 3.9.
"""

from .actions import (
    EXTERNAL_ACTION_CLASSES,
    Action,
    ActionClass,
    ActionKind,
    computation,
    internal,
    message_passing,
    revelation,
)
from .phases import (
    CertificationResult,
    Phase,
    PhasedExecution,
    PhasedExecutionResult,
    PhaseRecord,
)
from .specification import Specification, enumerate_deviations
from .statemachine import Behavior, State, StateMachine, Transition
from .strategy import (
    DecomposedStrategy,
    Strategy,
    SubStrategyProjection,
    tabular_strategy,
)

__all__ = [
    "Action",
    "ActionClass",
    "ActionKind",
    "Behavior",
    "CertificationResult",
    "DecomposedStrategy",
    "EXTERNAL_ACTION_CLASSES",
    "Phase",
    "PhaseRecord",
    "PhasedExecution",
    "PhasedExecutionResult",
    "Specification",
    "State",
    "StateMachine",
    "Strategy",
    "SubStrategyProjection",
    "Transition",
    "computation",
    "enumerate_deviations",
    "internal",
    "message_passing",
    "revelation",
    "tabular_strategy",
]
