"""Phase decomposition with checkpoint certification (Section 3.9).

A distributed mechanism can be decomposed into disjoint phases, each of
which is proven strong-CC and strong-AC without worrying about joint
deviations involving actions in other phases.  Phases are separated at
runtime by checkpoints where some node (the bank, in the interdomain
routing case study) certifies a phase outcome and green-lights the next
phase, or orders a restart when a deviation is detected.

This module provides the runtime scaffolding: an ordered list of
:class:`Phase` objects driven by a :class:`PhasedExecution` that
enforces the ordering, counts restarts, and records certification
outcomes.  The faithful FPSS protocol in :mod:`repro.faithful` is built
on top of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PhaseError


class CertificationResult(enum.Enum):
    """Outcome of the checkpoint examination of a finished phase."""

    #: The checkpointing node found no deviation; green-light next phase.
    GREEN_LIGHT = "green-light"
    #: A deviation was detected; the phase must restart.
    RESTART = "restart"


@dataclass
class PhaseRecord:
    """What happened during one attempt at one phase."""

    phase_name: str
    attempt: int
    result: Optional[CertificationResult] = None
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Phase:
    """One disjoint phase of a distributed mechanism.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"construction-1"`` or ``"execution"``.
    run:
        Callable executing the phase body; receives the shared context
        dict and may mutate it (e.g. storing converged tables).
    certify:
        Checkpoint callable deciding :class:`CertificationResult` from
        the shared context; this models the bank's examination.  If
        omitted the phase self-certifies (always green-lit), matching
        specifications without a checkpoint for that phase.
    """

    name: str
    run: Callable[[Dict[str, Any]], None]
    certify: Optional[Callable[[Dict[str, Any]], CertificationResult]] = None

    def execute_once(self, context: Dict[str, Any], attempt: int) -> PhaseRecord:
        """Run the phase body once and certify the outcome."""
        record = PhaseRecord(phase_name=self.name, attempt=attempt)
        self.run(context)
        if self.certify is None:
            record.result = CertificationResult.GREEN_LIGHT
        else:
            record.result = self.certify(context)
        return record


@dataclass
class PhasedExecutionResult:
    """Summary of a full phased run."""

    completed: bool
    records: List[PhaseRecord]
    context: Dict[str, Any]

    @property
    def restarts(self) -> int:
        """Total number of restart certifications across phases."""
        return sum(
            1 for r in self.records if r.result is CertificationResult.RESTART
        )

    @property
    def halted_phase(self) -> Optional[str]:
        """Phase at which progress stopped, or None on completion."""
        if self.completed:
            return None
        return self.records[-1].phase_name if self.records else None

    def attempts(self, phase_name: str) -> int:
        """Number of attempts made at the named phase."""
        return sum(1 for r in self.records if r.phase_name == phase_name)


class PhasedExecution:
    """Drives an ordered sequence of phases with restart semantics.

    A phase whose checkpoint orders a restart is re-run, up to
    ``max_restarts_per_phase`` times; beyond that the mechanism halts
    without progress, which the paper's utility model treats as a
    strongly negative outcome for every node ("we assume that every
    node wishes to make progress in the mechanism").

    Parameters
    ----------
    phases:
        The ordered phases.
    max_restarts_per_phase:
        Restart budget per phase before declaring non-progress.
    on_restart:
        Optional hook invoked with (phase, context) before re-running,
        used by protocols to reset per-phase node state.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        max_restarts_per_phase: int = 3,
        on_restart: Optional[Callable[[Phase, Dict[str, Any]], None]] = None,
    ) -> None:
        if not phases:
            raise PhaseError("a phased execution needs at least one phase")
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise PhaseError(f"duplicate phase names in {names}")
        if max_restarts_per_phase < 0:
            raise PhaseError("max_restarts_per_phase must be non-negative")
        self._phases: Tuple[Phase, ...] = tuple(phases)
        self._max_restarts = max_restarts_per_phase
        self._on_restart = on_restart

    @property
    def phases(self) -> Tuple[Phase, ...]:
        """The ordered phases."""
        return self._phases

    def run(self, context: Optional[Dict[str, Any]] = None) -> PhasedExecutionResult:
        """Execute all phases in order, honouring restart requests."""
        ctx: Dict[str, Any] = context if context is not None else {}
        records: List[PhaseRecord] = []
        for phase in self._phases:
            attempt = 0
            while True:
                attempt += 1
                record = phase.execute_once(ctx, attempt)
                records.append(record)
                if record.result is CertificationResult.GREEN_LIGHT:
                    break
                if attempt > self._max_restarts:
                    return PhasedExecutionResult(
                        completed=False, records=records, context=ctx
                    )
                if self._on_restart is not None:
                    self._on_restart(phase, ctx)
        return PhasedExecutionResult(completed=True, records=records, context=ctx)
