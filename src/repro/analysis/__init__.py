"""Report rendering and the determinism lint (:mod:`repro.analysis.lint`)."""

from .report import render_table

__all__ = ["render_table"]
