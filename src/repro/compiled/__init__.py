"""The compiled (push-based, produce/consume) execution backend.

Selected per call with ``Engine.execute(..., backend="compiled")``, for
requests with no metrics, budgets or trace; see :mod:`repro.compiled.codegen` for the
architecture and ``docs/PIPELINE.md`` for the breaker rules.
"""

from .codegen import CodegenError, CompiledPlan, compile_count, compile_plan

__all__ = ["CodegenError", "CompiledPlan", "compile_count", "compile_plan"]
