"""The paper's primary contribution: a multi-stage programming model.

* :mod:`repro.core.tracing` — graph-building contexts (``FuncGraph``)
  and the ``init_scope`` escape (paper §4.6–4.7).
* :mod:`repro.core.function` — the polymorphic ``function`` decorator:
  binding-time analysis, input signatures, lexical closure capture,
  state-creation contract (§4.6).
* :mod:`repro.core.trace_cache` — the one trace-cache policy (exact LRU
  + shape relaxation) behind ``function``, lazy segments and TPU
  programs.
* :mod:`repro.core.pipeline` — the staged-compilation pipeline
  (trace → infer → optimize → plan → compile) with symbolic-shape
  specialization.
* :mod:`repro.core.tape` / :mod:`repro.core.backprop` — tape-based
  reverse-mode automatic differentiation with staged forward/backward
  functions (§4.2).
* :mod:`repro.core.forwardprop` — forward-mode AD (``jvp``/``hvp``/
  ``jacobian``) composing with the reverse tape.
* :mod:`repro.core.recompute` — gradient checkpointing
  (``recompute_grad``) in both eager and staged regimes.
* :mod:`repro.core.variables` — program state as Python objects (§4.3).
* :mod:`repro.core.checkpoint` — graph-based state matching (§4.3).
"""

from repro.core.forwardprop import ForwardAccumulator, hvp, jacobian, jvp
from repro.core.function import function, ConcreteFunction, RetraceWarning
from repro.core.pipeline import CompilationPipeline
from repro.core.recompute import recompute_grad
from repro.core.tape import GradientTape
from repro.core.tracing import init_scope, FuncGraph
from repro.core.variables import Variable

__all__ = [
    "function",
    "ConcreteFunction",
    "CompilationPipeline",
    "ForwardAccumulator",
    "GradientTape",
    "RetraceWarning",
    "init_scope",
    "FuncGraph",
    "Variable",
    "hvp",
    "jacobian",
    "jvp",
    "recompute_grad",
]
