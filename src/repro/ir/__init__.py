"""Table IR: finite protocols lowered to integer arrays.

``repro.ir`` is the layer between the object-level protocol automata
(:mod:`repro.core`) and the batch engines: :mod:`repro.ir.lower` interns
states/values/branches into dense tables, :mod:`repro.ir.mt` vectorizes
the CPython RNG those tables are stepped with, and
:mod:`repro.ir.vector` is the lockstep mega-batch executor behind
``engine="vector"``.  The IR layout, lowering rules, determinism
contract, and refusal cases are specified in docs/IR.md.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "BATCH_CHUNK": "vector",
    "CompiledProtocol": "lower",
    "IRCompileError": "lower",
    "IRUnsupportedError": "lower",
    "MAX_STATES": "lower",
    "MAX_VALUES": "lower",
    "RunRecord": "vector",
    "SCALAR_CUTOFF": "vector",
    "SUPPORTED_SCHEDULERS": "vector",
    "VectorBatch": "vector",
    "VectorKernel": "vector",
    "compile_protocol": "lower",
    "replay_run": "vector",
    "vectorize_scheduler": "vector",
})
