"""Simulation substrate: the asynchronous shared-memory machine of Section 2.

This subpackage implements the computational model the paper defines:

* processors are state automata taking one atomic register operation per
  step (:mod:`repro.sim.process`),
* shared registers have declared reader/writer sets
  (:mod:`repro.sim.registers_file`),
* an adversarial scheduler picks which processor moves next, and the
  kernel serializes everything into a single global order
  (:mod:`repro.sim.kernel`),
* randomness is seeded and replayable (:mod:`repro.sim.rng`),
* runs produce structured traces (:mod:`repro.sim.trace`) and batches of
  runs produce aggregate statistics (:mod:`repro.sim.runner`).
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "Op": "ops",
    "ReadOp": "ops",
    "WriteOp": "ops",
    "BOTTOM": "ops",
    "Automaton": "process",
    "Branch": "process",
    "RegisterSpec": "process",
    "Configuration": "config",
    "Simulation": "kernel",
    "RunResult": "kernel",
    "ATOMIC": "memory",
    "REGULAR": "memory",
    "SAFE": "memory",
    "MEMORY_NAMES": "memory",
    "AtomicMemory": "memory",
    "MemoryModel": "memory",
    "MemorySpec": "memory",
    "RegularMemory": "memory",
    "SafeMemory": "memory",
    "memory_spec": "memory",
    "ReplayableRng": "rng",
    "derive_seed": "rng",
    "TransitionCache": "transitions",
    "StepRecord": "trace",
    "Trace": "trace",
    "ExperimentRunner": "runner",
    "RunStats": "runner",
    "BatchStats": "runner",
    "render_decision_summary": "viz",
    "render_register_timeline": "viz",
    "render_space_time": "viz",
})
