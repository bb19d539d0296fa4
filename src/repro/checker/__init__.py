"""Verification machinery.

Three layers, all operating on the explicit automaton formalism:

* :mod:`repro.checker.properties` — validate single runs (consistency,
  nontriviality, wait-free accounting) and exhaustively verify *safety*
  of randomized protocols over all schedules × all coin outcomes up to
  a state/depth budget.  Safety must hold with probability one, so
  enumerating coin outcomes is sound.
* :mod:`repro.checker.explorer` — the underlying explicit-state
  reachability engine (configuration graphs).
* :mod:`repro.checker.valency` + :mod:`repro.checker.flp` — mechanize
  Section 3: classify configurations as univalent/bivalent (Lemmas 1-2)
  and constructively extend bivalence into an explicit infinite
  non-deciding schedule (Lemma 3 / Theorem 4) for any deterministic
  protocol.
* :mod:`repro.checker.weakmem` — weak-memory anomaly search: exhibit
  replayable consistency-violating or garbage-read traces under
  ``regular``/``safe`` register semantics (the HHT-style separation).
* :mod:`repro.checker.statespace` (+ :mod:`~repro.checker.fingerprint`,
  :mod:`~repro.checker.reduction`) — the scalable engine: fingerprinted
  table-IR BFS with verified symmetry canonicalization, sleep-set
  partial-order reduction, and a sharded parallel frontier
  (docs/CHECKER.md).
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "ConfigGraph": "explorer",
    "Successor": "explorer",
    "explore": "explorer",
    "successors": "explorer",
    "ExploreReport": "statespace",
    "StateSpaceEngine": "statespace",
    "explore_fast": "statespace",
    "ZobristTable": "fingerprint",
    "stable_token": "fingerprint",
    "SymmetryGroup": "reduction",
    "discover_symmetry": "reduction",
    "SafetyReport": "properties",
    "validate_run": "properties",
    "verify_safety": "properties",
    "AnomalyWitness": "weakmem",
    "WitnessStep": "weakmem",
    "find_memory_anomaly": "weakmem",
    "replay_witness": "weakmem",
    "Valency": "valency",
    "classify": "valency",
    "decision_values_of": "valency",
    "ImpossibilityReport": "flp",
    "analyze_deterministic": "flp",
    "find_bivalent_initial": "flp",
})
