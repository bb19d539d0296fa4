"""The paper's protocols: randomized coordination with atomic registers.

* :mod:`repro.core.two_process` — the two-processor protocol (Figure 1):
  one single-reader single-writer register per processor, expected 10
  steps to decide.
* :mod:`repro.core.three_unbounded` — the three-processor protocol with
  unbounded ``num`` fields (Figure 2).
* :mod:`repro.core.three_bounded` — the bounded-register three-processor
  protocol (Section 6, Figure 3).
* :mod:`repro.core.n_process` — generalization of the Figure 2 protocol
  to arbitrary n (deferred by the extended abstract to the full paper).
* :mod:`repro.core.multivalued` — Theorem 5's reduction from k-valued to
  binary coordination.
* :mod:`repro.core.naive` — the broken "flip until unanimous" protocol
  Section 5 warns about; kept as a baseline for benchmark E4.
* :mod:`repro.core.deterministic` — deterministic protocols fed to the
  impossibility checker (Section 3).
* :mod:`repro.core.consensus` — the high-level convenience API.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "ConsensusProtocol": "protocol",
    "TwoProcessProtocol": "two_process",
    "ThreeUnboundedProtocol": "three_unbounded",
    "PrefNum": "three_unbounded",
    "ThreeBoundedProtocol": "three_bounded",
    "NProcessProtocol": "n_process",
    "MultiValuedProtocol": "multivalued",
    "NaiveProtocol": "naive",
    "ConsensusOutcome": "consensus",
    "solve": "consensus",
})
