#!/usr/bin/env python3
"""Batch matching through the MatchingService pipeline.

The paper's matchers answer one pair at a time; production workloads
(template matching a library against a netlist, regression-checking a
synthesis flow) ask about *many* pairs.  This example shows the batch path:

1. generate one base circuit and scramble it into promised instances of
   several equivalence classes,
2. run :meth:`~repro.service.MatchingService.match_pairs` over the whole
   batch with inverse access granted (a
   :class:`~repro.core.MatchingConfig` knob), so the cheap classical tiers
   of Table 1 win where they exist; an observer prints each pair the
   moment it settles,
3. print the :class:`~repro.service.ServiceReport`: the per-pair table plus
   aggregate classical/quantum query totals,
4. re-run the batch without inverse access to watch dispatch fall back along
   the chain exact -> randomised -> quantum, with ``verify=True`` checking
   every produced witness exhaustively.

Run with:  python examples/engine_batch_matching.py
"""

from __future__ import annotations

import random

from repro.circuits.random import random_circuit
from repro.core import EquivalenceType, MatchingConfig, make_instance
from repro.service import MatchingService, TaskCompleted, TaskFailed

LABELS = ["I-N", "I-P", "I-NP", "P-I", "P-N", "N-I", "N-P", "NP-I"]


def build_batch(rng: random.Random):
    """One scrambled pair per tractable equivalence class.

    Every pair shares the *same* base circuit as C2 — the
    template-matching shape.
    """
    base = random_circuit(4, 16, rng, name="base")
    pairs = []
    for label in LABELS:
        equivalence = EquivalenceType.from_label(label)
        c1, _, _ = make_instance(base, equivalence, rng)
        pairs.append((c1, base, equivalence))
    return pairs


class SettledPrinter:
    """Observer: one line per pair as soon as its matcher returns."""

    def notify(self, event) -> None:
        if isinstance(event, (TaskCompleted, TaskFailed)):
            record = event.record
            outcome = "ok" if record["result"] else record["error"].splitlines()[0]
            print(f"  {record['pair_id']} {record['equivalence']:>4}: {outcome}")


def main() -> None:
    rng = random.Random(2024)
    pairs = build_batch(rng)

    # -- inverse access granted: the classical O(1)/O(log n) tiers win -------
    service = MatchingService(MatchingConfig(with_inverse=True))
    report = service.match_pairs(pairs, seed=7, observers=[SettledPrinter()])
    print(report.to_table(title="with inverse access"))
    print(report.summary())
    print()

    # -- no inverses: randomised and quantum tiers take over ------------------
    # (N-P has no known algorithm in this regime and is reported as failed.)
    blackbox = MatchingService(MatchingConfig(with_inverse=False), verify=True)
    report = blackbox.match_pairs(pairs, seed=7)
    print(report.to_table(title="black boxes only"))
    print(report.summary())
    print()

    # -- every produced witness reconstructs C1 from C2 -----------------------
    verified = sum(1 for record in report.records if record.get("verified"))
    print(f"verified witnesses: {verified}/{report.matched}")


if __name__ == "__main__":
    main()
