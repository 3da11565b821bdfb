#!/usr/bin/env python3
"""Tour of Table 1: every named algorithm, its class, bounds and cost.

Reproduces the paper's classification empirically: for each algorithm we
print its parameters, run it at minimal n under its worst scripted adversary
and report rounds/messages/state.

Run:  python examples/classification_tour.py
"""

from repro.algorithms import (
    build_chandra_toueg,
    build_fab_paxos,
    build_mqb,
    build_one_third_rule,
    build_paxos,
    build_pbft,
)
from repro.analysis.reporting import format_table
from repro.core.classification import classify


def run_spec(spec, adversary=None):
    model = spec.parameters.model
    byzantine = {}
    honest = list(model.processes)
    if model.b > 0 and adversary:
        byzantine = {model.n - 1: adversary}
        honest = honest[:-1]
    values = {pid: f"v{pid % 2}" for pid in honest}
    return spec.run(values, byzantine=byzantine)


def main():
    specs = [
        (build_one_third_rule(4), None),
        (build_fab_paxos(6), "equivocator"),
        (build_mqb(5), "high-ts-liar"),
        (build_paxos(3), None),
        (build_chandra_toueg(3), None),
        (build_pbft(4), "fake-history-liar"),
    ]
    rows = []
    for spec, adversary in specs:
        outcome = run_spec(spec, adversary)
        params = spec.parameters
        cls = classify(params)
        rows.append(
            [
                spec.name,
                f"class {cls.value}" if cls else "—",
                params.model.describe(),
                params.threshold,
                str(params.flag),
                "/".join(params.state_footprint),
                params.rounds_per_phase,
                outcome.rounds_to_last_decision,
                outcome.messages_sent,
                "yes" if outcome.agreement_holds else "NO",
            ]
        )
    print(
        format_table(
            [
                "algorithm",
                "class",
                "model",
                "TD",
                "FLAG",
                "state",
                "rounds/phase",
                "rounds to decide",
                "messages",
                "agreement",
            ],
            rows,
        )
    )
    print(
        "\nTable 1 of the paper, reproduced: class 1 trades resilience "
        "(n > 5b) for speed (2 rounds) and tiny state; class 3 reaches "
        "optimal resilience (n > 3b) at the cost of the unbounded history."
    )


if __name__ == "__main__":
    main()
