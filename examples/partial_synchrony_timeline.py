#!/usr/bin/env python3
"""Partial synchrony in action: decision latency as a function of the GST.

We run PBFT over the discrete-event runtime with increasing global
stabilization times and plot (in ASCII) the simulated time to decision —
the classic "nothing happens until the network stabilizes, then one clean
phase suffices" curve.  We also compare the round-structure cost of the two
Pcons implementations (authenticated vs signature-free).

Run:  python examples/partial_synchrony_timeline.py
"""

from repro.algorithms import build_pbft
from repro.engine import TimedScheduler, build_instance, run_instance
from repro.eventsim import NetworkSpec
from repro.scenarios import ScenarioSpec, compile_scenario


def main():
    spec = build_pbft(4)
    values = {0: "a", 1: "b", 2: "a"}

    print("PBFT (n=4, b=1, equivocating adversary) vs the GST:\n")
    print("  GST   | time to decision")
    print("  ------+-----------------")
    for gst in (0.0, 10.0, 25.0, 50.0):
        network = NetworkSpec(gst=gst, pre_gst_delay_prob=0.8).build(42)
        outcome = run_instance(
            build_instance(
                spec.parameters, values, byzantine={3: "equivocator"}
            ),
            TimedScheduler(network),
            max_phases=40,
            observe="metrics",
        )
        assert outcome.agreement_holds
        when = outcome.last_decision_time
        bar = "#" * int((when or 0) / 2)
        print(f"  {gst:5.1f} | {when:7.1f}  {bar}")

    print(
        "\nBefore the GST messages miss their round deadlines and phases "
        "starve; the first clean phase after stabilization decides."
    )

    print("\nImplemented Pcons cost (Section 2.2), same consensus instance:")
    equivocator = ScenarioSpec(byzantine=("equivocator",))  # on process 3
    for engine, label in (
        ("pcons-auth", "authenticated (2 extra rounds)"),
        ("pcons-sigfree", "signature-free (3 extra rounds)"),
    ):
        compiled = compile_scenario(equivocator, spec.parameters.model, engine)
        stack = compiled.scheduler
        outcome = run_instance(
            build_instance(
                spec.parameters, values, byzantine=compiled.byzantine
            ),
            stack,
            observe="metrics",
        )
        assert outcome.agreement_holds
        print(
            f"  {label:34s}: {stack.micro_rounds} wire rounds, "
            f"{stack.micro_messages} messages"
        )


if __name__ == "__main__":
    main()
