#!/usr/bin/env python3
"""Quickstart: one consensus instance per class, with and without faults.

Run:  python examples/quickstart.py
"""

from repro import AlgorithmClass, FaultModel, build_class_parameters
from repro.engine import LockstepScheduler, build_instance, run_instance


def show(title, outcome):
    decided = {pid: d.value for pid, d in sorted(outcome.decisions.items())}
    print(f"  {title}")
    print(f"    decisions : {decided}")
    print(f"    agreement : {outcome.agreement_holds}")
    print(f"    phases    : {outcome.phases_to_last_decision}")
    print(f"    rounds    : {outcome.rounds_to_last_decision}")


def main():
    print("=== Class 1 (FLAG=*, 2 rounds/phase, n > 5b) — n=6, b=1 ===")
    model = FaultModel(n=6, b=1)
    params = build_class_parameters(AlgorithmClass.CLASS_1, model)
    outcome = run_instance(
        build_instance(
            params,
            {0: "apple", 1: "apple", 2: "banana", 3: "banana", 4: "apple"},
            byzantine={5: "equivocator"},
        ),
        LockstepScheduler(),
    )
    show("equivocating Byzantine process 5", outcome)

    print("\n=== Class 2 (FLAG=φ, 3 rounds/phase, n > 4b) — n=5, b=1 (MQB) ===")
    model = FaultModel(n=5, b=1)
    params = build_class_parameters(AlgorithmClass.CLASS_2, model)
    outcome = run_instance(
        build_instance(
            params,
            {0: "x", 1: "y", 2: "x", 3: "y"},
            byzantine={4: "high-ts-liar"},
        ),
        LockstepScheduler(),
    )
    show("timestamp-forging Byzantine process 4", outcome)

    print("\n=== Class 3 (FLAG=φ, history, n > 3b) — n=4, b=1 (PBFT) ===")
    model = FaultModel(n=4, b=1)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    outcome = run_instance(
        build_instance(
            params,
            {0: "commit", 1: "abort", 2: "commit"},
            byzantine={3: "fake-history-liar"},
        ),
        LockstepScheduler(),
    )
    show("history-forging Byzantine process 3", outcome)

    print("\n=== Benign crash faults — n=3, f=1 (Paxos territory) ===")
    from repro.faults.crash import CrashSchedule

    model = FaultModel(n=3, f=1)
    params = build_class_parameters(AlgorithmClass.CLASS_2, model)
    outcome = run_instance(
        build_instance(params, {0: "a", 1: "b", 2: "c"}),
        LockstepScheduler(),
        crash_schedule=CrashSchedule.crash_first_f(model, round_number=1),
    )
    show("process 0 crashes in round 1", outcome)


if __name__ == "__main__":
    main()
