#!/usr/bin/env python3
"""Ben-Or randomized binary consensus under a Prel-only adversary (Section 6).

No good periods, no leader, no failure detector: in every round the
adversary delivers an arbitrary subset of at least n − b − f messages to
each correct process.  Deterministic algorithms cannot terminate in this
model (FLP); Ben-Or's coin makes the probability of perpetual disagreement
zero.  We run many seeds and show the distribution of phases-to-decision.

The adversary is the ``async-prel`` comm kind of an inline scenario; the
coins are seeded per process by the one assembly step, from the run's seed.

Run:  python examples/randomized_ben_or.py
"""

from collections import Counter

from repro.algorithms import build_ben_or
from repro.scenarios import CommSpec, ScenarioSpec, run_scenario


def run_distribution(spec, values, byzantine, seeds, max_phases=300):
    scenario = ScenarioSpec(
        byzantine=byzantine, comm=CommSpec(kind="async-prel")
    )
    phases = Counter()
    for seed in seeds:
        outcome = run_scenario(
            scenario,
            spec.parameters,
            rng=seed,
            initial_values=values,
            config=spec.config,
            max_phases=max_phases,
        )
        assert outcome.agreement_holds, f"seed {seed}: agreement violated!"
        if outcome.all_correct_decided:
            phases[outcome.phases_to_last_decision] += 1
        else:
            phases["> max"] += 1
    return phases


def show(title, phases, total):
    print(f"\n{title}")
    for key in sorted(phases, key=str):
        bar = "#" * phases[key]
        print(f"  {key!s:>5} phase(s): {phases[key]:3d}/{total}  {bar}")


def main():
    seeds = range(30)

    # n = 3 is the tightest benign configuration: the Prel adversary can
    # feed different correct processes disjoint message subsets, so initial
    # phases genuinely split and the coin has to do its work.
    spec = build_ben_or(3)  # benign, n > 2f
    phases = run_distribution(
        spec, {0: 1, 1: 0, 2: 1}, byzantine=(), seeds=seeds
    )
    show("Benign Ben-Or, n=3, f=1, split inputs 1/0/1:", phases, len(seeds))

    spec = build_ben_or(8, b=1)  # Byzantine, n > 4b (with slack)
    phases = run_distribution(
        spec,
        {pid: pid % 2 for pid in range(7)},
        byzantine=("equivocator",),  # on the top process id, 7
        seeds=seeds,
    )
    show(
        "Byzantine Ben-Or, n=8, b=1, equivocating adversary:", phases, len(seeds)
    )

    print(
        "\nEvery run agrees; phases-to-decision varies with the coin — "
        "termination with probability 1, as Section 6 requires."
    )


if __name__ == "__main__":
    main()
