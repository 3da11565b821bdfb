"""Instance assembly and the public Byzantine-strategy registry."""

import dataclasses

import pytest

from repro.algorithms import build_pbft
from repro.core.process import GenericConsensusProcess
from repro.engine.assembly import build_instance
from repro.faults import STRATEGY_REGISTRY, build_byzantine
from repro.faults.byzantine import ByzantineStrategy, SilentByzantine


@pytest.fixture
def pbft4():
    return build_pbft(4)


class TestBuildInstance:
    def test_assembles_honest_and_byzantine(self, pbft4):
        instance = build_instance(
            pbft4.parameters,
            {0: "a", 1: "b", 2: "a"},
            byzantine={3: "equivocator"},
        )
        assert set(instance.processes) == {0, 1, 2, 3}
        assert isinstance(instance.processes[0], GenericConsensusProcess)
        assert isinstance(instance.processes[3], ByzantineStrategy)
        assert instance.context.byzantine == frozenset({3})
        assert instance.initial_values == {0: "a", 1: "b", 2: "a"}

    def test_missing_initial_value(self, pbft4):
        with pytest.raises(ValueError, match="missing initial value"):
            build_instance(pbft4.parameters, {0: "a"})

    def test_byzantine_budget_enforced(self, pbft4):
        with pytest.raises(ValueError, match="exceed b"):
            build_instance(
                pbft4.parameters,
                {0: "a", 1: "b"},
                byzantine={2: "silent", 3: "silent"},
            )

    def test_randomized_config_gets_one_stream_per_honest_process(self):
        """A randomized config is never shared: every honest process holds
        its own config whose coin is its own stream of the run's seed."""
        from repro.algorithms import build_ben_or
        from repro.core.randomized import RANDOMIZED

        spec = build_ben_or(5, b=1)
        instance = build_instance(
            spec.parameters,
            {0: "x", 1: "y", 2: "x", 3: "y"},
            config=spec.config,
            byzantine={4: "equivocator"},
            seed=21,
        )
        assert instance.config is spec.config
        configs = [p.config for p in instance.honest_processes.values()]
        assert len({id(config) for config in configs}) == 4
        flips = set()
        for config in configs:
            assert config.coin is not RANDOMIZED
            assert config == dataclasses.replace(spec.config, coin=config.coin)
            flips.add(tuple(config.coin(phase) for phase in range(24)))
        assert len(flips) == 4

    def test_deterministic_config_is_shared_and_ignores_the_seed(self, pbft4):
        values = {pid: "v" for pid in range(4)}
        instance = build_instance(pbft4.parameters, values, seed=21)
        for process in instance.honest_processes.values():
            assert process.config is instance.config

    def test_shared_structure_is_reused(self, pbft4):
        values = {pid: "v" for pid in range(4)}
        first = build_instance(pbft4.parameters, values)
        second = build_instance(pbft4.parameters, values)
        assert first.structure is second.structure


class TestRegistry:
    def test_names_resolve(self, pbft4):
        for name in STRATEGY_REGISTRY:
            strategy = build_byzantine(3, name, pbft4.parameters)
            assert isinstance(strategy, ByzantineStrategy)

    def test_instance_passthrough(self, pbft4):
        strategy = SilentByzantine(3, pbft4.parameters)
        assert build_byzantine(3, strategy, pbft4.parameters) is strategy

    def test_factory_spec(self, pbft4):
        built = build_byzantine(3, SilentByzantine, pbft4.parameters)
        assert isinstance(built, SilentByzantine)

    def test_unknown_name(self, pbft4):
        with pytest.raises(ValueError, match="unknown Byzantine strategy"):
            build_byzantine(3, "no-such-strategy", pbft4.parameters)
