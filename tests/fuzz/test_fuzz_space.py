"""The fuzz search space: seeded generation, mutation, serialization.

Determinism is the load-bearing property: candidates must be a pure
function of the RNG they are handed, and a candidate must survive the
JSONL round-trip (``to_mapping`` → ``json`` → ``from_mapping``) as an
*identical, hashable* object — the corpus stores mappings, and resume
rebuilds mutation sources from them, so any list/tuple drift would fork
the search the moment it resumes.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.fuzz import (
    DEFAULT_ALGORITHMS,
    FuzzCandidate,
    FuzzSpace,
    generate,
    mutate,
)


def test_generation_is_deterministic():
    space = FuzzSpace()
    first = [generate(space, Random(42)) for _ in range(1)]
    for _ in range(3):
        assert [generate(space, Random(42))] == first
    # Distinct seeds explore: 50 draws should not collapse to one key.
    keys = {generate(space, Random(seed)).key() for seed in range(50)}
    assert len(keys) > 25


def test_generated_candidates_are_constructible_and_hashable():
    space = FuzzSpace()
    for seed in range(30):
        candidate = generate(space, Random(seed))
        assert candidate.algorithm in DEFAULT_ALGORITHMS
        assert candidate.n >= candidate.b + candidate.f
        hash(candidate)  # frozen dataclasses all the way down
        hash(candidate.scenario)


def test_mutation_is_deterministic_and_stays_in_space():
    space = FuzzSpace()
    source = generate(space, Random(7))
    mutants = [mutate(space, source, Random(i)) for i in range(20)]
    assert mutants == [mutate(space, source, Random(i)) for i in range(20)]
    for mutant in mutants:
        assert mutant.algorithm in space.algorithms
        assert mutant.engine in space.engines
        hash(mutant.scenario)


def test_mapping_round_trip_through_json_is_identical():
    """The corpus path: mapping → JSON text → mapping → candidate.

    The rebuilt candidate must be *equal* (same dataclass, tuples not
    lists — an unhashable scenario would poison the compilation memo and
    fork resumed searches) and must re-serialize to the same bytes.
    """
    space = FuzzSpace()
    for seed in range(30):
        candidate = generate(space, Random(seed))
        text = json.dumps(candidate.to_mapping(), sort_keys=True)
        rebuilt = FuzzCandidate.from_mapping(json.loads(text))
        assert rebuilt == candidate
        assert rebuilt.key() == candidate.key()
        hash(rebuilt.scenario)  # regression: empty windows list stayed a list
        assert json.dumps(rebuilt.to_mapping(), sort_keys=True) == text


def test_space_fingerprint_tracks_configuration():
    assert FuzzSpace().fingerprint() == FuzzSpace().fingerprint()
    narrowed = FuzzSpace(algorithms=("pbft",))
    assert narrowed.fingerprint() != FuzzSpace().fingerprint()


def test_space_validation():
    with pytest.raises(ValueError):
        FuzzSpace(algorithms=())
    with pytest.raises(ValueError):
        FuzzSpace(engines=("warp",))
    with pytest.raises(ValueError):
        FuzzSpace(n_range=(9, 3))


@pytest.mark.parametrize(
    "axis, entries, repeated",
    [
        ("algorithms", ("pbft", "class-2", "pbft"), "'pbft'"),
        ("engines", ("timed", "timed"), "'timed'"),
        ("strategies", ("silent", "equivocator", "silent"), "'silent'"),
        ("models", ((4, 1, 0), (7, 2, 0), (4, 1, 0)), "(4, 1, 0)"),
        ("models", ([4, 1, 0], (4, 1, 0)), "(4, 1, 0)"),
    ],
)
def test_space_refuses_a_repeated_entry(axis, entries, repeated):
    """A repeat would silently double that entry's draw weight."""
    with pytest.raises(ValueError) as caught:
        FuzzSpace(**{axis: entries})
    assert str(caught.value) == f"axis {axis!r} repeats {repeated}"


def test_default_space_fingerprint_is_pinned():
    """The repeat check moves no space: the default still fingerprints as
    it always did (corpus state files record it)."""
    assert FuzzSpace().fingerprint() == "92d6355f2da00b18"
