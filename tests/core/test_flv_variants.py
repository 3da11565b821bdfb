"""Algorithms 6-9: the specialized FLV functions of Sections 5-6."""

from itertools import combinations_with_replacement

import pytest

from repro.algorithms import build_pbft
from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_class3 import FLVClass3
from repro.core.flv_variants import (
    BenOrFLV,
    FaBPaxosFLV,
    PaxosFLV,
    fab_paxos_threshold,
    paxos_threshold,
    pbft_threshold,
)
from repro.core.types import FaultModel
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE
from tests.conftest import sel_msg


class TestThresholds:
    def test_fab_paxos_threshold(self):
        # ⌈(n + 3b + 1)/2⌉: n=6, b=1 → ⌈10/2⌉ = 5.
        assert fab_paxos_threshold(FaultModel(6, 1, 0)) == 5
        assert fab_paxos_threshold(FaultModel(7, 1, 0)) == 6
        assert fab_paxos_threshold(FaultModel(11, 2, 0)) == 9

    def test_paxos_threshold_is_majority(self):
        assert paxos_threshold(FaultModel(3, 0, 1)) == 2
        assert paxos_threshold(FaultModel(4, 0, 1)) == 3
        assert paxos_threshold(FaultModel(5, 0, 2)) == 3

    def test_pbft_threshold(self):
        assert pbft_threshold(FaultModel(4, 1, 0)) == 3
        assert pbft_threshold(FaultModel(7, 2, 0)) == 5


class TestFaBPaxosFLV:
    """Algorithm 6 and its footnote-13 improvement claim."""

    def test_footnote13_example(self):
        # n=7, b=1: original FaB needs ⌈(n−b+1)/2⌉ = 4 matching messages;
        # Algorithm 6 selects with count > (n−b−1)/2 = 2.5, i.e. 3.
        model = FaultModel(7, 1, 0)
        flv = FaBPaxosFLV(model)
        messages = [sel_msg("v")] * 3 + [sel_msg("w")] * 2
        assert flv.evaluate(messages) == "v"

    def test_agrees_with_class1_on_lock_detection(self, fab_model):
        generic = FLVClass1(fab_model, fab_paxos_threshold(fab_model))
        literal = FaBPaxosFLV(fab_model)
        # Locked scenario: TD − b = 4 honest vote v.
        messages = [sel_msg("v")] * 4 + [sel_msg("w")] * 2
        assert generic.evaluate(messages) == literal.evaluate(messages) == "v"

    def test_null_below_bar(self, fab_model):
        literal = FaBPaxosFLV(fab_model)
        # n − b − 1 = 4; 3 messages, split votes → null.
        messages = [sel_msg("v")] * 2 + [sel_msg("w")]
        assert literal.evaluate(messages) is NULL_VALUE

    def test_any_above_bar(self, fab_model):
        literal = FaBPaxosFLV(fab_model)
        messages = [sel_msg(f"v{i}") for i in range(5)]
        assert literal.evaluate(messages) is ANY_VALUE


class TestPaxosFLV:
    """Algorithm 7: the benign (b = 0) class-3 simplification."""

    def test_requires_benign_model(self):
        with pytest.raises(ValueError):
            PaxosFLV(FaultModel(4, 1, 0))

    def test_locked_value_wins(self, benign_model):
        # "new" was validated by a majority (the decided configuration):
        # the stale vote cannot survive line 1.
        flv = PaxosFLV(benign_model)
        messages = [
            sel_msg("new", ts=2),
            sel_msg("new", ts=2),
            sel_msg("old", ts=1),
        ]
        assert flv.evaluate(messages) == "new"

    def test_unlocked_mixed_timestamps_return_any(self, benign_model):
        # A single ts=2 vote does not prove a decision: both votes survive
        # line 1 and Algorithm 7 answers ? (any selection is safe).
        flv = PaxosFLV(benign_model)
        messages = [
            sel_msg("old", ts=1),
            sel_msg("new", ts=2),
            sel_msg("old", ts=1),
        ]
        assert flv.evaluate(messages) is ANY_VALUE

    def test_null_without_majority_vector(self, benign_model):
        flv = PaxosFLV(benign_model)
        assert flv.evaluate([sel_msg("v", ts=0)]) is NULL_VALUE

    def test_any_with_fresh_majority(self, benign_model):
        flv = PaxosFLV(benign_model)
        messages = [sel_msg("a", ts=0), sel_msg("b", ts=0)]
        assert flv.evaluate(messages) is ANY_VALUE

    def test_matches_generic_class_flvs_on_benign_vectors(self, benign_model):
        """Section 5.3: with b = 0 Algorithm 7 ≡ Algorithm 3 ≡ Algorithm 4."""
        td = paxos_threshold(benign_model)
        paxos = PaxosFLV(benign_model, td)
        class2 = FLVClass2(benign_model, td)
        class3 = FLVClass3(benign_model, td, ensure_unanimity=False)
        vectors = [
            [sel_msg("a", ts=0, history=frozenset({("a", 0)}))],
            [
                sel_msg("a", ts=0, history=frozenset({("a", 0)})),
                sel_msg("b", ts=0, history=frozenset({("b", 0)})),
            ],
            [
                sel_msg("a", ts=2, history=frozenset({("a", 0), ("a", 2)})),
                sel_msg("b", ts=1, history=frozenset({("b", 0), ("b", 1)})),
                sel_msg("a", ts=2, history=frozenset({("a", 0), ("a", 2)})),
            ],
        ]
        for vector in vectors:
            assert (
                paxos.evaluate(vector)
                == class2.evaluate(vector)
                == class3.evaluate(vector)
            )


class TestPbftFlv:
    """Algorithm 8 is class 3 without the unanimity branch: ``build_pbft``
    instantiates exactly that."""

    def test_is_the_class_flv_without_unanimity(self, pbft_model):
        flv = build_pbft(4).parameters.flv
        assert type(flv) is FLVClass3
        assert not flv.ensure_unanimity
        assert flv.threshold == pbft_threshold(pbft_model)

    def test_certified_value_returned(self):
        flv = build_pbft(4).parameters.flv
        cert = frozenset({("v", 2)})
        messages = [
            sel_msg("v", ts=2, history=cert),
            sel_msg("v", ts=2, history=cert),
            sel_msg("w", ts=0),
        ]
        assert flv.evaluate(messages) == "v"

    def test_fresh_system_returns_any(self):
        flv = build_pbft(4).parameters.flv
        messages = [sel_msg(f"v{i}", ts=0, history=frozenset()) for i in range(3)]
        assert flv.evaluate(messages) is ANY_VALUE

    def test_no_unanimity_guarantee(self, pbft_model):
        # All honest propose v, but PBFT's FLV may return ? regardless —
        # where the full class function answers v.
        flv = build_pbft(4).parameters.flv
        messages = [sel_msg("v", ts=0, history=frozenset())] * 3
        assert flv.evaluate(messages) is ANY_VALUE
        assert FLVClass3(pbft_model, 3).evaluate(messages) == "v"


def _multisets(alphabet, largest):
    for size in range(largest + 1):
        yield from combinations_with_replacement(alphabet, size)


class TestCensus:
    """Exactly where the printed Algorithms 6 and 7 are the class FLVs — a
    small-scope census over every message multiset, not hand-picked
    vectors.  The divergence sets are why both stay literal."""

    @pytest.mark.parametrize(
        "n, b", [(6, 1), (7, 1), (8, 1), (9, 1), (11, 2), (12, 2)]
    )
    def test_fab_paxos_is_class1_except_one_vector_size(self, n, b):
        """Equal on every vote multiset over three values, except
        ``|μ| = n − b − 1`` when ``n − b`` is even: the printing's
        ``|μ| > n − b − 1`` says ``null``, Algorithm 2 says ``?``."""
        model = FaultModel(n, b, 0)
        literal = FaBPaxosFLV(model)
        generic = FLVClass1(model, fab_paxos_threshold(model))
        divergent_sizes = set()
        for votes in _multisets("abc", n):
            messages = [sel_msg(vote) for vote in votes]
            printed, classed = literal.evaluate(messages), generic.evaluate(messages)
            if printed != classed:
                assert (printed, classed) == (NULL_VALUE, ANY_VALUE), votes
                divergent_sizes.add(len(votes))
        assert divergent_sizes == ({n - b - 1} if (n - b) % 2 == 0 else set())

    #: n → {|μ|: number of divergent (vote, ts) multisets} over
    #: {a, b} × {0, 1, 2}; empty for odd n.
    PAXOS_DIVERGENCE = {
        3: {},
        4: {2: 21, 3: 16, 4: 34},
        5: {},
        6: {3: 56, 4: 34, 5: 66, 6: 92},
        7: {},
    }

    @pytest.mark.parametrize("n", sorted(PAXOS_DIVERGENCE))
    def test_paxos_is_class2_for_odd_n_only(self, n):
        """Equal for odd ``n``; for even ``n`` the printing's ``> n/2`` is
        one stricter than Algorithm 3's ``> n − TD``, from ``|μ| = n/2``
        up."""
        model = FaultModel(n, 0, (n - 1) // 2)
        literal = PaxosFLV(model)
        generic = FLVClass2(model, paxos_threshold(model))
        alphabet = [(vote, ts) for vote in "ab" for ts in (0, 1, 2)]
        divergent = {}
        for pairs in _multisets(alphabet, n):
            messages = [sel_msg(vote, ts=ts) for vote, ts in pairs]
            if literal.evaluate(messages) != generic.evaluate(messages):
                divergent[len(pairs)] = divergent.get(len(pairs), 0) + 1
        assert divergent == self.PAXOS_DIVERGENCE[n]
        assert all(size >= n / 2 for size in divergent)


class TestBenOrFLV:
    """Algorithm 9: the randomized selection rule."""

    def test_returns_value_with_b_plus_1_previous_phase_votes(self):
        model = FaultModel(5, 1, 0)
        flv = BenOrFLV(model, threshold=4)
        messages = [sel_msg(1, ts=2)] * 2 + [sel_msg(0, ts=0)] * 2
        assert flv.evaluate(messages, phase=3) == 1

    def test_stale_timestamps_do_not_count(self):
        model = FaultModel(5, 1, 0)
        flv = BenOrFLV(model, threshold=4)
        messages = [sel_msg(1, ts=1)] * 3  # ts ≠ φ − 1 for φ = 3
        assert flv.evaluate(messages, phase=3) is ANY_VALUE

    def test_never_returns_null(self):
        model = FaultModel(5, 1, 0)
        flv = BenOrFLV(model, threshold=4)
        assert flv.evaluate([], phase=1) is ANY_VALUE

    def test_deterministic_among_qualifying_values(self):
        model = FaultModel(7, 1, 0)
        flv = BenOrFLV(model, threshold=4)
        messages = [sel_msg(0, ts=1)] * 2 + [sel_msg(1, ts=1)] * 2
        first = flv.evaluate(messages, phase=2)
        second = flv.evaluate(list(reversed(messages)), phase=2)
        assert first == second
