"""Property-based tests of the three abstract FLV properties (Section 3.2).

For each class function we check, over randomized message vectors:

* **FLV-validity** — a concrete result is always one of the received votes;
* **FLV-agreement** — on vectors generated from a *locked* configuration
  (TD − b honest messages carry the locked value with the lock's timestamp
  and certificates, plus arbitrary Byzantine noise), only the locked value
  or null/? consistent with the lock may come back;
* **FLV-liveness** — a vector containing messages from all ``n − b − f``
  correct processes never yields null (when the class's TD bound holds).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_class3 import FLVClass3
from repro.core.types import FaultModel, SelectionMessage
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE

VALUES = st.sampled_from(["a", "b", "c"])
TIMESTAMPS = st.integers(min_value=0, max_value=5)


@st.composite
def honest_message(draw):
    vote = draw(VALUES)
    ts = draw(TIMESTAMPS)
    # Honest invariant: (vote, ts) derives from a selection at phase ts.
    history = frozenset({(vote, 0), (vote, ts)})
    return SelectionMessage(vote, ts, history, frozenset())


@st.composite
def byzantine_message(draw):
    vote = draw(VALUES)
    ts = draw(st.integers(min_value=0, max_value=100))
    history_pairs = draw(
        st.sets(st.tuples(VALUES, TIMESTAMPS), max_size=4)
    )
    return SelectionMessage(vote, ts, frozenset(history_pairs), frozenset())


def build_flvs():
    return [
        FLVClass1(FaultModel(6, 1, 0), 5),
        FLVClass2(FaultModel(5, 1, 0), 4),
        FLVClass3(FaultModel(4, 1, 0), 3),
    ]


@settings(max_examples=200)
@given(st.data())
def test_flv_validity(data):
    """Concrete results are always received votes."""
    for flv in build_flvs():
        n = flv.model.n
        count = data.draw(st.integers(min_value=0, max_value=n), label="count")
        messages = [data.draw(honest_message()) for _ in range(count)]
        result = flv.evaluate(messages, phase=3)
        if result is not ANY_VALUE and result is not NULL_VALUE:
            assert result in {m.vote for m in messages}


@settings(max_examples=200)
@given(st.data())
def test_flv_agreement_under_lock(data):
    """With v locked (decided in the previous phase), only v or null."""
    locked_phase = 2
    for flv in build_flvs():
        model = flv.model
        td, b = flv.threshold, model.b
        cert = frozenset({("L", 0), ("L", locked_phase)})
        locked = [
            SelectionMessage("L", locked_phase, cert, frozenset())
            for _ in range(td - b)
        ]
        # Remaining honest processes: either also on L, or lagging with a
        # strictly older timestamp (the only states honest processes can be
        # in once L was decided at locked_phase — Lemma 4).
        others = []
        for _ in range(model.n - (td - b) - b):
            if data.draw(st.booleans()):
                others.append(SelectionMessage("L", locked_phase, cert, frozenset()))
            else:
                stale_ts = data.draw(st.integers(min_value=0, max_value=1))
                others.append(
                    SelectionMessage(
                        "M",
                        stale_ts,
                        frozenset({("M", 0), ("M", stale_ts)}),
                        frozenset(),
                    )
                )
        byz = [data.draw(byzantine_message()) for _ in range(b)]
        pool = locked + others + byz
        subset_size = data.draw(
            st.integers(min_value=0, max_value=len(pool)), label="subset"
        )
        indices = data.draw(
            st.permutations(range(len(pool))), label="order"
        )[:subset_size]
        messages = [pool[i] for i in indices]
        result = flv.evaluate(messages, phase=locked_phase + 1)
        assert result in ("L", NULL_VALUE), (
            f"{flv.name} returned {result!r} on a locked vector"
        )


@settings(max_examples=200)
@given(st.data())
def test_flv_liveness_full_correct_vector(data):
    """Messages from all n − b − f correct processes → never null."""
    for flv in build_flvs():
        model = flv.model
        correct = model.n - model.b - model.f
        messages = [data.draw(honest_message()) for _ in range(correct)]
        if isinstance(flv, FLVClass3):
            # Class-3 liveness additionally needs the honest certification
            # invariant guaranteed by Selector-strongValidity: the highest-ts
            # pair is certified by > b histories.
            top = max(messages, key=lambda m: m.ts)
            if top.ts > 0:
                certified = sum(
                    1 for m in messages if (top.vote, top.ts) in m.history
                )
                if certified <= model.b:
                    continue  # vector unreachable under strongValidity
            # All correct share the highest-ts value (Lemma 4).
            if len({m.vote for m in messages if m.ts == top.ts}) > 1:
                continue
        result = flv.evaluate(messages, phase=6)
        assert result is not NULL_VALUE, f"{flv.name} returned null"


@settings(max_examples=100)
@given(st.lists(byzantine_message(), max_size=6))
def test_flv_total_on_garbage(messages):
    """FLV functions never raise, whatever well-typed junk they receive."""
    for flv in build_flvs():
        flv.evaluate(messages, phase=1)
