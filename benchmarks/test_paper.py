"""Each claim of ``paper.py`` as one tier-1 test, and the table's contract:
a broken subject is a named miss (exit 1), a raising claim a miss."""

import pytest

import paper
from repro.core.flv_class1 import FLVClass1


@pytest.mark.parametrize("claim", paper.CLAIMS, ids=lambda claim: claim.name)
def test_claim_holds(claim):
    figure, holds = claim.measure()
    assert holds, f"{claim.name} ({claim.section}) measured {figure}"


def test_a_broken_subject_is_a_named_miss(monkeypatch, capsys):
    # Algorithm 2 one off: every class-1 FLV behaves as if TD were one lower.
    monkeypatch.setattr(
        FLVClass1, "_slack", property(lambda flv: flv._n - flv.threshold + flv._b + 1)
    )
    assert paper.main() == 1
    verdicts = dict(line.split()[1::-1] for line in capsys.readouterr().out.splitlines())
    assert verdicts["fig1-locked-value-safe"] == "MISS"
    assert verdicts["fig3-locked-value-safe"] == "ok"


def test_a_claim_that_raises_is_a_miss_with_its_message():
    broken = paper.Claim("broken", "§0", lambda: {}["vote"])
    assert paper.check(broken.measure) == ("raised KeyError: 'vote'", False)
