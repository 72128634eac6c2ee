"""The golden census: interval, upper-certificate kinds and lower-certificate
kinds of every connected sequence of order n <= 13, frozen in
data/golden_census.txt.

Regenerate (only for a change meant to alter answers, and list every
changed row with the change):

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_census.txt
"""

from pathlib import Path

from threshq import bounds
from threshq.sequences import block_form, build_graph, enumerate_connected

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_census.txt"
MAX_ORDER = 13


def census():
    """(sequence, classification) of every connected sequence of order
    n <= MAX_ORDER."""
    for n in range(2, MAX_ORDER + 1):
        for seq in enumerate_connected(n):
            yield seq, bounds.classify_q(build_graph(seq))


def census_row(seq, qb) -> str:
    """bits, lower, upper, sorted upper kinds, sorted lower kinds."""
    upper = "+".join(sorted(c.kind for c in qb.upper_certs))
    lower = "+".join(sorted(c.kind for c in qb.lower_certs))
    return f"{seq.text} {qb.lower} {qb.upper} {upper} {lower}"


def test_golden_census_unchanged():
    expected = GOLDEN.read_text().splitlines()
    got, over_bound = [], []
    for seq, qb in census():
        got.append(census_row(seq, qb))
        # the paper's general bound: every duplication chain stays within it
        bound = (block_form(seq).s + 9) // 2
        over_bound += [seq.text for c in qb.upper_certs
                       if c.provenance == "duplication chain" and c.value > bound]
    assert len(got) == len(expected) == 2 ** (MAX_ORDER - 1) - 1
    changed = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not changed, changed[:10]
    assert not over_bound, over_bound[:10]
    # the q = 2 gate is exact, so lower = 2 never sits below a larger upper
    assert not [row for row in got if row.split()[1] == "2" != row.split()[2]]


if __name__ == "__main__":
    for seq, qb in census():
        print(census_row(seq, qb))
