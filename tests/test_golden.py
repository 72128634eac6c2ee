"""The golden census: interval, upper-certificate kinds and lower-certificate
kinds of every connected sequence of order n <= 13, frozen in
data/golden_census.txt.

Regenerate (only for a change meant to alter answers, and list every
changed row with the change):

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_census.txt
"""

from pathlib import Path

from threshq import bounds
from threshq.sequences import build_graph, enumerate_connected

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_census.txt"
MAX_ORDER = 13


def census_rows():
    """One line per sequence: bits, lower, upper, sorted upper kinds, sorted
    lower kinds."""
    for n in range(2, MAX_ORDER + 1):
        for seq in enumerate_connected(n):
            qb = bounds.classify_q(build_graph(seq))
            upper = "+".join(sorted(c.kind for c in qb.upper_certs))
            lower = "+".join(sorted(c.kind for c in qb.lower_certs))
            yield f"{seq.text} {qb.lower} {qb.upper} {upper} {lower}"


def test_golden_census_unchanged():
    expected = GOLDEN.read_text().splitlines()
    got = list(census_rows())
    assert len(got) == len(expected) == 2 ** (MAX_ORDER - 1) - 1
    changed = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not changed, changed[:10]
    # the q = 2 gate is exact, so lower = 2 never sits below a larger upper
    assert not [row for row in got if row.split()[1] == "2" != row.split()[2]]


if __name__ == "__main__":
    for row in census_rows():
        print(row)
