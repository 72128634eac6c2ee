"""The golden census: interval, upper-certificate kinds and lower-certificate
kinds of every connected sequence of order n <= 13, frozen in
data/golden_census.txt.

Regenerate (only for a change meant to alter answers, and list every
changed row with the change):

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_census.txt
"""

from collections import Counter
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


def describe_changes(changed) -> str:
    """The changed rows, (expected, got) pairs: every interval change, then
    the kind-only changes counted per transition of the upper or the lower
    kinds field."""
    moved = [(e, g) for e, g in changed if e.split()[:3] != g.split()[:3]]
    kinds = Counter((side, a, b) for e, g in changed if e.split()[:3] == g.split()[:3]
                    for side, a, b in zip(("upper", "lower"), e.split()[3:], g.split()[3:])
                    if a != b)
    lines = [f"{len(moved)} interval changes:"]
    lines += [f"  {e}  ->  {g}" for e, g in moved[:10]]
    lines += [f"{len(changed) - len(moved)} kind-only changes:"]
    lines += [f"  {count} x {side} {a} -> {b}" for (side, a, b), count in kinds.most_common()]
    return "\n".join(lines)


def test_golden_census_unchanged():
    expected = GOLDEN.read_text().splitlines()
    got, over_bound, not_one = [], [], []
    for seq, qb in census():
        got.append(census_row(seq, qb))
        # the upper side is one certificate
        if len(qb.upper_certs) != 1:
            not_one.append(seq.text)
        # the paper's general bound: every duplication chain stays within it
        bound = (block_form(seq).s + 9) // 2
        over_bound += [seq.text for c in qb.upper_certs
                       if c.provenance == "duplication chain" and c.value > bound]
    assert len(got) == len(expected) == 2 ** (MAX_ORDER - 1) - 1
    assert not not_one, not_one[:10]
    changed = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not changed, describe_changes(changed)
    assert not over_bound, over_bound[:10]
    # the q = 2 gate is exact, so lower = 2 never sits below a larger upper
    assert not [row for row in got if row.split()[1] == "2" != row.split()[2]]


if __name__ == "__main__":
    for seq, qb in census():
        print(census_row(seq, qb))
