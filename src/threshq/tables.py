"""Reference catalogs of q(G) for all connected threshold graphs of order
7 and 8, and the machinery reproducing them with certificates.

Catalog notes:
  - order 7 lists 31 of the 32 connected sequences; the missing sequence
    0011111 is reported as an extra, never guessed into a row.
  - order 8 rows 10 and 17 are open intervals [3, 4].
  - order 8 row 42 carries a correction: the printed value 3 contradicts
    the complete-split rule the row itself cites (k1 = t1 = 4 gives 2),
    and a two-eigenvalue certificate exists; reproduction compares against
    the corrected value and flags the row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import classify_q
from .sequences import enumerate_connected, graph_from_text


@dataclass(frozen=True)
class TableRow:
    index: int
    sequence: str
    q_low: int
    q_high: int
    source: str
    printed_q: int | None = None  # set only when the catalog value is corrected


TABLE7 = tuple(TableRow(*e) for e in [
    (1, "0000001", 3, 3, "star"),
    (2, "0100001", 3, 3, "t2"),
    (3, "0010001", 3, 3, "t2"),
    (4, "0001001", 4, 4, "t2"),
    (5, "0000101", 3, 3, "t2"),
    (6, "0000011", 3, 3, "t2"),
    (7, "0110001", 3, 3, "pa"),
    (8, "0101001", 3, 3, "thm05"),
    (9, "0100101", 3, 3, "thm06"),
    (10, "0100011", 3, 3, "jdup trace"),
    (11, "0011001", 3, 3, "t2 diam jdup"),
    (12, "0010101", 3, 3, "thm05"),
    (13, "0010011", 3, 3, "jdup trace"),
    (14, "0001101", 3, 3, "t2 diam jdup"),
    (15, "0001011", 3, 3, "t2 jdup trace"),
    (16, "0000111", 3, 3, "jdup trace"),
    (17, "0111001", 3, 3, "t2 jdup"),
    (18, "0110101", 3, 3, "thm00 jdup"),
    (19, "0110011", 3, 3, "tn3"),
    (20, "0101101", 3, 3, "thm00 jdup"),
    (21, "0101011", 2, 2, "tn3"),
    (22, "0100111", 2, 2, "tn3"),
    (23, "0011101", 3, 3, "t2 jdup"),
    (24, "0011011", 2, 2, "tn3"),
    (25, "0010111", 2, 2, "tn3"),
    (26, "0001111", 2, 2, "csplit"),
    (27, "0101111", 2, 2, "tn2"),
    (28, "0110111", 2, 2, "tn2"),
    (29, "0111011", 2, 2, "tn2"),
    (30, "0111101", 3, 3, "diam jdup"),
    (31, "0111111", 2, 2, "complete"),
])

TABLE8 = tuple(TableRow(*e) for e in [
    (1, "00000001", 3, 3, "star"),
    (2, "01000001", 3, 3, "pa"),
    (3, "00100001", 3, 3, "t2"),
    (4, "00010001", 4, 4, "t2"),
    (5, "00001001", 4, 4, "t2"),
    (6, "00000101", 3, 3, "t2"),
    (7, "00000011", 3, 3, "jdup trace"),
    (8, "01100001", 3, 3, "pa"),
    (9, "01010001", 3, 3, "thm05"),
    (10, "01001001", 3, 4, "trace qlt4 open"),
    (11, "01000101", 3, 3, "thm06"),
    (12, "01000011", 3, 3, "pa trace jdup"),
    (13, "00110001", 3, 3, "diam trace t2"),
    (14, "00101001", 3, 3, "thm05"),
    (15, "00100101", 3, 3, "a15a19"),
    (16, "00100011", 3, 3, "jdup trace t2"),
    (17, "00011001", 3, 4, "trace qlt4 open"),
    (18, "00010101", 3, 3, "thm05"),
    (19, "00010011", 3, 3, "a15a19"),
    (20, "00001101", 3, 3, "trace t2"),
    (21, "00001011", 3, 3, "trace t2"),
    (22, "00000111", 3, 3, "jdup trace"),
    (23, "01110001", 3, 3, "diam jdup t2"),
    (24, "01101001", 3, 3, "diam jdup thm05"),
    (25, "01100101", 3, 3, "diam jdup thm06"),
    (26, "01100011", 3, 3, "jdup t2 compare"),
    (27, "01011001", 3, 3, "diam jdup thm05"),
    (28, "01010101", 3, 3, "thm00"),
    (29, "01010011", 3, 3, "diam thm05 compare"),
    (30, "01001101", 3, 3, "diam jdup thm06"),
    (31, "01001011", 3, 3, "p31"),
    (32, "01000111", 3, 3, "jdup t2 compare"),
    (33, "00111001", 3, 3, "diam jdup t2"),
    (34, "00110101", 3, 3, "diam jdup thm05"),
    (35, "00110011", 3, 3, "jdup t2 compare"),
    (36, "00101101", 3, 3, "diam thm05"),
    (37, "00101011", 2, 2, "p37"),
    (38, "00100111", 2, 2, "p38"),
    (39, "00011101", 3, 3, "diam jdup t2"),
    (40, "00011011", 2, 2, "p40"),
    (41, "00010111", 2, 2, "p41"),
    (42, "00001111", 2, 2, "csplit", 3),
    (43, "01111001", 3, 3, "tn3"),
    (44, "01110101", 3, 3, "tn3"),
    (45, "01110011", 3, 3, "tn3"),
    (46, "01101101", 3, 3, "tn3"),
    (47, "01101011", 2, 2, "tn3"),
    (48, "01100111", 2, 2, "tn3"),
    (49, "01011101", 3, 3, "tn3"),
    (50, "01011011", 2, 2, "tn3"),
    (51, "01010111", 2, 2, "tn3"),
    (52, "01001111", 2, 2, "tn3"),
    (53, "00111101", 3, 3, "tn3"),
    (54, "00111011", 2, 2, "tn3"),
    (55, "00110111", 2, 2, "tn3"),
    (56, "00101111", 2, 2, "tn3"),
    (57, "00011111", 2, 2, "tn3"),
    (58, "01111101", 3, 3, "tn2"),
    (59, "01111011", 2, 2, "tn2"),
    (60, "01110111", 2, 2, "tn2"),
    (61, "01101111", 2, 2, "tn2"),
    (62, "01011111", 2, 2, "tn2"),
    (63, "00111111", 2, 2, "tn2"),
    (64, "01111111", 2, 2, "complete"),
])

TABLES = {7: TABLE7, 8: TABLE8}


@dataclass(frozen=True)
class RowResult:
    index: int
    sequence: str
    expected_low: int
    expected_high: int
    got_low: int
    got_high: int
    match: bool
    cert_kinds: tuple[str, ...]
    note: str = ""


@dataclass(frozen=True)
class TableReport:
    n: int
    rows: tuple[RowResult, ...]
    extras: tuple[RowResult, ...]  # enumerated sequences absent from the catalog
    elapsed: float

    @property
    def matched(self) -> int:
        return sum(1 for r in self.rows if r.match)

    @property
    def exact_matches(self) -> int:
        return sum(1 for r in self.rows if r.match and r.expected_low == r.expected_high)

    @property
    def interval_rows(self) -> tuple[RowResult, ...]:
        return tuple(r for r in self.rows if r.expected_low != r.expected_high)

    @property
    def mismatches(self) -> tuple[RowResult, ...]:
        return tuple(r for r in self.rows if not r.match)

    @property
    def all_match(self) -> bool:
        return self.matched == len(self.rows)

    def summary(self) -> str:
        parts = [f"{self.matched}/{len(self.rows)} match"]
        iv = self.interval_rows
        if iv:
            parts.append(f"{self.exact_matches} exact + {len(iv)} intervals "
                         f"(rows {', '.join(str(r.index) for r in iv)})")
        if self.extras:
            parts.append(f"{len(self.extras)} sequence(s) not listed: "
                         + ", ".join(r.sequence for r in self.extras))
        err = [r for r in self.rows if "corrected" in r.note]
        if err:
            parts.append("corrected rows: " + ", ".join(str(r.index) for r in err))
        return "; ".join(parts)

    def to_dict(self) -> dict:
        def rowdict(r: RowResult) -> dict:
            return {
                "index": r.index, "sequence": r.sequence,
                "expected": [r.expected_low, r.expected_high],
                "got": [r.got_low, r.got_high],
                "match": r.match, "certificates": list(r.cert_kinds), "note": r.note,
            }

        return {
            "n": self.n,
            "rows": [rowdict(r) for r in self.rows],
            "extras": [rowdict(r) for r in self.extras],
            "matched": self.matched,
            "total": len(self.rows),
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def to_csv(self) -> str:
        lines = ["index,sequence,lower,upper,exact,cert-kinds"]
        for r in self.rows + self.extras:
            kinds = "+".join(r.cert_kinds)
            lines.append(f"{r.index},{r.sequence},{r.got_low},{r.got_high},"
                         f"{r.got_low == r.got_high},{kinds}")
        return "\n".join(lines) + "\n"


def reproduce_table(n: int) -> TableReport:
    """Classify every connected sequence of order n and compare with the
    catalog; unlisted sequences are reported, never matched by guesswork."""
    if n not in TABLES:
        raise ValueError("catalogs exist for n = 7 and n = 8")
    t0 = time.perf_counter()
    table = TABLES[n]
    by_seq = {row.sequence: row for row in table}
    results = []
    extras = []
    for row in table:
        qb = classify_q(graph_from_text(row.sequence))
        match = qb.lower == row.q_low and qb.upper == row.q_high
        note = ""
        if row.printed_q is not None:
            note = f"catalog prints {row.printed_q}; corrected to {row.q_low} (certificate-backed)"
        results.append(RowResult(
            row.index, row.sequence, row.q_low, row.q_high,
            qb.lower, qb.upper, match,
            tuple(c.kind for c in qb.lower_certs + qb.upper_certs), note))
    for seq in enumerate_connected(n, order="table"):
        if seq.text in by_seq:
            continue
        qb = classify_q(graph_from_text(seq.text))
        extras.append(RowResult(
            0, seq.text, 0, 0, qb.lower, qb.upper, False,
            tuple(c.kind for c in qb.lower_certs + qb.upper_certs),
            "enumerated sequence absent from the catalog"))
    return TableReport(n, tuple(results), tuple(extras), time.perf_counter() - t0)
