#!/usr/bin/env python3
"""The q = 2 gate: column-orthogonal completions and counting witnesses.

A connected threshold graph has q(G) = 2 exactly when the dominating-by-
isolated block of some matrix in S(G) can be made column orthogonal.  The
block's column supports are nested suffixes, so feasibility is a counting
question, and both answers come with re-checkable evidence.
"""

import numpy as np

from threshq import (
    SupportPattern,
    decide_column_orthogonal,
    graph_from_text,
    in_pattern,
    orthogonal_certificate,
    q_of_matrix,
)
from threshq.orthosearch import Feasible, Infeasible

EXAMPLES = ["0011", "0101011", "00101011", "00001111", "010101", "01001011"]

for text in EXAMPLES:
    G = graph_from_text(text)
    P = SupportPattern.from_graph(G)
    out = decide_column_orthogonal(P)
    if isinstance(out, Feasible):
        A = orthogonal_certificate(out.matrix, G)
        print(f"{text}: FEASIBLE -> certificate with q={q_of_matrix(A)}, "
              f"in-pattern={bool(in_pattern(A, G))}")
    elif isinstance(out, Infeasible):
        print(f"{text}: INFEASIBLE, witness: columns {out.columns} overlap only "
              f"in rows {out.rows} ({len(out.columns)} > {len(out.rows)})")

print()
print("The complete split graph 00001111 has a square completion: its")
print("dominating rows come out orthogonal to each other, which would knock")
print("the Gram out of S(G).  One column weight fixes every product at once:")
print("column 0 goes to sqrt(2) on every row, so each product of two")
print("dominating rows is 2 plus a share of size at most 1.")

G = graph_from_text("00001111")
out = decide_column_orthogonal(SupportPattern.from_graph(G))
B = out.matrix
print("dominating products before the weight:", np.round((B @ B.T)[0, 1:], 6))
A = orthogonal_certificate(B, G)
dom = list(G.dominating)
print("dominating products in the certificate:", np.round(A[dom[0], dom[1:]], 6))
print("certificate spectrum:", np.round(np.linalg.eigvalsh(A), 6))
