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
print("The Hadamard-order complete split graph 00001111 needs the diagonal")
print("repair step: equal column scales make the dominating rows orthogonal")
print("to each other, which would knock the Gram out of S(G); rescaling the")
print("columns fixes every dominating product while preserving orthogonality.")

G = graph_from_text("00001111")
out = decide_column_orthogonal(SupportPattern.from_graph(G))
A = orthogonal_certificate(out.matrix, G)
print("certificate spectrum:", np.round(np.linalg.eigvalsh(A), 6))
