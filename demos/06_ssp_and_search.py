#!/usr/bin/env python3
"""The strong spectral property and the projection search.

SSP certifies that a realization's spectrum transfers to every supergraph
on the same vertex set; the alternating-projection search hunts for
matrices with a prescribed ordered multiplicity list inside S(G).
"""

import numpy as np

from threshq import (
    cluster_spectrum,
    construct_library,
    eigen_sym,
    gram,
    graph_from_text,
    in_pattern,
    low_q_search,
    ssp_check,
)

print("== SSP checks ==")
for cid, params in [("thm00", {"t": 3}), ("prop_a15a19", {}), ("thm10", {})]:
    A = gram(construct_library(cid, **params))
    rep = ssp_check(A)
    print(f"{cid:12s} SSP={rep.is_ssp}  nullity={rep.nullity}  "
          f"smallest retained sv={rep.smallest_sv:.3e}")

A = np.eye(4)
rep = ssp_check(A)
print(f"{'identity':12s} SSP={rep.is_ssp}  nullity={rep.nullity} "
      "(every hollow symmetric matrix commutes)")

print()
print("== projection search ==")
G = graph_from_text("010101")
W = low_q_search(G, 3, (3, 2, 1), seed=0)
if W is not None:
    s = cluster_spectrum(eigen_sym(W))
    print(f"found a q=3 realization of {G.creation}: Spec={s}, "
          f"in-pattern={bool(in_pattern(W, G))}")

G4 = graph_from_text("0001001")
W = low_q_search(G4, 3, (2, 3, 2), budget=(60, 150), seed=0)
print(f"search for q=3 on {G4.creation} (exact value is 4): "
      f"{'found (unexpected!)' if W is not None else 'no success, as expected'}")
print("absence of success is reported, never claimed as a proof")
