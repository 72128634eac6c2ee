#!/usr/bin/env python3
"""Walk the factor catalog: every named construction, its Gram spectrum,
and the pattern it realizes.

Each factor M has rows indexed by vertices and columns by cover cliques;
M M^T lands in S(G) and shares its nonzero spectrum with the small cogram
M^T M, which is what makes two- and three-eigenvalue realizations easy to
engineer.
"""

import numpy as np

from threshq import (
    cluster_spectrum,
    cogram,
    construct_library,
    eigen_sym,
    gram,
    in_pattern,
    section12_factor,
)
from threshq.gram import CONSTRUCTIONS

INSTANCES = [
    ("star", {"k": 3}),
    ("thm00", {"t": 3}),
    ("thm061", {}),
    ("thm01", {}),
    ("thm10", {}),
    ("thm05", {}),
    ("thm06", {}),
    ("qlt4", {}),
    ("prop_a15a19", {}),
]

assert {cid for cid, _ in INSTANCES} == set(CONSTRUCTIONS)

FACTORS = [construct_library(cid, **params) for cid, params in INSTANCES]
FACTORS.append(section12_factor(3, 3))  # the general bound's seed, built directly

for f in FACTORS:
    cid, params = f.construction_id, f.params
    A = gram(f)
    spec = cluster_spectrum(eigen_sym(A))
    target = f.target.creation.text
    ok = bool(in_pattern(A, f.target))
    print(f"{cid:12s} {str(params):16s} n={f.n}  target={target:13s} "
          f"Spec={str(spec):34s} in-pattern={ok}")
    small = cogram(f)
    print(f"{'':12s} cogram is {small.shape[0]}x{small.shape[1]} with spectrum "
          f"{np.round(eigen_sym(small), 6)}")
