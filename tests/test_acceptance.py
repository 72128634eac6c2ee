"""Acceptance suite: eight criteria, one pass/fail line each (run with -s).

Criterion 6's q=2 census note: the order-7 catalog marks 9 rows q=2 and the
order-8 catalog marks 19 (20 with the corrected row 42); every one of them
must carry a verified two-eigenvalue certificate.
"""

import math
import time

import numpy as np

from threshq.bounds import classify_q, verify_certificate
from threshq.gram import construct_library, dup_realization, gram, jdup_realization, section12_factor
from threshq.orthosearch import low_q_search, ssp_check
from threshq.sequences import build_graph, enumerate_connected, graph_from_text, unique_path_bound
from threshq.spectra import (
    assert_spectrum,
    cluster_spectrum,
    eigen_sym,
    in_pattern,
    pattern_matrix,
    q_of_matrix,
)
from threshq.tables import TABLES, reproduce_table


def report(ok: bool, line: str) -> None:
    print(("PASS" if ok else "FAIL") + " " + line)
    assert ok, line


# ---------------------------------------------------------------- 1


def test_criterion_1_construction_spectra():
    cases = []
    for t in (2, 3, 4, 5):
        lam = t * t - t + 1
        cases.append((("thm00", {"t": t}),
                      [(0.0, t), (float(lam), t - 1), (float(2 * t * t - t + 1), 1)]))
    cases += [
        (("thm061", {}), [(0.0, 2), (2.0, 1), (4.0, 1)]),
        (("thm01", {}), [(0.0, 2), (7.0, 1), (13.0, 2)]),
        (("thm10", {}), [(0.0, 2), (1.0, 1), (3 - math.sqrt(2), 1), (3 + math.sqrt(2), 1)]),
        (("thm05", {}), [(0.0, 3), (7.0, 1), (13.0, 2)]),
        (("thm06", {}), [(0.0, 3), (3.0, 2), (9.0, 1)]),
        (("qlt4", {}), [(0.0, 3), (1.0, 1), (2.0, 2), (7.0, 1)]),
        (("prop_a15a19", {}), [(0.0, 3), (3.0, 3), (11.0, 2)]),
    ]
    slow = []
    for (cid, params), expected in cases:
        t0 = time.time()
        A = gram(construct_library(cid, **params))
        ok = assert_spectrum(A, expected)
        elapsed = time.time() - t0
        if elapsed >= 1.0:
            slow.append((cid, params, elapsed))
        assert ok, (cid, params)
    report(not slow, f"criterion 1: construction spectra ({len(cases)} instances, each < 1s)")


# ---------------------------------------------------------------- 2


def test_criterion_2_table_reproduction():
    t0 = time.time()
    rep7 = reproduce_table(7)
    rep8 = reproduce_table(8)
    elapsed = time.time() - t0
    ok7 = rep7.all_match and rep7.matched == 31
    row4 = next(r for r in rep7.rows if r.index == 4)
    ok7 = ok7 and row4.got_low == row4.got_high == 4
    ok8 = rep8.all_match and rep8.exact_matches == 62
    ok8 = ok8 and [r.index for r in rep8.interval_rows] == [10, 17]
    ok8 = ok8 and all((r.got_low, r.got_high) == (3, 4) for r in rep8.interval_rows)
    report(ok7 and ok8 and elapsed < 60.0,
           f"criterion 2: catalogs 31/31 and 62 exact + rows 10, 17 as [3,4] "
           f"({elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------- 3


def test_criterion_3_ssp_suite():
    ok = ssp_check(gram(construct_library("thm00", t=3))).is_ssp
    ok = ok and ssp_check(gram(construct_library("prop_a15a19"))).is_ssp
    for n in (2, 3, 4):
        rep = ssp_check(np.eye(n))
        ok = ok and not rep.is_ssp and rep.nullity == n * (n - 1) // 2
    report(ok, "criterion 3: SSP holds for the two catalog matrices and fails "
               "with full nullity on empty patterns")


# ---------------------------------------------------------------- 4


def _dup_pool():
    pool = []
    for cid, params in (("thm00", {"t": 2}), ("thm061", {}), ("thm01", {}), ("thm10", {}),
                        ("thm05", {}), ("thm06", {}), ("qlt4", {})):
        f = construct_library(cid, **params)
        pool += [(f, slot) for slot in f.dup_slots]
    for s, m in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        f = section12_factor(s, m)
        if f.n < 8:
            pool += [(f, slot) for slot in f.dup_slots]
    return pool


def test_criterion_4_duplication_contracts():
    rng = np.random.default_rng(4)
    pool = _dup_pool()
    for _ in range(50):
        f, (v, lam) = pool[rng.integers(len(pool))]
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        A = gram(f)
        C = dup_realization(A, v, lam, eigen_sym(A), theta=theta)
        scale = max(1.0, float(np.abs(eigen_sym(A)).max()))
        want = np.sort(np.append(eigen_sym(A), lam))
        assert np.abs(eigen_sym(C) - want).max() <= 1e-8 * scale
        n = A.shape[0]
        P, Q = pattern_matrix(A), pattern_matrix(C)
        assert np.array_equal(Q[:n, :n], P) and np.array_equal(Q[n, :n], P[v])
        assert not Q[n, n:].any() and not Q[v, n]

    seqs = [s for n in range(3, 9) for s in enumerate_connected(n)]
    done = 0
    while done < 50:
        seq = seqs[rng.integers(len(seqs))]
        G = build_graph(seq)
        n = G.n
        A = np.where(G.adjacency,
                     rng.uniform(0.5, 1.5, (n, n)) * np.where(rng.random((n, n)) < 0.5, -1, 1),
                     0.0)
        A = (A + A.T) / 2
        A[np.diag_indices(n)] = rng.uniform(-1, 1, n)
        w = eigen_sym(A)
        if np.min(np.diff(w)) < 1e-4:  # keep clusters unambiguous
            continue
        v = int(rng.integers(n))
        if abs(A[v, v] - w[0]) < 1e-6:
            continue
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        C = jdup_realization(A, v, w, theta=theta)
        assert q_of_matrix(C) == q_of_matrix(A)
        want = np.sort(np.append(w, w[0]))
        assert np.abs(eigen_sym(C) - want).max() <= 1e-8 * max(1.0, np.abs(w).max())
        # deleting the copy recovers A exactly away from v, cos-scaled on row v
        D = C[:n, :n]
        mask = np.ones(n, dtype=bool)
        mask[v] = False
        assert np.allclose(D[np.ix_(mask, mask)], A[np.ix_(mask, mask)], atol=1e-12)
        assert np.allclose(D[v, mask], math.cos(theta) * A[v, mask], atol=1e-12)
        done += 1
    report(True, "criterion 4: 50 dup and 50 jdup random cases meet the spectrum, "
                 "pattern, and recovery contracts")


# ---------------------------------------------------------------- 5


def combinatorial_lower(g) -> int:
    """The paper's combinatorial lower bounds, read off the sequence alone:
    3 when a unique shortest path exists, the trace is below half the order
    or a zero-run after the first has at least as many vertices as the
    dominating vertices after it; else the connected floor 2."""
    bf = g.block_form
    fires = (unique_path_bound(g) is not None or g.trace < math.ceil(g.n / 2)
             or any(bf.ks[i] >= sum(bf.ts[i:]) for i in range(1, bf.s)))
    return 3 if fires else 2


def test_criterion_5_lower_bound_soundness():
    for n, table in TABLES.items():
        for row in table:
            if row.q_low != row.q_high:
                continue
            g = graph_from_text(row.sequence)
            assert combinatorial_lower(g) <= row.q_low, row.sequence
            assert classify_q(g).lower <= row.q_low, row.sequence
    for n in range(2, 9):
        for seq in enumerate_connected(n):
            g = build_graph(seq)
            qb = classify_q(g)
            assert qb.lower <= qb.upper, seq.text
            for c in qb.upper_certs:
                assert verify_certificate(g, c), (seq.text, c.kind)
    report(True, "criterion 5: lower bounds below every exact catalog value and "
                 "every verified upper certificate (n <= 8)")


# ---------------------------------------------------------------- 6


def test_criterion_6_q2_certificates():
    counts = {}
    for n, table in TABLES.items():
        marked = [r for r in table if r.q_low == r.q_high == 2]
        counts[n] = len(marked)
        for row in marked:
            g = graph_from_text(row.sequence)
            qb = classify_q(g)
            ortho = [c for c in qb.upper_certs if c.kind == "OrthoUB"]
            assert qb.exact and qb.lower == 2, row.sequence
            assert ortho, row.sequence
            A = ortho[0].payload["matrix"]
            assert in_pattern(A, g) and q_of_matrix(A) == 2, row.sequence
    corrected = [r for r in TABLES[8] if r.printed_q is not None]
    ok = counts == {7: 9, 8: 20} and [r.index for r in corrected] == [42]
    report(ok, "criterion 6: two-eigenvalue certificates for every q=2 catalog row "
               "(9 of order 7; 20 of order 8, of which 19 printed plus corrected row 42)")


# ---------------------------------------------------------------- 7


def test_criterion_7_general_upper_bound():
    for s, m in ((3, 3), (5, 3)):
        f = section12_factor(s, m)
        A = gram(f)
        assert in_pattern(A, f.target)
        assert q_of_matrix(A) <= (s + 9) // 2, s
    report(True, "criterion 7: paired-column certificates for s in {3, 5}; the golden "
                 "census checks every chain against floor((s+9)/2) up to n = 13")


# ---------------------------------------------------------------- 8


def test_criterion_8_search_honesty():
    G = graph_from_text("010101")
    W = low_q_search(G, 3, (3, 2, 1), seed=0)
    found = W is not None
    verified = False
    if found:
        s = cluster_spectrum(eigen_sym(W))
        verified = bool(in_pattern(W, G)) and s.q == 3 and s.multiplicities == (3, 2, 1)
    # anything the search returns must re-verify, including on hard inputs
    others = [
        ("0111", 2, (1, 3), (60, 150)),
        ("0001001", 3, (2, 3, 2), (25, 150)),
        ("01011", 2, (2, 3), (60, 150)),
    ]
    honest = True
    for text, q, mlist, budget in others:
        g = graph_from_text(text)
        out = low_q_search(g, q, mlist, budget=budget, seed=1)
        if out is not None:
            s = cluster_spectrum(eigen_sym(out))
            honest = honest and bool(in_pattern(out, g)) and s.multiplicities == tuple(mlist)
    report(found and verified and honest,
           "criterion 8: default-budget search finds a verified q=3 matrix on the "
           "six-vertex alternating graph and never returns an unverified matrix")
