import importlib
import math
import random

import numpy as np
import pytest

from threshq.bounds import _chain_plan, q2_certificate, run_chain
from threshq.gram import (
    A15A19_BASES,
    DUP_TOL,
    NEW_EDGE,
    BadAngle,
    BadParams,
    DegenerateRow,
    DiagonalNotEigenvalue,
    GramFactor,
    cogram,
    construct_library,
    dup_realization,
    gram,
    grow_factor,
    jdup_realization,
    orthogonal_certificate,
    section12_factor,
    section12_form,
    section12_q,
)
from threshq.orthosearch import SupportPattern
from threshq.sequences import creation_order_of, dup_graph, graph_from_text, jdup_graph
from threshq.spectra import (DimensionMismatch, NoConvergence, assert_spectrum, cluster_spectrum, eigen_sym,
                             in_pattern, pattern_matrix, q_of_matrix)

# the module itself: the package's `gram` attribute is the function
gramlib = importlib.import_module("threshq.gram")

ALL_IDS_NO_PARAMS = ["thm061", "thm01", "thm10", "thm05", "thm06", "qlt4", "prop_a15a19"]

# Column-orthogonal dominating-by-isolated blocks printed in the paper for
# 00101011 (Proposition 37) and 00011011 (Proposition 40).
PROP37_BLOCK = np.array(
    [[1, -3, 0, 0], [1, 1, -2, 0], [1, 1, 1, -1], [1, 1, 1, 1]], dtype=float)
PROP40_BLOCK = np.array(
    [[1, 1.5, 4.5, 0], [2, 0.5, -3.5, 0], [0.5, -1, 1, 2], [-1, 2, -2, 1]], dtype=float)


def catalog_instances():
    out = [construct_library(cid) for cid in ALL_IDS_NO_PARAMS]
    out += [construct_library("thm00", t=t) for t in (2, 3, 4, 5)]
    out += [section12_factor(3, 3), section12_factor(5, 3)]
    return out


def test_every_construction_verifies():
    for f in catalog_instances():
        A = gram(f)
        assert in_pattern(A, f.target), f.construction_id
        if f.expected_spectrum is not None:
            assert assert_spectrum(A, list(f.expected_spectrum)), f.construction_id
        # nonzero spectra of gram and cogram agree
        wg = eigen_sym(A)
        wc = eigen_sym(cogram(f))
        nz = lambda w: np.sort(w[np.abs(w) > 1e-8])
        assert np.allclose(nz(wg), nz(wc), atol=1e-8), f.construction_id
        # documented duplicable vertices have their diagonal in the spectrum
        for v, lam in f.dup_slots:
            assert abs(A[v, v] - lam) < 1e-9
            assert np.min(np.abs(wg - lam)) < 1e-8


def test_factors_cover_every_edge():
    # clique-cover semantics: each edge is covered by at least one column
    for f in catalog_instances():
        adj = f.target.adjacency
        n = f.n
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i, j]:
                    cover = np.abs(f.M[i]) * np.abs(f.M[j])
                    assert cover.max() > 1e-9, (f.construction_id, i, j)


@pytest.mark.parametrize("k", range(1, 9))
def test_star_factor(k):
    # leaves e_i and an all-ones centre: the gram lies in S(0^k 1), its
    # eigensolve matches expected_spectrum, and the cogram is I + J
    f = construct_library("star", k=k)
    A = gram(f)
    assert in_pattern(A, graph_from_text("0" * k + "1"))
    assert assert_spectrum(A, list(f.expected_spectrum))
    assert np.array_equal(cogram(f), np.eye(k) + 1)


def test_thm00_cogram():
    f = construct_library("thm00", t=2)
    assert np.allclose(cogram(f), [[5, 2], [2, 5]], atol=1e-12)
    assert sorted(np.round(eigen_sym(cogram(f)), 9)) == [3, 7]
    for t in (3, 4, 5):
        f = construct_library("thm00", t=t)
        assert np.allclose(cogram(f), (t * t - t + 1) * np.eye(t) + t, atol=1e-9)


def test_thm05_cogram():
    f = construct_library("thm05")
    assert np.allclose(cogram(f), 11 * np.eye(3) - 2 * (np.ones((3, 3)) - np.eye(3)), atol=1e-9)


def test_single_column_factor():
    M = np.array([[1.0], [1.0]])
    G = graph_from_text("01")
    f = GramFactor(M, G.creation.bits, "adhoc")
    assert np.allclose(gram(f), np.ones((2, 2)))
    # the target graph is built from the bits on first access, then kept
    assert "target" not in vars(f) and f.target == G and f.target is f.target
    # bits that are not one creation bit per row fail when the factor is made
    for bits in (G, G.creation, (0, 1, 1)):
        with pytest.raises(BadParams):
            GramFactor(M, bits, "adhoc")


def test_bad_construction_params():
    with pytest.raises(BadParams):
        construct_library("nope")
    with pytest.raises(BadParams):
        construct_library("thm00", t=1)
    with pytest.raises(BadParams):
        construct_library("star", k=0)
    with pytest.raises(BadParams):
        construct_library("thm00", bogus=3)
    with pytest.raises(BadParams):
        section12_factor(1, 1)
    with pytest.raises(BadParams):
        construct_library("prop_a15a19", base="01010101")
    with pytest.raises(BadParams):
        construct_library("prop_a15a19", base=["00100101"])
    # parameters must be ints, and not bools, which are ints to isinstance,
    # with s >= 2 and 1 <= m <= s, whether the seed is built, read as a
    # form or counted in closed form
    for s, m in ((3, True), (2.0, 1), (True, 1), (3, 1.0), ("3", 1), (1, 1), (3, 0), (3, 4)):
        for paired_column in (section12_factor, section12_form, section12_q):
            with pytest.raises(BadParams):
                paired_column(s, m)
    for cid, key in (("star", "k"), ("thm00", "t")):
        for bad in (True, 3.0):
            with pytest.raises(BadParams):
                construct_library(cid, **{key: bad})
    # a fixed seed takes no parameter, not even one named like its builder's
    for cid in ("thm061", "thm01", "thm10", "thm05", "thm06", "qlt4"):
        for key in ("cid", "c", "t"):
            with pytest.raises(BadParams):
                construct_library(cid, **{key: "thm01"})


# ---------------------------------------------------------------- the gate's form


def _gate_form_seeds():
    """Every seed built in the gate's form, within the planner's ranges: the
    catalog but the liberated seeds, and the paired-column seeds."""
    yield from (construct_library("star", k=k) for k in range(1, 9))
    yield from (construct_library("thm00", t=t) for t in range(2, 17))
    yield from (construct_library(cid) for cid in ALL_IDS_NO_PARAMS if cid != "prop_a15a19")
    yield from (section12_factor(s, m) for s in range(2, 13) for m in range(1, s + 1))


def _dominating_block_and_tails(f):
    dom = np.array(f.target.creation.bits, dtype=bool)
    return f.M[dom], np.diagonal(f.M[~dom])


def test_every_gate_form_seed_is_its_block_and_tails():
    # M is exactly D on the dominating rows and one tail per isolated row in
    # its own column; D's support is the staircase, every two rows of D
    # meet, and the cogram is D^T D + diag(tails^2)
    for f in _gate_form_seeds():
        label = (f.construction_id, f.params)
        D, tails = _dominating_block_and_tails(f)
        assert np.array_equal(f.M, gramlib._gate_factor(f.target.creation.bits, D, tails)), label
        assert np.array_equal(D != 0, SupportPattern.from_graph(f.target).support), label
        assert np.all(tails != 0) and np.all(np.abs(D @ D.T) > 1e-9), label
        assert np.allclose(cogram(f), D.T @ D + np.diag(tails ** 2), rtol=0, atol=1e-9), label


def test_liberated_seeds_are_not_in_the_gate_form():
    # the one documented exception: the liberation mixes every row
    for base in A15A19_BASES:
        f = construct_library("prop_a15a19", base=base)
        D, tails = _dominating_block_and_tails(f)
        assert not np.array_equal(f.M, gramlib._gate_factor(f.target.creation.bits, D, tails)), base
        assert not np.array_equal(D != 0, SupportPattern.from_graph(f.target).support), base


def test_gate_factor_places_rows_in_creation_order():
    # thm061: 0101 with D = [[1, 0], [1, 1]] and tails (1, sqrt 2)
    M = gramlib._gate_factor((0, 1, 0, 1), [[1, 0], [1, 1]], [1, math.sqrt(2)])
    assert np.array_equal(M, [[1, 0], [1, 0], [0, math.sqrt(2)], [1, 1]])
    assert np.array_equal(M, construct_library("thm061").M) and not M.flags.writeable


# ---------------------------------------------------------------- liberation


def _donor(monkeypatch, base):
    """prop_a15a19's rows placed in base vertex order, not liberated."""
    with monkeypatch.context() as m:
        m.setattr(gramlib, "_liberated", lambda M, G: M)
        return construct_library("prop_a15a19", base=base)


@pytest.mark.parametrize("base", list(A15A19_BASES))
def test_liberated_seed_lies_in_its_base_with_the_donor_spectrum(monkeypatch, base):
    # orthogonal similarities move the donor into S(base): each new edge at
    # NEW_EDGE, every non-edge zero to 1e-12 of scale, the spectrum kept
    f = construct_library("prop_a15a19", base=base)
    donor = gram(_donor(monkeypatch, base))
    A, adj = gram(f), graph_from_text(base).adjacency
    assert f.target.creation.text == base and f.params == {"base": base}
    off = ~adj & ~np.eye(f.n, dtype=bool)
    assert np.abs(A[off]).max() <= 1e-12 * np.abs(A).max()
    assert np.abs(A[adj]).min() >= NEW_EDGE * (1 - 1e-9)
    new = adj & (donor == 0)
    assert new.any() and np.allclose(A[new], NEW_EDGE, rtol=1e-9, atol=0)
    assert np.abs(eigen_sym(A) - eigen_sym(donor)).max() <= 1e-12
    assert np.abs(cogram(f) - cogram(_donor(monkeypatch, base))).max() <= 1e-12 * np.abs(A).max()


def test_liberation_is_deterministic():
    for base in A15A19_BASES:
        first, second = (construct_library("prop_a15a19", base=base).M for _ in range(2))
        assert first.tobytes() == second.tobytes(), base


def test_liberation_without_the_ssp_raises_no_convergence():
    # the identity commutes with every rotation, so its edges never move:
    # its SSP system is zero, and the liberation stops with a typed error
    with pytest.raises(NoConvergence, match="liberation"):
        gramlib._liberated(np.eye(3), graph_from_text("011"))


def test_ub_case1_even_parity_instances():
    for p1, p2 in [(2, 0), (0, 2), (2, 2), (4, 0)]:
        s = p1 + p2 + 1
        f = section12_factor(s, p1 + 1)
        A = gram(f)
        assert in_pattern(A, f.target)
        assert q_of_matrix(A) <= (s + 9) // 2


def test_section12_all_parities():
    for s in range(2, 7):
        for m in range(1, s + 1):
            f = section12_factor(s, m)
            A = gram(f)
            assert in_pattern(A, f.target)
            assert q_of_matrix(A) <= (s + 9) // 2
            w = eigen_sym(A)
            for v, lam in f.dup_slots:
                assert abs(A[v, v] - lam) < 1e-9
                assert np.min(np.abs(w - lam)) < 1e-8


def test_section12_q_is_the_built_seeds_q():
    # the closed form is the length of the built seed's expected spectrum
    # for every m and s <= 57, at least s // 2 + 3 >= 4 and at most the
    # paper's floor((s+9)/2), which the largest reaches from s = 4 on
    for s in range(2, 58):
        qs = [section12_q(s, m) for m in range(1, s + 1)]
        assert qs == [len(section12_factor(s, m).expected_spectrum) for m in range(1, s + 1)], s
        assert min(qs) == s // 2 + 3 and max(qs) <= (s + 9) // 2, s
        assert s < 4 or max(qs) == (s + 9) // 2, s
    assert type(section12_q(np.int64(6), np.int64(2))) is int


def _paired_column_cogram(s, m):
    """section12_factor(s, m)'s cogram D^T D + diag(tails^2), unbuilt."""
    D = gramlib._paired_columns(s, m)
    return D.T @ D + np.diag([f2 for _, f2 in section12_form(s, m)[1]])


def test_section12_q_counts_the_cogram_spectrum_at_a_tight_tolerance():
    # for every m and s <= 129 the closed form is the count of the cogram's
    # eigenvalues plus the gram's s other zeros clustered at tol = 1e-10 of
    # their spread, and that count is unambiguous: every gap between
    # clusters is at least 150 tol, and no gap inside one exceeds 1e-5 tol
    for s in range(2, 13):
        for m in range(1, s + 1):
            assert close_to(_paired_column_cogram(s, m), cogram(section12_factor(s, m)), 1.0)
    for s in range(2, 130):
        for m in range(1, s + 1):
            eigs = np.sort(np.concatenate((np.linalg.eigvalsh(_paired_column_cogram(s, m)),
                                           np.zeros(s))))
            gaps, tol = np.diff(eigs), 1e-10 * (eigs[-1] - eigs[0])
            split = gaps > tol
            assert 1 + np.count_nonzero(split) == section12_q(s, m), (s, m)
            assert gaps[split].min() >= 150 * tol, (s, m)
            assert gaps[~split].max(initial=0.0) <= 1e-5 * tol, (s, m)


# ---------------------------------------------------------------- dup


def dup_pattern_ok(A, C, v):
    """C's pattern must be A's with an unjoined copy of v appended."""
    n = A.shape[0]
    P = pattern_matrix(A)
    Q = np.zeros((n + 1, n + 1), dtype=bool)
    Q[:n, :n] = P
    Q[n, :n] = P[v]
    Q[:n, n] = P[:, v]
    return np.array_equal(pattern_matrix(C), Q)


def test_dup_thm00_example():
    f = construct_library("thm00", t=2)
    A = gram(f)
    C = dup_realization(A, 0, 3.0, eigen_sym(A), theta=math.pi / 4)
    assert assert_spectrum(C, [(0.0, 2), (3.0, 2), (7.0, 1)])
    assert abs(C[0, 4]) < 1e-12
    bits, order = creation_order_of(pattern_matrix(C))
    assert bits == (0, 0, 1, 0, 1)
    assert in_pattern(C[np.ix_(order, order)], graph_from_text("00101"))


def test_dup_trivial_1x1():
    C = dup_realization(np.zeros((1, 1)), 0, 0.0, np.zeros(1))
    assert np.allclose(C, 0.0) and C.shape == (2, 2)


def test_dup_thm01_pendant():
    f = construct_library("thm01")
    A = gram(f)
    C = dup_realization(A, 3, 7.0, eigen_sym(A))
    assert assert_spectrum(C, [(0.0, 2), (7.0, 2), (13.0, 2)])
    bits, _ = creation_order_of(pattern_matrix(C))
    assert bits == (0, 0, 1, 0, 0, 1)


def test_dup_theta_grid():
    f = construct_library("thm00", t=2)
    A = gram(f)
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        C = dup_realization(A, 0, 3.0, eigen_sym(A), theta=theta)
        assert dup_pattern_ok(A, C, 0)
        assert assert_spectrum(C, [(0.0, 2), (3.0, 2), (7.0, 1)])


def test_dup_errors():
    A = gram(construct_library("thm00", t=2))
    with pytest.raises(DiagonalNotEigenvalue):
        dup_realization(A, 1, 3.0, eigen_sym(A))  # a_11 = 1 != 3
    with pytest.raises(DiagonalNotEigenvalue):
        dup_realization(A, 2, A[2, 2], eigen_sym(A))  # 5 is not an eigenvalue
    with pytest.raises(BadAngle):
        dup_realization(A, 0, 3.0, eigen_sym(A), theta=0.0)


# ---------------------------------------------------------------- jdup


def test_jdup_k2():
    K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    C = jdup_realization(K2, 0, eigen_sym(K2))
    # K3 realization, smallest eigenvalue duplicated, q stays 2
    assert assert_spectrum(C, [(-1.0, 2), (1.0, 1)])
    assert q_of_matrix(C) == 2
    assert pattern_matrix(C).sum() == 6


def test_jdup_keeps_q2():
    A = q2_certificate(graph_from_text("01011")).payload["matrix"]
    C = jdup_realization(A, 4, eigen_sym(A))  # a vertex of the final clique
    assert q_of_matrix(C) == 2
    bits, _ = creation_order_of(pattern_matrix(C))
    assert bits == (0, 1, 0, 1, 1, 1)
    # iterate: one more joined duplication stays at q = 2
    C2 = jdup_realization(C, 4, eigen_sym(C))
    assert q_of_matrix(C2) == 2


def test_jdup_degenerate_row():
    A = np.diag([1.0, 1.0])  # empty pattern, every diagonal equals lambda_min
    with pytest.raises(DegenerateRow):
        jdup_realization(A, 0, eigen_sym(A))


# ---------------------------------------------------------------- the reference


def householder_run(A, v, lam, u):
    """The dense reference for one run: A bordered by lam I_k, then
    conjugated by Q, the Householder reflection taking e_1 to the unit
    vector u = (u_0, ..., u_k), acting on coordinates v, n, ..., n + k - 1.
    Its vector w = e_1 - u has w_0 = 1 - u_0 = |u_1..k|^2 / (1 + u_0),
    which the second form gives without cancellation when u_0 is near 1."""
    A, u = np.asarray(A, dtype=float), np.asarray(u, dtype=float)
    n, k = len(A), len(u) - 1
    big = np.zeros((n + k, n + k))
    big[:n, :n] = A
    big[range(n, n + k), range(n, n + k)] = lam
    w = -u
    w[0] = u[1:] @ u[1:] / (1.0 + u[0]) if u[0] > 0 else 1.0 - u[0]
    H = np.eye(k + 1) - 2.0 * np.outer(w, w) / (w @ w) if w.any() else np.eye(k + 1)
    Q = np.eye(n + k)
    run = [v, *range(n, n + k)]
    Q[np.ix_(run, run)] = H
    return Q @ big @ Q.T


def close_to(got, want, A):
    """got equals want within 1e-12 * max(1, max|A|)."""
    return np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(A).max()))


def _full_read_step(A, spectrum, v, lam, theta, joined):
    """One dup (lam given) or jdup (lam = min(spectrum)) step as a full
    read decides it: the check scale is max(1, max|A|) over all of A and the
    carried spectrum is scanned.  Returns the Householder reference of the
    step and the carried spectrum, or raises the step's typed error."""
    if not 0 < theta < math.pi / 2:
        raise BadAngle(theta)
    scale = max(1.0, float(np.abs(A).max()))
    if joined:
        lam = float(np.min(spectrum))
        if abs(A[v, v] - lam) <= DUP_TOL * scale:
            raise DegenerateRow(v)
    else:
        if abs(A[v, v] - lam) > DUP_TOL * scale:
            raise DiagonalNotEigenvalue(v)
        if float(np.min(np.abs(np.asarray(spectrum) - lam))) > DUP_TOL * scale:
            raise DiagonalNotEigenvalue(lam)
    u = (math.cos(theta), -math.sin(theta))
    return householder_run(A, v, lam, u), np.append(spectrum, lam)


def _step_both(ref, v, lam, theta):
    """One step, dup (lam given) or jdup (lam None), through the public
    function and the full-read reference on ref = (matrix, spectrum): both
    must raise the same typed error, or grow the same matrix to 1e-12 of
    its scale.  Returns the outcome and the new state, the public matrix
    with the reference's spectrum."""
    A, spectrum = ref
    if lam is None:
        step = lambda: jdup_realization(A, v, spectrum, theta)
    else:
        step = lambda: dup_realization(A, v, lam, spectrum, theta)
    try:
        want, grown = _full_read_step(A, spectrum, v, lam, theta, lam is None)
    except (BadAngle, DegenerateRow, DiagonalNotEigenvalue) as exc:
        with pytest.raises(type(exc)):
            step()
        return type(exc).__name__, ref
    got = step()
    assert got.shape == want.shape and close_to(got, want, A)
    assert np.array_equal(got, got.T)
    return "grown", (got, grown)


def test_grower_checks_decide_as_a_full_read():
    # random public steps whose gaps sit at, just inside and just outside
    # DUP_TOL times the scales max(1, |a_vv|), max(1, max|A|) and the
    # seed's: every decision matches a full read, and every grown matrix
    # the Householder reference.  The carried spectrum is each diagonal
    # entry nudged by such a gap (the checks trust it), so the spectrum
    # check and the jdup check meet their thresholds too.
    rng = np.random.default_rng(13)
    factors = [0.0, 0.5, 0.999, 1.001, 3.0]
    seen = []
    for _ in range(80):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) * 10.0 ** float(rng.integers(-2, 4))
        A = (A + A.T) / 2
        seed_scales = [1.0, max(1.0, float(np.abs(A).max()))]
        spectrum = np.diag(A) + DUP_TOL * rng.choice(seed_scales, n) * rng.choice(factors, n)
        ref = (A.copy(), spectrum.copy())
        for _ in range(12):
            B = ref[0]
            v = int(rng.integers(len(B)))
            theta = float(rng.choice([math.pi / 4, math.pi / 6, 1.2, 0.0], p=[0.4, 0.25, 0.25, 0.1]))
            if rng.random() < 0.3:
                lam = None
            else:
                scales = seed_scales + [max(1.0, abs(B[v, v])), max(1.0, float(np.abs(B).max()))]
                gap = DUP_TOL * float(rng.choice(scales)) * float(rng.choice(factors))
                lam = float(B[v, v]) + gap * float(rng.choice([-1.0, 1.0]))
            outcome, ref = _step_both(ref, v, lam, theta)
            seen.append(outcome)
    assert set(seen) == {"grown", "BadAngle", "DegenerateRow", "DiagonalNotEigenvalue"}
    assert seen.count("grown") > 100


def test_public_steps_match_the_reference_near_the_ends_of_theta():
    # at theta near 0 and near pi/2 the rotation is nearly the identity or
    # nearly the swap of v and its copy; each step still is the reference
    # to 1e-12 of its scale, and exactly symmetric
    rng = np.random.default_rng(31)
    for theta in (1e-6, math.pi / 2 - 1e-6):
        for _ in range(20):
            n = int(rng.integers(2, 7))  # so a_vv is above lambda_min
            A = rng.normal(size=(n, n)) * 10.0 ** float(rng.integers(-2, 4))
            A = (A + A.T) / 2
            v = int(rng.integers(n))
            spectrum = np.append(eigen_sym(A), A[v, v])
            for lam in (A[v, v], None):
                if lam is None:
                    got = jdup_realization(A, v, spectrum, theta)
                    want = householder_run(A, v, spectrum.min(), (math.cos(theta), -math.sin(theta)))
                else:
                    got = dup_realization(A, v, lam, spectrum, theta)
                    want = householder_run(A, v, lam, (math.cos(theta), -math.sin(theta)))
                assert got.shape == want.shape and close_to(got, want, A), (theta, n, v, lam)
                assert np.array_equal(got, got.T)


def _runs_in_a_buffer(M, runs):
    """M M^T grown by `householder_run` with uniform u, one fresh matrix
    per run with its copies appended, then permuted into creation order,
    each run's copies right after the row they copy and ahead of any an
    earlier run made of it: the matrix `grow_factor` factors."""
    M = np.asarray(M, dtype=float)
    A, order = M @ M.T, list(range(len(M)))
    for v, lam, k in runs:
        n = len(A)
        A = householder_run(A, v, lam, np.full(k + 1, 1 / math.sqrt(k + 1)))
        at = order.index(v) + 1
        order[at:at] = range(n, n + k)
    return A[np.ix_(order, order)]


def _random_runs(rng, n, count):
    """count runs (v, lam, k) on the n rows of the factor: a row may repeat
    or take lam = 0 (a jdup at lambda_min = 0)."""
    return [(int(rng.integers(n)), float(rng.choice([0.0, rng.uniform(0.1, 9.0)])),
             int(rng.integers(1, 5))) for _ in range(count)]


def test_grow_factor_matches_the_householder_reference_run_by_run():
    # F F^T is the matrix the dense reference grows, run by run, permuted
    # into creation order, for runs that repeat a row or take no columns
    rng = np.random.default_rng(23)
    repeats = set()
    for trial in range(200):
        n, c = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        M = rng.normal(size=(n, c))
        runs = _random_runs(rng, n, int(rng.integers(0, 6)))
        F = grow_factor(M, runs)
        want = _runs_in_a_buffer(M, runs)
        assert F.shape[0] == len(want) and close_to(F @ F.T, want, want), (trial, runs)
        assert F.shape[1] == c + sum(k for _, lam, k in runs if lam > 0)
        repeats.add(len({v for v, _, _ in runs}) < len(runs))
    assert repeats == {False, True}


def test_grow_factor_rejects_a_row_outside_the_factor():
    # runs name rows of M; a copy has no index of its own, and a bool or a
    # float is no row.  A run's count k is an int >= 1
    M = np.eye(3)[:, :2]
    for runs in ([(3, 1.0, 1)], [(-1, 1.0, 1)], [(0, 1.0, 2), (3, 1.0, 1)], [(True, 1.0, 1)],
                 [(1.0, 1.0, 1)], [(0, 1.0, 2), (False, 1.0, 1)]):
        with pytest.raises(IndexError):
            grow_factor(M, runs)
    for k in (-1, 0, 1.5, 2.0, True, None):
        with pytest.raises(BadParams):
            grow_factor(M, [(0, 1.0, 1), (1, 1.0, k)])
    assert grow_factor(M, [(np.int64(1), 1.0, np.int64(2))]).shape == (5, 4)
    assert grow_factor(M, [(0, 1.0, 2), (0, 1.0, 1)]).shape == (6, 5)


def _masked_runs(F, runs):
    """The former `gram._runs_at_once`, kept as the reference of its slice
    writes: the same gather, then every Helmert entry written through one
    np.where mask over all rows of the grown factor."""
    n, c = F.shape
    reps, scale = [1] * n, [1.0] * n
    lo, j, lams, shift = [], [], [], 0
    for v, (lam, k) in sorted(runs.items()):
        reps[v], scale[v] = k + 1, 1 / math.sqrt(k + 1)
        if lam > 0:
            lo += [v + shift] * k
            j += range(1, k + 1)
            lams += [lam] * k
        shift += k
    out = np.zeros((n + shift, c + len(j)))
    out[:, :c] = np.repeat(F * np.array(scale)[:, None], reps, axis=0)
    if j:
        j = np.array(j)
        w = np.sqrt(np.array(lams) / (j * (j + 1)))
        p = np.arange(n + shift)[:, None] - lo
        out[:, c:] = np.where(p < j, w, -j * w) * ((p >= 0) & (p <= j))
    return out


def grows_as_masked(monkeypatch, M, runs) -> int:
    """Assert that grow_factor's F is byte-identical to the one it grows
    with the masked writer, and F F^T too; return the batch count.  The
    mask leaves -0.0 (-j w times False) below each Helmert column, so the
    reference is read with 0.0 added, which turns -0.0 into 0.0 and keeps
    every other entry's bytes."""
    F = grow_factor(M, runs)
    batches = []

    def masked(F, runs):
        batches.append(runs)
        return _masked_runs(F, runs)

    with monkeypatch.context() as patched:
        patched.setattr(gramlib, "_runs_at_once", masked)
        want = grow_factor(M, runs)
    assert F.shape == want.shape and F.tobytes() == (want + 0.0).tobytes(), runs
    assert (F @ F.T).tobytes() == (want @ want.T).tobytes(), runs
    return len(batches)


def chain_growths(monkeypatch, plans):
    """The (M, runs) that `run_chain` hands grow_factor for each plan."""
    calls, grow = [], gramlib.grow_factor

    def recording(M, runs):
        calls.append((M, runs))
        return grow(M, runs)

    with monkeypatch.context() as patched:
        patched.setattr(gramlib, "grow_factor", recording)
        for plan in plans:
            run_chain(plan)
    return calls


def test_grow_factor_writes_the_masked_factor_on_random_rows(monkeypatch):
    # seeded rows up to n = 400, three in four bits 0, so most chains grow a
    # paired-column seed by long runs
    rows = []
    for n in (16, 64, 128, 256, 400):
        rng = random.Random(n)
        for _ in range(3 if n <= 128 else 1):
            rows.append("0" + "".join("1" if rng.random() < 0.25 else "0" for _ in range(n - 2)) + "1")
    plans = [_chain_plan(graph_from_text(text).block_form) for text in rows]
    growths = chain_growths(monkeypatch, plans)
    assert len(growths) == len(rows)
    for M, runs in growths:
        assert grows_as_masked(monkeypatch, M, runs) >= 1
    assert max(len(runs) for _, runs in growths) > 50


def test_grow_factor_gives_a_run_at_lam_le_0_no_column(monkeypatch):
    # a run at lam <= 0 adds rows and no column: its copies are joined
    M = np.random.default_rng(5).normal(size=(4, 3))
    for runs, cols in (([(0, 0.0, 2), (2, -1.0, 3)], 3), ([(0, 0.0, 2), (1, 2.0, 2)], 5),
                       ([(3, -0.5, 1), (3, 0.0, 2)], 3)):
        F = grow_factor(M, runs)
        assert F.shape == (4 + sum(k for _, _, k in runs), cols), runs
        grows_as_masked(monkeypatch, M, runs)


def test_grow_factor_writes_the_masked_factor_on_a_two_batch_plan(monkeypatch):
    # the leading-merge plan of a `long`-shaped row dups vertex 0 of its
    # paired-column seed and then joins it, so vertex 0 opens a second batch
    plan = _chain_plan(graph_from_text("0100010001100011000111000111").block_form)
    (v, lam, _), (w, joined, _) = plan.runs[0], plan.runs[-1]
    assert lam is not None and joined is None and v == w == 0
    ((M, runs),) = chain_growths(monkeypatch, [plan])
    assert grows_as_masked(monkeypatch, M, runs) == 2


def _section12_factor_as_before(s, m):
    """section12_factor(s, m) as it was built before its one-pass builder:
    D's patched entries set by fancy indexing, the tails by np.sqrt."""
    left, right = gramlib._pair_starts(s, m)
    D = np.tri(s, s + 1, 1)
    before = np.arange(m - 1)
    D[before, before + 1] = 0.0
    D[[a + 1 for a in left] + list(right), [a + 1 for a in (*left, *right)]] = 2.0
    _, dup_slots = section12_form(s, m)
    bits = gramlib._section12_bits(s, m)
    M = gramlib._gate_factor(bits, D, np.sqrt([f2 for _, f2 in dup_slots]))
    return M, cluster_spectrum(np.concatenate((eigen_sym(M.T @ M), np.zeros(s)))).distinct


def test_section12_factor_builds_the_seed_as_before():
    # the same M and expected spectrum, to the byte, for every m and s <= 57
    def spectrum_bytes(spec):
        return np.array([v for v, _ in spec]).tobytes(), [mult for _, mult in spec]

    for s in range(2, 58):
        for m in range(1, s + 1):
            M, spec = _section12_factor_as_before(s, m)
            f = section12_factor(s, m)
            assert f.M.tobytes() == M.tobytes() and f.M.shape == M.shape, (s, m)
            assert spectrum_bytes(f.expected_spectrum) == spectrum_bytes(spec), (s, m)


def _every_chain_seed():
    """Every seed the planner or the transfer builds, within its ranges."""
    yield from _gate_form_seeds()
    yield from (construct_library("prop_a15a19", base=base) for base in A15A19_BASES)


def test_chain_seeds_have_what_the_grown_factor_assumes():
    # more rows than columns, so lambda_min is 0, the value a jdup run
    # takes no column for; and every dup slot's lam is its row's squared
    # norm, so a dup run's copies are unjoined
    ids = set()
    for f in _every_chain_seed():
        M, A = f.M, gram(f)
        label = (f.construction_id, f.params)
        assert M.shape[0] > M.shape[1], label
        assert min(value for value, _ in f.expected_spectrum) == 0.0, label
        for v, lam in f.dup_slots:
            assert lam >= 0 and abs(M[v] @ M[v] - lam) <= DUP_TOL * max(1.0, float(np.abs(A).max())), label
        ids.add(f.construction_id)
    assert ids == {"star", "thm00", "ub_case1", *ALL_IDS_NO_PARAMS}


def test_grower_rejects_values_that_are_not_finite():
    # a NaN or an infinity in the seed or the carried spectrum is bad input
    # to every step, and a dup's lam that is not finite is not an eigenvalue
    A = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    spectrum = eigen_sym(A)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DiagonalNotEigenvalue):
            dup_realization(A, 2, bad, spectrum)
        for seed, carried in ((A, np.append(spectrum[:-1], bad)), (np.where(A == 3.0, bad, A), spectrum)):
            with pytest.raises(NoConvergence):
                jdup_realization(seed, 0, carried)
            with pytest.raises(NoConvergence):
                dup_realization(seed, 2, 1.0, carried)


def test_grower_rejects_a_vertex_outside_the_active_block():
    for v in (-1, 2, 3):
        with pytest.raises(IndexError):
            dup_realization(np.eye(2), v, 1.0, [1.0, 1.0])
        with pytest.raises(IndexError):
            jdup_realization(np.eye(2), v, [1.0, 1.0])


def test_grower_rejects_a_vertex_that_is_not_an_int():
    # a bool indexes rows as a mask and a float fails inside numpy: both
    # are IndexError, as for a vertex out of range; a numpy int is a vertex
    for v in (True, False, 1.0, np.float64(0.0), "0", None):
        with pytest.raises(IndexError):
            dup_realization(np.eye(2), v, 1.0, [1.0, 1.0])
        with pytest.raises(IndexError):
            jdup_realization(np.diag([1.0, 2.0]), v, [1.0, 2.0])
    assert dup_realization(np.eye(2), np.int64(1), 1.0, [1.0, 1.0]).shape == (3, 3)


def test_grower_rejects_an_empty_spectrum():
    # a step needs the spectrum A is known to have; an empty one holds no
    # lam and no lambda_min
    for spectrum in ([], np.zeros(0), ()):
        with pytest.raises(DimensionMismatch):
            dup_realization(np.eye(2), 0, 1.0, spectrum)
        with pytest.raises(DimensionMismatch):
            jdup_realization(np.diag([1.0, 2.0]), 1, spectrum)


def test_jdup_submatrix_recovery():
    # deleting the copy recovers A up to the documented cos-theta rescaling
    rng = np.random.default_rng(5)
    theta = math.pi / 4
    for _ in range(10):
        n = 5
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        v = int(rng.integers(n))
        lam = eigen_sym(A)[0]
        if abs(A[v, v] - lam) < 1e-6:
            continue
        C = jdup_realization(A, v, eigen_sym(A), theta=theta)
        D = C[:n, :n]
        mask = np.ones(n, dtype=bool)
        mask[v] = False
        assert np.allclose(D[np.ix_(mask, mask)], A[np.ix_(mask, mask)], atol=1e-12)
        assert np.allclose(D[v, mask], math.cos(theta) * A[v, mask], atol=1e-12)
        assert abs(D[v, v] - (math.cos(theta) ** 2 * A[v, v]
                              + math.sin(theta) ** 2 * lam)) < 1e-12


def test_graph_level_duplication_agrees_with_matrix_level():
    f = construct_library("thm05")
    G = f.target
    A = gram(f)
    C = dup_realization(A, 0, 7.0, eigen_sym(A))
    bits, _ = creation_order_of(pattern_matrix(C))
    assert bits == dup_graph(G, 0).creation.bits
    C = jdup_realization(A, 1, eigen_sym(A))
    bits, _ = creation_order_of(pattern_matrix(C))
    assert bits == jdup_graph(G, 1).creation.bits


# ---------------------------------------------------------------- certificates


def test_orthogonal_certificate_prop37():
    G = graph_from_text("00101011")
    A = orthogonal_certificate(PROP37_BLOCK, G)
    assert in_pattern(A, G) and q_of_matrix(A) == 2


def test_orthogonal_certificate_prop40():
    G = graph_from_text("00011011")
    A = orthogonal_certificate(PROP40_BLOCK, G)
    assert in_pattern(A, G) and q_of_matrix(A) == 2


def test_orthogonal_certificate_two_eigenvalues_psd():
    G = graph_from_text("00011011")
    A = orthogonal_certificate(PROP40_BLOCK, G)
    w = eigen_sym(A)
    assert w[0] >= -1e-9
    k = len(G.isolated)
    assert assert_spectrum(A, [(0.0, G.n - k), (w[-1], k)])


def test_orthogonal_certificate_rejects_bad_block():
    G = graph_from_text("001")  # one dominating row, two isolated columns
    with pytest.raises(BadParams):
        orthogonal_certificate(np.array([[1.0]]), G)  # wrong shape
    with pytest.raises(BadParams):
        orthogonal_certificate(np.array([[1.0, 1.0]]), G)  # cannot be orthogonal


def _factor_by_rows(B, G):
    """The column-by-column repair and row-by-row placement, kept as the
    reference for _certificate_factor: unit columns, column 0 weighted to
    sqrt(2) at its smallest entry, block rows on the dominating vertices,
    one equalizing tail per isolated vertex."""
    B = np.asarray(B, dtype=float)
    BD = np.zeros_like(B)
    for c, norm in enumerate(np.linalg.norm(B, axis=0)):
        BD[:, c] = B[:, c] / norm
    BD[:, 0] *= math.sqrt(2) / np.abs(BD[:, 0]).min()
    norms = (BD * BD).sum(axis=0)
    y = np.sqrt(float(norms.max()) + 1.0 - norms)
    M = np.zeros((G.n, len(G.isolated)))
    for r, i in enumerate(G.dominating):
        M[i] = BD[r]
    for c, i in enumerate(G.isolated):
        M[i, c] = y[c]
    return M


def test_certificate_factor_matches_the_row_loop():
    # on every gate-feasible connected sequence with n <= 12 the
    # index-array placement gives the row loop's M bit for bit
    from threshq.bounds import ortho_gate
    from threshq.gram import _certificate_factor
    from threshq.orthosearch import Feasible
    from threshq.sequences import enumerate_connected

    seen = 0
    for seq in (seq for n in range(2, 13) for seq in enumerate_connected(n)):
        G = graph_from_text(seq.text)
        out = ortho_gate(G)
        if isinstance(out, Feasible):
            M = _certificate_factor(out.matrix, G)
            assert M.shape == (G.n, len(G.isolated)), seq.text
            assert np.array_equal(M, _factor_by_rows(out.matrix, G)), seq.text
            seen += 1
    assert seen > 400, seen
    # the block is still checked before it is placed: a zero inside the
    # staircase, an entry outside it, a lost orthogonality or a wrong shape
    # is refused
    G = graph_from_text("001011")
    B = ortho_gate(G).matrix
    assert not B[0, 2] and B[2, 0]
    zero_in, entry_out, skew = B.copy(), B.copy(), B.copy()
    zero_in[2, 0] = 0.0
    entry_out[0, 2] = 0.5
    skew[:, 1] += 0.1 * skew[:, 0]
    for bad in (zero_in, entry_out, skew, np.vstack([B, B[:1]]), B[:, :2]):
        with pytest.raises(BadParams):
            orthogonal_certificate(bad, G)
    assert q_of_matrix(orthogonal_certificate(B, G)) == 2


def test_repair_scales_fixes_pairs_blind_to_graded_scales():
    from threshq.gram import _repair_scales

    # rows 0 and 1 of this Hadamard block have products c = (1, -1, -1, 1)/4:
    # sum c_j = sum j c_j = 0, so graded scales d_j^2 = 1 + a j/k never
    # repair them, while scaling the full column 0 does
    H = np.array([[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]]) / 2.0
    c = H[0] * H[1]
    assert c.sum() == 0 and (np.arange(4) * c).sum() == 0
    BD = _repair_scales(H)
    assert np.array_equal(BD[:, 1:], H[:, 1:]) and np.all(np.abs(BD @ BD.T) > 1e-6)
    A = orthogonal_certificate(H, graph_from_text("00001111"))
    assert in_pattern(A, graph_from_text("00001111")) and q_of_matrix(A) == 2
