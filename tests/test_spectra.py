import math

import numpy as np
import pytest

from threshq.gram import construct_library, gram
from threshq.orthosearch import ssp_check
from threshq.sequences import graph_from_text
from threshq.spectra import (
    DimensionMismatch,
    NoConvergence,
    assert_spectrum,
    check_symmetric,
    cluster_spectrum,
    default_cluster_tol,
    eigen_sym,
    eigen_sym_vectors,
    in_pattern,
    load_factor,
    load_matrix,
    pattern_matrix,
    q_of_matrix,
    q_of_spectrum,
    save_factor,
    save_matrix,
    spectra_agree,
)

rng = np.random.default_rng(20240611)


def rand_sym(n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return (A + A.T) / 2


# ---------------------------------------------------------------- eigen_sym


def test_identity_spectrum():
    assert np.allclose(eigen_sym(np.eye(4)), np.ones(4))


def test_star_adjacency_spectrum():
    n = 9
    A = np.zeros((n, n))
    A[n - 1, : n - 1] = 1.0
    A[: n - 1, n - 1] = 1.0
    w = eigen_sym(A)
    expect = [-math.sqrt(8)] + [0.0] * 7 + [math.sqrt(8)]
    assert np.allclose(w, expect, atol=1e-10)


def test_thm10_printed_decimals():
    A = gram(construct_library("thm10"))
    w = eigen_sym(A)
    assert np.allclose(sorted(w), [0, 0, 1, 1.5857, 4.4142], atol=1e-3)


def test_eigen_rejects_asymmetric():
    for bad in (np.array([[0.0, 1.0], [0.5, 0.0]]), np.triu(np.ones((4, 4))), np.ones((2, 3))):
        for check in (eigen_sym, ssp_check):
            with pytest.raises(DimensionMismatch):
                check(bad)


def test_eigen_rejects_nonfinite():
    A = np.full((3, 3), np.nan)
    with pytest.raises(NoConvergence):
        eigen_sym(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symmetry_check_rejects_an_asymmetric_non_finite_entry(bad):
    # the residual NaN - 0 is NaN and inf - 0 is inf, which a plain
    # "residual > tol" test lets through; every entry point rejects both
    A = np.array([[1.0, bad], [0.0, 1.0]])
    for check in (check_symmetric, eigen_sym, eigen_sym_vectors, ssp_check,
                  lambda A: in_pattern(A, graph_from_text("01"))):
        with pytest.raises(NoConvergence):
            check(A)


def test_empty_matrix_has_no_eigenvalues():
    # a 0 x 0 matrix is square and symmetric: no eigenvalues, q = 0, as for
    # an empty spectrum
    E = np.zeros((0, 0))
    check_symmetric(E)
    assert eigen_sym(E).shape == (0,)
    w, V = eigen_sym_vectors(E)
    assert w.shape == (0,) and V.shape == (0, 0)
    assert q_of_matrix(E) == q_of_spectrum([]) == 0
    # and no off-diagonal support, in the pattern of the empty graph, and
    # trivially SSP; two empty spectra agree
    assert pattern_matrix(E).shape == (0, 0)
    assert in_pattern(E, np.zeros((0, 0), dtype=bool))
    assert ssp_check(E).is_ssp
    assert spectra_agree([], [])


@pytest.mark.parametrize("shape", [(0, 1), (1, 0), (0, 3)])
def test_empty_non_square_matrix_is_rejected(shape):
    for check in (check_symmetric, eigen_sym, eigen_sym_vectors, q_of_matrix, ssp_check):
        with pytest.raises(DimensionMismatch):
            check(np.zeros(shape))


@pytest.mark.parametrize("n", [2, 5, 10, 24])
def test_eigensolver_contract(n):
    # residual and orthogonality bounds stated by the interface
    A = rand_sym(n, scale=3.0)
    w, V = eigen_sym_vectors(A)
    norm = np.linalg.norm(A, 2)
    assert np.linalg.norm(A @ V - V * w, np.inf) <= 1e-10 * (1 + norm) * n
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-10
    # eigenvalues ascending
    assert np.all(np.diff(w) >= 0)


def test_trace_identity_random():
    for n in (3, 6, 12):
        A = rand_sym(n, scale=5.0)
        w = eigen_sym(A)
        assert abs(w.sum() - np.trace(A)) <= 1e-9 * (1 + np.abs(A).max())


def test_interlacing_random():
    # eigenvalues of any principal submatrix interlace those of the matrix
    for n in range(3, 11):
        A = rand_sym(n)
        w = eigen_sym(A)
        for i in range(n):
            keep = [j for j in range(n) if j != i]
            ws = eigen_sym(A[np.ix_(keep, keep)])
            assert np.all(w[:-1] <= ws + 1e-10) and np.all(ws <= w[1:] + 1e-10)


def test_gram_cogram_nonzero_spectra_agree():
    for r, c in [(5, 2), (7, 4), (6, 6), (3, 8)]:
        M = rng.normal(size=(r, c))
        wg = eigen_sym(M @ M.T)
        wc = eigen_sym(M.T @ M)
        nz_g = np.sort(wg[np.abs(wg) > 1e-8])
        nz_c = np.sort(wc[np.abs(wc) > 1e-8])
        assert np.allclose(nz_g, nz_c, atol=1e-8)


# ---------------------------------------------------------------- clustering


def test_cluster_two_values():
    s = cluster_spectrum(np.array([0, 0, 0, 7, 7, 7.0]), tol=1e-6)
    assert s.q == 2 and s.distinct == ((0.0, 3), (7.0, 3))


def test_cluster_subtolerance_merge():
    s = cluster_spectrum(np.array([1.0, 1.0 + 1e-12, 5.0]), tol=1e-6)
    assert s.q == 2 and s.multiplicities == (2, 1)


def test_cluster_accepts_any_order():
    s = cluster_spectrum(np.array([13.0, 13.0, 7.0, 0.0, 0.0, 0.0]))
    assert s.q == 3 and s.values == (0.0, 7.0, 13.0) and s.multiplicities == (3, 1, 2)


def test_cluster_idempotent():
    s = cluster_spectrum(np.array([0.0, 0.0, 3.0, 3.0, 9.0]))
    again = cluster_spectrum(np.array(s.values), tol=s.tol)
    assert again.values == s.values


def test_default_tol_scales():
    assert default_cluster_tol(np.array([0.0, 1.0])) == pytest.approx(1e-6)
    assert default_cluster_tol(np.array([0.0, 2e6])) == pytest.approx(2.0)


def _cluster_by_loop(eigs, tol=None):
    """The greedy gap rule as a loop over eigenvalues: the reference the
    vectorized cluster_spectrum must reproduce."""
    eigs = np.sort(np.asarray(eigs, dtype=float).ravel())
    if eigs.size == 0:
        return (), 0.0
    if tol is None:
        tol = default_cluster_tol(eigs)
    groups = [[float(eigs[0])]]
    for x in eigs[1:]:
        if float(x) - groups[-1][-1] > tol:
            groups.append([float(x)])
        else:
            groups[-1].append(float(x))
    return tuple((float(np.mean(g)), len(g)) for g in groups), tol


def _same_clusters(eigs, tol=None):
    want, want_tol = _cluster_by_loop(eigs, tol)
    got = cluster_spectrum(eigs, tol)
    # the groups and their sizes agree exactly; the means agree to rounding,
    # since np.mean sums a group pairwise and np.add.reduceat in order; the
    # gap count is the number of groups
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    return (got.tol == want_tol and got.multiplicities == tuple(m for _, m in want)
            and all(abs(a - b) <= 1e-14 * scale for a, (b, _) in zip(got.values, want))
            and q_of_spectrum(eigs, tol) == len(want))


def test_cluster_matches_the_loop_on_random_clustered_spectra():
    for _ in range(500):
        k = int(rng.integers(1, 12))
        centers = rng.normal(0.0, 10.0, k)
        mults = rng.integers(1, 30, k)
        noise = 10.0 ** rng.uniform(-16, -3)  # within, near and past the tolerance
        eigs = np.concatenate([c + rng.normal(0.0, noise, m) for c, m in zip(centers, mults)])
        assert _same_clusters(rng.permutation(eigs))
        assert _same_clusters(eigs, tol=float(10.0 ** rng.uniform(-9, -1)))


def test_cluster_gap_of_exactly_tol_does_not_split():
    eigs = np.array([0.0, 0.25, 0.5, 2.0, 2.25, np.nextafter(2.5, 3.0)])  # last gap: tol + 1 ulp
    assert _same_clusters(eigs, tol=0.25)
    assert cluster_spectrum(eigs, tol=0.25).multiplicities == (3, 2, 1)
    steps = np.arange(40) * 2.0 ** -20  # dyadic, so every gap is exactly 2^-20
    assert _same_clusters(steps, tol=2.0 ** -20)
    assert cluster_spectrum(steps, tol=2.0 ** -20).q == 1
    assert cluster_spectrum(steps, tol=2.0 ** -21).q == 40
    assert _same_clusters(steps, tol=2.0 ** -21)
    assert q_of_spectrum(steps, tol=2.0 ** -20) == 1 and q_of_spectrum(steps, tol=2.0 ** -21) == 40


def test_cluster_of_an_empty_spectrum():
    for empty in (np.array([]), [], np.zeros((0, 3))):
        assert _same_clusters(empty) and _same_clusters(empty, tol=1.0)
        assert cluster_spectrum(empty).q == q_of_spectrum(empty) == 0
    assert q_of_spectrum([4.0]) == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_bad_tolerance_is_rejected(tol):
    # a NaN or infinite tolerance would put 2 -+ sqrt(2) in one group
    eigs = np.array([2 - math.sqrt(2), 2 + math.sqrt(2)])
    with pytest.raises(ValueError, match="tolerance"):
        q_of_spectrum(eigs, tol)
    with pytest.raises(ValueError, match="tolerance"):
        cluster_spectrum(eigs, tol)
    assert q_of_spectrum(eigs, 0.0) == cluster_spectrum(eigs, 0.0).q == 2


@pytest.mark.parametrize("eigs", [
    [0.0, math.nan],                  # a NaN gap is never above tol: one group
    [math.inf, 0.0, 5.0],             # the default tol grows with the spread to inf
    [-math.inf, 1.0],
    [math.nan, -math.inf, 3.0, math.inf],
    [math.nan],
])
@pytest.mark.parametrize("tol", [None, 0.5])
def test_non_finite_eigenvalues_are_rejected(eigs, tol):
    with pytest.raises(ValueError, match="finite"):
        q_of_spectrum(eigs, tol)
    with pytest.raises(ValueError, match="finite"):
        cluster_spectrum(eigs, tol)


# ---------------------------------------------------------------- patterns


def test_zero_matrix_not_k2():
    rep = in_pattern(np.zeros((2, 2)), graph_from_text("01"))
    assert not rep and rep.violations == ((0, 1, "edge entry is zero"),)


def test_in_pattern_matches_entrywise_loop():
    # reference: the pairwise loop in row-major order; indices stay Python
    # ints so a report serializes to JSON
    g = graph_from_text("0010110101")
    for trial in range(40):
        # random supports, then matrices in S(G), bare or with one entry
        # zeroed, which reach the no-mismatch return too
        keep = rng.random((g.n, g.n)) < 0.6 if trial < 20 else g.adjacency | np.eye(g.n, dtype=bool)
        A = rand_sym(g.n) * keep
        A = (A + A.T) / 2
        if trial % 2:
            i, j = rng.integers(g.n, size=2)
            A[i, j] = A[j, i] = 0.0
        P = np.abs(A) > 1e-8 * max(1.0, float(np.abs(A).max()))
        want = []
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.adjacency[i, j] and not P[i, j]:
                    want.append((i, j, "edge entry is zero"))
                elif not g.adjacency[i, j] and P[i, j]:
                    want.append((i, j, "non-edge entry is nonzero"))
        rep = in_pattern(A, g)
        assert rep.violations == tuple(want) and bool(rep) == (not want)
        assert all(type(i) is int and type(j) is int for i, j, _ in rep.violations)


def test_prop_a15a19_pattern_entrywise():
    # oracle: check M M^T against the graph entry by entry
    f = construct_library("prop_a15a19")
    A = f.M @ f.M.T
    adj = f.target
    n = A.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                assert abs(A[i, j]) > 1e-8
            else:
                assert abs(A[i, j]) <= 1e-8
    assert in_pattern(A, f.target)


def test_in_pattern_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        in_pattern(np.zeros((3, 3)), graph_from_text("01"))


# ---------------------------------------------------------------- q values


def test_q_of_thm00_t3():
    A = gram(construct_library("thm00", t=3))
    assert q_of_matrix(A) == 3
    assert assert_spectrum(A, [(0.0, 3), (7.0, 2), (16.0, 1)])


def test_q_of_scaled_identity():
    assert q_of_matrix(2.5 * np.eye(6)) == 1


# ---------------------------------------------------------------- file io


def test_matrix_round_trip(tmp_path):
    A = rand_sym(5)
    p = tmp_path / "a.mat"
    save_matrix(p, A)
    B = load_matrix(p)
    assert np.allclose(A, B, atol=0)


def test_matrix_symmetry_enforced(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("2\n0 1\n0.5 0\n")
    with pytest.raises(DimensionMismatch):
        load_matrix(p)


def test_factor_round_trip(tmp_path):
    f = construct_library("thm05")
    p = tmp_path / "f.mat"
    save_factor(p, f.M, f.construction_id)
    assert p.read_text().splitlines()[0] == "# construction: thm05"
    assert np.array_equal(load_factor(p), f.M)
