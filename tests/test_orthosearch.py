import numpy as np
import pytest

from threshq.gram import CONSTRUCTIONS, construct_library, dup_realization, gram
from threshq.orthosearch import (
    _ENTRY_FLOOR,
    _MIX_STEPS,
    Feasible,
    Infeasible,
    SupportPattern,
    decide_column_orthogonal,
    distinct_indices,
    low_q_search,
    ssp_check,
    verify_feasible,
    verify_infeasible,
)
from threshq.orthosearch import _column_groups, _complete_orthogonal, _ssp_system
from threshq.sequences import block_form, enumerate_connected, graph_from_text
from threshq.spectra import cluster_spectrum, eigen_sym, in_pattern, pattern_matrix

rng = np.random.default_rng(7)


def gate(text):
    return decide_column_orthogonal(SupportPattern.from_graph(graph_from_text(text)))


def counting_criterion(text):
    """q = 2 by column counting, from the block form: counting from the
    last block, isolated columns never outnumber the dominating rows they
    live in, and only the first block may fill them exactly."""
    bf = block_form(graph_from_text(text).creation)
    cols = rows = 0
    for i in reversed(range(bf.s)):
        cols += bf.ks[i]
        rows += bf.ts[i]
        if cols > rows or (i > 0 and cols == rows):
            return False
    return True


def check_gate_is_total(n):
    # Feasible exactly when the counting criterion holds, and every answer
    # carries a witness that re-verifies
    for seq in enumerate_connected(n):
        P = SupportPattern.from_graph(graph_from_text(seq.text))
        out = decide_column_orthogonal(P)
        if isinstance(out, Feasible):
            assert verify_feasible(P, out.matrix), seq.text
        else:
            assert isinstance(out, Infeasible) and verify_infeasible(P, out), seq.text
        assert isinstance(out, Feasible) == counting_criterion(seq.text), seq.text


# ---------------------------------------------------------------- the gate


def test_support_pattern_shares_the_graphs_staircase():
    # the staircase is the dominating-by-isolated block of the adjacency,
    # built once per graph and read-only, so the gate and the q = 2
    # completion of one graph share it
    for n in range(2, 9):
        for seq in enumerate_connected(n):
            G = graph_from_text(seq.text)
            dom = [i for i, b in enumerate(seq.bits) if b]
            iso = [i for i, b in enumerate(seq.bits) if not b]
            assert np.array_equal(G.staircase, G.adjacency[np.ix_(dom, iso)]), seq.text
            assert SupportPattern.from_graph(G).support is G.staircase is G.staircase
            assert not G.staircase.flags.writeable


def test_full_support_k_le_t_feasible():
    # complete split graphs with enough dominating vertices
    for text in ("0011", "000111", "00001111"):
        out = gate(text)
        assert isinstance(out, Feasible)
        P = SupportPattern.from_graph(graph_from_text(text))
        assert verify_feasible(P, out.matrix)


def test_two_rows_three_full_columns_infeasible():
    # (0,1,0,0,1,1): three isolated columns meeting in only two final rows
    out = gate("010011")
    assert isinstance(out, Infeasible)
    P = SupportPattern.from_graph(graph_from_text("010011"))
    assert verify_infeasible(P, out)


def test_prop38_staircase_feasible():
    out = gate("00100111")
    assert isinstance(out, Feasible)


def test_pendant_tail_infeasible():
    # trailing run of ones of length one forces a zero in a wider column
    out = gate("010101")
    assert isinstance(out, Infeasible)
    P = SupportPattern.from_graph(graph_from_text("010101"))
    assert verify_infeasible(P, out)


@pytest.mark.parametrize("n", range(2, 9))
def test_gate_outputs_always_verify(n):
    check_gate_is_total(n)


def test_support_pattern_from_bits_matches_definition():
    for seq in (seq for n in range(2, 11) for seq in enumerate_connected(n)):
        G = graph_from_text(seq.text)
        P = SupportPattern.from_graph(G)
        S = np.array([[d > z for z in G.isolated] for d in G.dominating], dtype=bool)
        assert np.array_equal(P.support, S.reshape(P.support.shape)), seq.text
        # a column starts after the dominating vertices added before its vertex
        assert P.suffix_starts() == [sum(d < z for d in G.dominating) for z in G.isolated], seq.text


def _suffix_starts_by_column(S):
    """The column-by-column reading of the starts, kept as the reference."""
    starts = []
    for j in range(S.shape[1]):
        col = S[:, j]
        a = int(np.argmax(col))
        if not col[a] or not col[a:].all() or col[:a].any():
            raise ValueError("support is not a nested suffix staircase")
        starts.append(a)
    return starts


def _starts_or_error(fn, S):
    try:
        return fn(S)
    except ValueError:
        return ValueError


def test_staircase_structure_enforced():
    S = np.array([[True, False], [False, True]])
    with pytest.raises(ValueError):
        SupportPattern(S).suffix_starts()
    with pytest.raises(ValueError):
        SupportPattern(np.zeros((0, 2), dtype=bool)).suffix_starts()
    # random boolean supports, dense and sparse, and random staircases with
    # some entries flipped: the vectorized reading agrees with the
    # column-by-column one, starts and errors alike (all-False columns too)
    gen = np.random.default_rng(11)
    outcomes = set()
    for _ in range(3000):
        rows, cols = int(gen.integers(1, 7)), int(gen.integers(0, 7))
        if gen.random() < 0.5:
            S = gen.random((rows, cols)) < gen.choice([0.2, 0.5, 0.8])
        else:
            S = np.arange(rows)[:, None] >= gen.integers(0, rows + 1, cols)
            if cols and gen.random() < 0.5:
                S[gen.integers(rows), gen.integers(cols)] ^= True
        want = _starts_or_error(_suffix_starts_by_column, S)
        assert _starts_or_error(lambda S: SupportPattern(S).suffix_starts(), S) == want, S
        outcomes.add(want is ValueError)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", range(9, 17))
def test_gate_completions_scale_to_larger_orders(n):
    check_gate_is_total(n)


def _helmert(W, m):
    """Unit reversed Helmert vector h_m of R^W: all ones for m = 1,
    otherwise -(m-1) on row W-m and 1 on the m-1 rows below it."""
    h = np.ones(W)
    if m > 1:
        h[: W - m] = 0.0
        h[W - m] = 1.0 - m
    return h / np.linalg.norm(h)


def _mix(H, m):
    """H's columns mixed by the reflection with u = (1..c) + a, for the
    first a that clears the floor on the last m rows, else the best a;
    returns the mixed block and its a."""
    best, best_low, best_a = H, -1.0, 0
    for a in range(1, _MIX_STEPS + 1):
        u = np.arange(1.0, H.shape[1] + 1) + a
        V = H - np.outer(H @ u, 2 * u / (u @ u))
        low = float(np.abs(V[-m:]).min())
        if low > best_low:
            best, best_low, best_a = V, low, a
        if low > _ENTRY_FLOOR:
            break
    return best, best_a


def _complete_orthogonal_by_groups(groups, T):
    """The group-by-group completion (one Helmert stack and one _mix per
    group), kept as the reference; returns B and the a chosen per group."""
    W = groups[-1][0] if groups else 0
    B = np.zeros((T, sum(len(cols) for _, cols in groups)))
    used, chosen = set(), []
    for m, cols in groups:
        lowest = 1 if m == W else 2
        picks = [m] + [i for i in range(m - 1, lowest - 1, -1) if i not in used][: len(cols) - 1]
        used.update(picks)
        H = np.stack([_helmert(W, i) for i in picks], axis=1)
        B[T - W:, cols], a = _mix(H, m)
        chosen.append(a)
    return B, chosen


def _feasible_patterns():
    """Every gate-feasible connected sequence with n <= 13, seeded random
    feasible ones with n = 16..256, and the large equal-support groups
    0^32 1^32 and 0^64 1^64, whose mix falls back to the best a."""
    texts = [seq.text for n in range(2, 14) for seq in enumerate_connected(n)]
    gen = np.random.default_rng(15)
    for n in (16, 24, 32, 48, 64, 96, 128, 192, 256):
        for p_one in (0.6, 0.7, 0.8):
            texts += ["0" + "".join(np.where(gen.random(n - 2) < p_one, "1", "0")) + "1"
                      for _ in range(6)]
    texts += ["0" * 32 + "1" * 32, "0" * 64 + "1" * 64]
    for text in texts:
        P = SupportPattern.from_graph(graph_from_text(text))
        if isinstance(decide_column_orthogonal(P), Feasible):
            yield text, P


def test_completion_matches_the_group_loop():
    # the block-diagonal completion picks the same a per group as the
    # group-by-group loop and agrees with it entry by entry
    seen, advanced, together, lows = 0, 0, 0, {}
    for text, P in _feasible_patterns():
        groups = _column_groups(P)
        want, want_a = _complete_orthogonal_by_groups(groups, P.rows)
        B, chosen = _complete_orthogonal(groups, P.rows)
        assert np.array_equal(np.abs(B) > 1e-12, P.support), text
        assert verify_feasible(P, B), text
        assert chosen.tolist() == want_a, text
        assert np.abs(B - want).max(initial=0.0) <= 1e-12, text
        assert np.array_equal(decide_column_orthogonal(P).matrix, B), text
        seen += 1
        advanced += max(want_a) > 1
        together += sum(a > 1 for a in want_a) > 1
        lows[text] = float(np.abs(B[P.support]).min())
    # the a-search runs on more than 20 inputs, some with several groups
    # pending at once
    assert seen > 1000 and advanced > 20 and together > 2, (seen, advanced, together)
    # the mix floor at the large equal-support groups stays where it was
    assert round(lows["0" * 32 + "1" * 32], 5) == 6.9e-4
    assert round(lows["0" * 64 + "1" * 64], 5) == 1.2e-4


def _verify_infeasible_by_pairs(P, w):
    """The column-pair loop, kept as the reference for verify_infeasible."""
    if not (distinct_indices(w.columns, P.cols) and distinct_indices(w.rows, P.rows)
            and len(w.columns) > len(w.rows)):
        return False
    S = P.support
    rows = set(w.rows)
    cols = list(w.columns)
    for a in range(len(cols)):
        if not any(S[r, cols[a]] for r in rows):
            return False
        for b in range(a + 1, len(cols)):
            overlap = np.flatnonzero(S[:, cols[a]] & S[:, cols[b]])
            if any(r not in rows for r in overlap):
                return False
    return True


def _tampered(P, w, gen):
    """The gate's witness with a row dropped, a column added, or no rows;
    then random column and row subsets, larger and smaller than each other."""
    if w is not None:
        for i in range(len(w.rows)):
            yield Infeasible(w.columns, w.rows[:i] + w.rows[i + 1:])
        for j in sorted(set(range(P.cols)) - set(w.columns)):
            yield Infeasible(w.columns + (j,), w.rows)
        yield Infeasible(w.columns, ())
    for _ in range(6):
        c = int(gen.integers(0, P.cols + 1))
        r = int(gen.integers(0, min(c, P.rows) + 1))
        yield Infeasible(tuple(gen.permutation(P.cols)[:c].tolist()),
                         tuple(gen.permutation(P.rows)[:r].tolist()))


def test_witness_check_matches_the_pair_loop():
    # on every connected sequence with n <= 12: the gate's own witness and
    # tampered ones decide as the column-pair loop decides
    gen = np.random.default_rng(14)
    outcomes = {True: 0, False: 0}
    for seq in (seq for n in range(2, 13) for seq in enumerate_connected(n)):
        P = SupportPattern.from_graph(graph_from_text(seq.text))
        out = decide_column_orthogonal(P)
        w = out if isinstance(out, Infeasible) else None
        for cand in ([w] if w else []) + list(_tampered(P, w, gen)):
            want = _verify_infeasible_by_pairs(P, cand)
            assert verify_infeasible(P, cand) is want, (seq.text, cand)
            outcomes[want] += 1
    assert min(outcomes.values()) > 1000, outcomes


# ---------------------------------------------------------------- ssp


def _reference_ssp_system(A):
    """The SSP system one unknown at a time: column (i, j) holds [A, X] for
    X = E_ij + E_ji, read at every (a, b) with a < b."""
    n = len(A)
    P = pattern_matrix(A)
    unknowns = [(i, j) for i in range(n) for j in range(i + 1, n) if not P[i, j]]
    eqs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    K = np.zeros((len(eqs), len(unknowns)))
    for u, (i, j) in enumerate(unknowns):
        X = np.zeros((n, n))
        X[i, j] = X[j, i] = 1.0
        C = A @ X - X @ A
        K[:, u] = [C[a, b] for a, b in eqs]
    return K, unknowns


def _catalog_grams():
    params = {"thm00": [{"t": t} for t in range(2, 6)], "star": [{"k": k} for k in range(1, 5)]}
    for cid in CONSTRUCTIONS:
        for p in params.get(cid, [{}]):
            yield gram(construct_library(cid, **p))


def _random_patterns():
    gen = np.random.default_rng(11)
    for n in range(1, 21):
        A = gen.normal(size=(n, n))
        A = (A + A.T) / 2
        A[np.triu(gen.random((n, n)) < 0.5, 1)] = 0.0
        yield np.triu(A) + np.triu(A, 1).T


def test_ssp_system_matches_the_per_unknown_build():
    # the closed-form system equals the one built one unknown at a time,
    # entry for entry, on every catalog gram and on random patterns
    for A in (*_catalog_grams(), *_random_patterns()):
        K, i, j = _ssp_system(A)
        want, unknowns = _reference_ssp_system(A)
        assert np.array_equal(K, want) and list(zip(i.tolist(), j.tolist())) == unknowns, len(A)


def test_ssp_prop_a15a19():
    rep = ssp_check(gram(construct_library("prop_a15a19")))
    assert rep.is_ssp and rep.nullity == 0


def test_ssp_thm00_t3():
    assert ssp_check(gram(construct_library("thm00", t=3))).is_ssp


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ssp_identity_fails(n):
    rep = ssp_check(np.eye(n))
    assert not rep.is_ssp
    assert rep.nullity == n * (n - 1) // 2
    X = rep.witness
    assert X is not None
    assert np.allclose(X, X.T) and np.abs(np.diag(X)).max() == 0
    assert np.allclose(np.eye(n) @ X - X @ np.eye(n), 0)


def test_ssp_invariance_under_signature_and_scaling():
    for _ in range(5):
        n = 6
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        A[np.abs(A) < 0.3] = 0.0  # carve out some pattern
        base = ssp_check(A).nullity
        s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        assert ssp_check((A * s).T * s).nullity == base
        assert ssp_check(3.7 * A).nullity == base


def test_ssp_witness_satisfies_constraints():
    # thm10 grown to 0001001 by two duplications has no SSP, so a witness exists
    A = gram(construct_library("thm10"))
    for _ in range(2):
        A = dup_realization(A, 0, 1.0, eigen_sym(A))
    rep = ssp_check(A)
    X = rep.witness
    assert X is not None
    P = np.abs(A) > 1e-8 * np.abs(A).max()
    np.fill_diagonal(P, False)
    assert np.abs(X[P]).max(initial=0.0) < 1e-9
    assert np.abs(np.diag(X)).max() < 1e-12
    assert np.abs(A @ X - X @ A).max() < 1e-7


# ---------------------------------------------------------------- search


def test_search_k4_rank_one_list():
    G = graph_from_text("0111")
    W = low_q_search(G, 2, (1, 3), budget=(200, 200), seed=3)
    assert W is not None
    assert in_pattern(W, G)
    assert cluster_spectrum(eigen_sym(W)).multiplicities == (1, 3)


def test_search_alternating_six_vertices():
    G = graph_from_text("010101")
    W = low_q_search(G, 3, (3, 2, 1), seed=3)
    assert W is not None
    assert in_pattern(W, G)
    assert cluster_spectrum(eigen_sym(W)).q == 3


def test_search_finds_q2_on_seven_vertices():
    G = graph_from_text("0101011")
    W = low_q_search(G, 2, (3, 4), budget=(200, 200), seed=0)
    assert W is not None and in_pattern(W, G)
    assert cluster_spectrum(eigen_sym(W)).multiplicities == (3, 4)


def test_search_does_not_fabricate_q3_on_exact4():
    G = graph_from_text("0001001")
    W = low_q_search(G, 3, (2, 3, 2), budget=(40, 150), seed=3)
    assert W is None  # absence of success, consistent with the exact value 4


def test_search_validates_inputs():
    G = graph_from_text("0101")
    with pytest.raises(ValueError):
        low_q_search(G, 2, (1, 1))
    with pytest.raises(ValueError):
        low_q_search(G, 3, (2, 2))


def test_search_trace_csv():
    from threshq.orthosearch import SearchTrace

    trace = SearchTrace()
    G = graph_from_text("0111")
    low_q_search(G, 2, (1, 3), budget=(5, 30), seed=3, trace=trace)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "restart,iteration,residual"
    assert len(lines) > 1 and lines[1].startswith("0,0,")
