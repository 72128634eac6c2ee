import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshq.gram import A15A19_BASES, CONSTRUCTIONS, construct_library, dup_realization, gram
from threshq.gram import _repair_scales
from threshq.orthosearch import (
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
from threshq.sequences import CreationSequence, block_form, build_graph, enumerate_connected
from threshq.sequences import graph_from_text
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


def test_support_pattern_draws_the_adjacency_block():
    # the staircase the starts draw is the dominating-by-isolated block of
    # the adjacency, and read-only
    for n in range(2, 9):
        for seq in enumerate_connected(n):
            G = graph_from_text(seq.text)
            dom = [i for i, b in enumerate(seq.bits) if b]
            iso = [i for i, b in enumerate(seq.bits) if not b]
            S = SupportPattern.from_graph(G).support
            assert np.array_equal(S, G.adjacency[np.ix_(dom, iso)]), seq.text
            assert not S.flags.writeable


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


def _check_pattern_definition(G):
    """from_graph's starts and staircase against the definition: dominating
    vertex d covers isolated vertex z iff d > z, and a column starts after
    the dominating vertices added before its vertex."""
    P = SupportPattern.from_graph(G)
    S = np.array([[d > z for z in G.isolated] for d in G.dominating], dtype=bool)
    assert np.array_equal(P.support, S.reshape(P.support.shape)), G.creation.text
    assert P.starts == tuple(sum(d < z for d in G.dominating) for z in G.isolated), G.creation.text
    assert (P.rows, P.cols) == (len(G.dominating), len(G.isolated)), G.creation.text


def test_support_pattern_from_bits_matches_definition():
    for seq in (seq for n in range(2, 11) for seq in enumerate_connected(n)):
        _check_pattern_definition(graph_from_text(seq.text))


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
        SupportPattern.from_support(S)
    with pytest.raises(ValueError):
        SupportPattern.from_support(np.zeros((0, 2), dtype=bool))
    # random boolean supports, dense and sparse, and random staircases with
    # some entries flipped: from_support agrees with the column-by-column
    # reading, starts and errors alike (all-False columns too), and draws
    # back the array it read
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
        P = _starts_or_error(SupportPattern.from_support, S)
        assert (P if P is ValueError else list(P.starts)) == want, S
        if P is not ValueError:
            assert P.rows == rows and np.array_equal(P.support, S), S
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
    """H's columns mixed by the reflection with u = (-1, e, ..., e), e =
    1/(2 m H_m)."""
    u = np.full(H.shape[1], 1 / (2 * m * sum(1 / p for p in range(1, m + 1))))
    u[0] = -1.0
    return H - np.outer(H @ u, 2 * u / (u @ u))


def _complete_orthogonal_by_groups(groups, T):
    """The group-by-group completion (h_1 on the widest group's first
    column, then one Helmert stack and one _mix per group), kept as the
    reference."""
    W = groups[-1][0] if groups else 0
    B = np.zeros((T, sum(len(cols) for _, cols in groups)))
    used = set()
    for m, cols in groups:
        if m == W:
            B[T - W:, cols[0]] = _helmert(W, 1)
            cols = cols[1:]
        if cols:
            picks = [m] + [i for i in range(m - 1, 1, -1) if i not in used][: len(cols) - 1]
            used.update(picks)
            H = np.stack([_helmert(W, i) for i in picks], axis=1)
            B[T - W:, cols] = _mix(H, m)
    return B


def _feasible_patterns():
    """Every gate-feasible connected sequence with n <= 13, seeded random
    feasible ones with n = 16..256, and the large equal-support groups
    0^k 1^k for k = 32, 64 and 128."""
    texts = [seq.text for n in range(2, 14) for seq in enumerate_connected(n)]
    gen = np.random.default_rng(15)
    for n in (16, 24, 32, 48, 64, 96, 128, 192, 256):
        for p_one in (0.6, 0.7, 0.8):
            texts += ["0" + "".join(np.where(gen.random(n - 2) < p_one, "1", "0")) + "1"
                      for _ in range(6)]
    texts += ["0" * k + "1" * k for k in (32, 64, 128)]
    for text in texts:
        P = SupportPattern.from_graph(graph_from_text(text))
        if isinstance(decide_column_orthogonal(P), Feasible):
            yield text, P


def test_completion_matches_the_group_loop():
    # the one-product completion agrees with the group-by-group loop entry
    # by entry, column 0 is exactly h_1, every support entry of a column of
    # support size m is at least the docstring's 1/(4 m^2 H_m), and the
    # repaired dominating rows have products between 1 and 3
    seen = 0
    for text, P in _feasible_patterns():
        groups = _column_groups(P)
        B = _complete_orthogonal(groups, P.rows)
        assert np.array_equal(np.abs(B) > 1e-12, P.support), text
        assert verify_feasible(P, B), text
        assert np.abs(B - _complete_orthogonal_by_groups(groups, P.rows)).max() <= 1e-12, text
        assert np.array_equal(decide_column_orthogonal(P).matrix, B), text
        assert np.array_equal(B[:, 0], np.full(P.rows, 1 / math.sqrt(P.rows))), text
        m = P.support.sum(axis=0)  # support size per column
        floor = 1 / (4 * m * m * np.cumsum(1 / np.arange(1, P.rows + 1))[m - 1])
        assert np.all(np.abs(B) >= np.where(P.support, floor, 0.0)), text
        BD = _repair_scales(B)
        off = (BD @ BD.T)[~np.eye(P.rows, dtype=bool)]
        assert np.all((1 <= off) & (off <= 3)), text
        seen += 1
    assert seen > 1000, seen


@pytest.mark.parametrize("xs,ok", [
    ((), True), ([0, 3, 11], True),  # exact ints, in a tuple or a list
    ((np.int64(2), 1), True), ([np.uint8(4), np.int32(11)], True),  # numpy integers
    ((True,), False), ((1, False), False),  # bools are ints to isinstance
    ((np.bool_(True),), False), ((2, np.bool_(False)), False),
    ((0, 0), False), ((np.int64(3), 3), False),  # repeats
    ((-1,), False), ((12,), False), ((np.int64(12),), False), ((3, -1), False),  # range
    ((0.0,), False), (("1",), False), ((1, None), False),  # other entries
    (range(3), False), ("01", False), (np.arange(3), False), (None, False),  # other containers
])
def test_distinct_indices_rules(xs, ok):
    assert distinct_indices(xs, 12) is ok


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


def test_witness_check_on_disconnected_patterns():
    # an isolated vertex added after the last dominating one has an empty
    # column: the gate refuses the pattern, and the witness of its
    # connected prefix, tampered with by adding an empty column among
    # others, decides as the column-pair loop decides
    gen = np.random.default_rng(20)
    outcomes = {True: 0, False: 0}
    for seq in (seq for n in range(2, 10) for seq in enumerate_connected(n)):
        P0 = SupportPattern.from_graph(graph_from_text(seq.text))
        out = decide_column_orthogonal(P0)
        w = out if isinstance(out, Infeasible) else None
        for tail in ("0", "00"):
            P = SupportPattern.from_graph(graph_from_text(seq.text + tail))
            with pytest.raises(ValueError):
                decide_column_orthogonal(P)
            for cand in ([w] if w else []) + list(_tampered(P, w, gen)):
                want = _verify_infeasible_by_pairs(P, cand)
                assert verify_infeasible(P, cand) is want, (seq.text + tail, cand)
                outcomes[want] += 1
    assert min(outcomes.values()) > 100, outcomes


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 62).flatmap(lambda m: st.lists(st.integers(0, 1), min_size=m, max_size=m)),
       st.integers(0, 2 ** 32 - 1))
def test_witness_check_matches_the_pair_loop_to_order_64(middle, seed):
    # past n = 12, on connected sequences up to n = 64: from_graph reads
    # the definition, the gate's own witness verifies, and it and the
    # tampered ones decide as the column-pair loop decides
    G = build_graph(CreationSequence((0, *middle, 1)))
    _check_pattern_definition(G)
    P = SupportPattern.from_graph(G)
    out = decide_column_orthogonal(P)
    w = out if isinstance(out, Infeasible) else None
    assert w is None or verify_infeasible(P, w), G.creation.text
    for cand in ([w] if w else []) + list(_tampered(P, w, np.random.default_rng(seed))):
        assert verify_infeasible(P, cand) is _verify_infeasible_by_pairs(P, cand), (
            G.creation.text, cand)


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
    # the liberated gram keeps the strong spectral property on each base
    for base in A15A19_BASES:
        rep = ssp_check(gram(construct_library("prop_a15a19", base=base)))
        assert rep.is_ssp and rep.nullity == 0, base


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
