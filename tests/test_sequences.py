import itertools
import time

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.threshold import is_threshold_graph

from threshq.sequences import (
    BadCharacter,
    CreationSequence,
    FirstBitNotZero,
    NotConnected,
    NotThreshold,
    block_form,
    build_graph,
    count_shortest_paths,
    creation_order_of,
    dup_graph,
    enumerate_connected,
    from_adjacency,
    graph_from_text,
    jdup_graph,
    parse_creation_sequence,
    to_edge_list,
    unique_path_bound,
)
from threshq.sequences import _adjacency_from_bits


def nx_graph(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from((i, j) for i in range(G.n) for j in range(i + 1, G.n) if G.adjacency[i, j])
    return H


def all_connected(n):
    return list(enumerate_connected(n))


# ---------------------------------------------------------------- parsing


def test_parse_basic():
    seq = parse_creation_sequence("0101")
    assert seq.bits == (0, 1, 0, 1)
    assert seq.connected


def test_parse_star():
    seq = parse_creation_sequence("0000001")
    assert seq.trace == 1
    G = build_graph(seq)
    assert sorted(G.degrees()) == [1] * 6 + [6]


def test_parse_errors():
    with pytest.raises(FirstBitNotZero):
        parse_creation_sequence("10")
    with pytest.raises(BadCharacter):
        parse_creation_sequence("01a1")
    with pytest.raises(BadCharacter):
        parse_creation_sequence("")


@pytest.mark.parametrize("text, ch, pos", [("0a1", "a", 2), ("0\u06611", "\u0661", 2),
                                           ("01 ", " ", 3), ("x01", "x", 1)])
def test_parse_names_the_first_bad_character(text, ch, pos):
    # an Arabic-Indic one is a digit to int() but not a bit
    with pytest.raises(BadCharacter, match=f"^bad character {ch!r} at position {pos}$"):
        parse_creation_sequence(text)


def test_parse_matches_the_character_loop():
    # every string over a small alphabet, against the per-character loop
    # the parser replaced: the same error type and message, or the same bits
    def by_loop(text):
        if not text:
            raise BadCharacter("empty sequence")
        for pos, ch in enumerate(text):
            if ch not in "01":
                raise BadCharacter(f"bad character {ch!r} at position {pos + 1}")
        if text[0] != "0":
            raise FirstBitNotZero("first bit of a creation sequence is 0")
        return tuple(int(c) for c in text)

    def outcome(fn, text):
        try:
            return fn(text)
        except BadCharacter as exc:
            return (type(exc), str(exc))
        except FirstBitNotZero as exc:
            return (type(exc), str(exc))

    for n in range(5):
        for chars in itertools.product("01a", repeat=n):
            text = "".join(chars)
            got = outcome(lambda t: parse_creation_sequence(t).bits, text)
            assert got == outcome(by_loop, text), text


@pytest.mark.parametrize("bits", [(0, 1.0), (0, True), (False, 1), (0, np.True_), (0, 2),
                                  (0, "1"), (0, [1]), (0, {1: 1}), (0, None), ()])
def test_creation_sequence_takes_only_integer_bits(bits):
    # 1.0 and True equal 1 but are not bits (their text was "01.0" and
    # "0True"); an unhashable entry fails with the same typed error
    with pytest.raises(BadCharacter):
        CreationSequence(bits)


def test_creation_sequence_takes_numpy_integer_bits():
    seq = CreationSequence(tuple(np.array([0, 1, 1])))
    assert seq.text == "011" and seq == CreationSequence((0, 1, 1))


def test_disconnected_flag():
    assert not parse_creation_sequence("010").connected


# ---------------------------------------------------------------- blocks


def test_block_form_examples():
    bf = block_form(CreationSequence((0, 1, 0, 1)))
    assert bf.blocks == ((1, 1), (1, 1)) and bf.s == 2

    bf = block_form(parse_creation_sequence("0001001"))
    assert bf.blocks == ((3, 1), (2, 1)) and bf.s == 2 and bf.trace == 2

    bf = block_form(parse_creation_sequence("0110001"))
    assert bf.blocks == ((1, 2), (3, 1)) and bf.s == 2


def test_block_form_requires_connected():
    with pytest.raises(NotConnected):
        block_form(CreationSequence((0, 1, 0)))


@pytest.mark.parametrize("n", range(2, 13))
def test_block_round_trip_exhaustive(n):
    for seq in enumerate_connected(n):
        assert block_form(seq).reconstruct() == seq


# ---------------------------------------------------------------- graphs


def test_build_k2_and_kn():
    assert build_graph(parse_creation_sequence("01")).adjacency[0, 1]
    Kn = build_graph(CreationSequence((0,) + (1,) * 6))
    assert Kn.adjacency.sum() == 7 * 6


def test_build_p3():
    G = graph_from_text("001")
    # star on 3 vertices: the two leaves are at distance 2
    assert not G.adjacency[0, 1] and G.adjacency[0, 2] and G.adjacency[1, 2]
    hit = unique_path_bound(G)
    assert hit is not None and hit[0] == 2


@pytest.mark.parametrize("n", range(2, 13))
def test_trace_definition_exhaustive(n):
    # trace = number of 1 bits = max i with d_i >= i over sorted degrees
    for seq in enumerate_connected(n):
        G = build_graph(seq)
        degs = sorted(G.degrees(), reverse=True)
        by_degrees = max(i + 1 for i in range(n) if degs[i] >= i + 1)
        assert G.trace == sum(seq.bits) == by_degrees


def test_enumerate_counts_and_order():
    assert [s.text for s in enumerate_connected(3)] == ["001", "011"]
    assert len(all_connected(7)) == 32
    assert len(all_connected(8)) == 64
    table_order = [s.text for s in enumerate_connected(4, order="table")]
    assert table_order == ["0001", "0101", "0011", "0111"]
    # both orders against their sorted definitions, and neither builds the
    # census before its first sequence
    for n in range(3, 13):
        m = n - 2
        mids = [format(x, f"0{m}b") for x in range(2 ** m)]
        for order, key in (("lex", None), ("table", lambda b: (b.count("1"), -int(b, 2)))):
            got = [s.text for s in enumerate_connected(n, order=order)]
            assert got == ["0" + b + "1" for b in sorted(mids, key=key)], (n, order)
    t0 = time.perf_counter()
    firsts = [next(enumerate_connected(60, order=order)).text for order in ("lex", "table")]
    assert time.perf_counter() - t0 < 0.5
    assert firsts == ["0" * 59 + "1"] * 2


def test_enumerate_rejects_small_n():
    with pytest.raises(ValueError):
        list(enumerate_connected(1))


# ---------------------------------------------------------------- duplication


def test_dup_k2_gives_p3():
    G = graph_from_text("01")
    assert dup_graph(G, 0).creation.text == "001"


def test_jdup_k2_gives_k3():
    G = graph_from_text("01")
    assert jdup_graph(G, 0).creation.text == "011"


def test_dup_pendant_example():
    # oracle: the duplicated graph must be isomorphic to the normalized one
    G = graph_from_text("00101")
    pendant = 3  # the isolated vertex added fourth
    H = dup_graph(G, pendant)
    assert H.creation.text == "001001"
    raw = nx_graph(G).copy()
    raw.add_node(5)
    raw.add_edges_from((5, u) for u in G.neighbors(pendant))
    assert nx.is_isomorphic(raw, nx_graph(H))


@pytest.mark.parametrize("n", range(2, 8))
def test_duplication_stays_threshold(n):
    # inserting a matching bit: dup of isolated-added, jdup of dominating-added
    for seq in enumerate_connected(n):
        G = build_graph(seq)
        for v in range(G.n):
            if seq.bits[v] == 0:
                H = dup_graph(G, v)
            else:
                H = jdup_graph(G, v)
            assert H.n == n + 1
            assert is_threshold_graph(nx_graph(H))


def test_jdup_can_leave_the_class():
    # a joined copy of a late isolated vertex creates two disjoint edges
    with pytest.raises(NotThreshold):
        jdup_graph(graph_from_text("0101"), 2)


@pytest.mark.parametrize("dup", [dup_graph, jdup_graph])
def test_duplication_rejects_a_vertex_outside_the_graph(dup):
    # -1 would wrap to the last vertex; for jdup it also put the joined
    # edge on the copy's own diagonal, so the copy passed as universal
    G = graph_from_text("0101")
    for v in (-1, G.n):
        with pytest.raises(IndexError, match=f"vertex {v} "):
            dup(G, v)


@pytest.mark.parametrize("dup", [dup_graph, jdup_graph])
@pytest.mark.parametrize("v", [True, False, np.True_, np.False_])
def test_duplication_rejects_a_bool_vertex(dup, v):
    # a bool is an int to the range test, but indexes a row as a mask
    with pytest.raises(IndexError, match="bool"):
        dup(graph_from_text("0101"), v)


def test_from_adjacency_round_trip():
    for seq in enumerate_connected(6):
        G = build_graph(seq)
        H, order = from_adjacency(G.adjacency)
        assert H.creation == seq
        P = G.adjacency[np.ix_(order, order)]
        assert np.array_equal(P, H.adjacency)


@pytest.mark.parametrize("n", range(2, 12))
def test_creation_order_recovers_permuted_graphs(n):
    rng = np.random.default_rng(n)
    for seq in enumerate_connected(n):
        A = build_graph(seq).adjacency
        p = rng.permutation(n)
        shuffled = A[np.ix_(p, p)]
        bits, order = creation_order_of(shuffled)
        assert bits == seq.bits
        assert np.array_equal(shuffled[np.ix_(order, order)], A), seq.text


def test_creation_order_rejects_non_threshold():
    C4 = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        C4[i, j] = C4[j, i] = True
    with pytest.raises(NotThreshold):
        creation_order_of(C4)


# ---------------------------------------------------------------- distances


def test_unique_path_star():
    G = graph_from_text("0000001")
    hit = unique_path_bound(G)
    assert hit is not None and hit[0] == 2


def test_unique_path_complete():
    assert unique_path_bound(graph_from_text("0111111")) is None


def test_unique_path_0101_against_networkx():
    G = graph_from_text("0101")
    hit = unique_path_bound(G)
    assert hit is not None
    d, (u, v) = hit
    H = nx_graph(G)
    paths = list(nx.all_shortest_paths(H, u, v))
    assert d == 2 and len(paths) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_unique_path_matches_networkx(n):
    # oracle: count shortest paths with networkx for every pair
    for seq in enumerate_connected(n):
        G = build_graph(seq)
        H = nx_graph(G)
        best = None
        for u in range(G.n):
            for v in range(u + 1, G.n):
                d = nx.shortest_path_length(H, u, v)
                if d >= 2 and len(list(nx.all_shortest_paths(H, u, v))) == 1:
                    best = max(best or 0, d)
        hit = unique_path_bound(G)
        assert (hit[0] if hit else None) == best
        if hit:
            assert hit[0] <= 2  # connected threshold graphs have diameter <= 2


def bfs_unique_path(G):
    # the all-pairs search the closed form replaces: the first (u, v) pair
    # in order at the largest distance >= 2 with a single shortest path
    best = None
    for u in range(G.n):
        dist, cnt = count_shortest_paths(G.adjacency, u)
        for v in range(u + 1, G.n):
            if dist[v] >= 2 and cnt[v] == 1 and (best is None or dist[v] > best[0]):
                best = (int(dist[v]), (u, v))
    return best


@pytest.mark.parametrize("n", range(2, 15))
def test_unique_path_closed_form_matches_bfs(n):
    # same distance and same witness pair as the BFS, on every connected
    # sequence of order n
    for seq in enumerate_connected(n):
        G = build_graph(seq)
        assert unique_path_bound(G) == bfs_unique_path(G), seq.text


def test_unique_path_closed_form_disconnected():
    # trailing isolated vertices join no path; the rule reads the prefix
    for text in ("0", "00", "010", "0010", "00100", "0110", "01010", "0001000"):
        G = graph_from_text(text)
        assert unique_path_bound(G) == bfs_unique_path(G), text


def test_edge_list_export():
    text = to_edge_list(graph_from_text("001"))
    assert text == "1 3\n2 3\n"


def _adjacency_by_rows(bits):
    """The row-by-row construction, kept as the reference: each dominating
    vertex j is joined to every vertex before it."""
    n = len(bits)
    A = np.zeros((n, n), dtype=bool)
    for j, b in enumerate(bits):
        if b == 1:
            A[j, :j] = True
            A[:j, j] = True
    return A


def test_adjacency_matches_the_row_loop():
    # every 0/1 sequence with n <= 12, connected or not (and with a leading
    # 1, which the helper does not reject), then seeded random ones up to
    # n = 256; the result is read-only
    gen = np.random.default_rng(16)
    cases = [tuple((x >> i) & 1 for i in range(n)) for n in range(1, 13) for x in range(2 ** n)]
    cases += [tuple(gen.integers(0, 2, n).tolist()) for n in (16, 31, 64, 100, 128, 255, 256)
              for _ in range(4)]
    for bits in cases:
        A = _adjacency_from_bits(bits)
        assert A.dtype == bool and not A.flags.writeable, bits
        assert np.array_equal(A, _adjacency_by_rows(bits)), bits
    for bits in cases:
        if bits[0] == 0:
            assert np.array_equal(build_graph(CreationSequence(bits)).adjacency,
                                  _adjacency_by_rows(bits)), bits
