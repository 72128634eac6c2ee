"""Creation sequences and threshold graphs.

A threshold graph is built by adding one vertex at a time, each either
isolated (bit 0) or dominating, i.e. adjacent to everything added so far
(bit 1).  The 0/1 string (b_1, ..., b_n) is the creation sequence; by
convention b_1 = 0, and the graph is connected exactly when b_n = 1.
Vertices are numbered in creation order (0-based in this module; the
edge-list export is 1-based).

The trace T is the number of dominating vertices, which for these graphs
equals max{i : d_i >= i} over the sorted degree sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np


class SequenceError(ValueError):
    """Invalid creation sequence input."""


class FirstBitNotZero(SequenceError):
    pass


class BadCharacter(SequenceError):
    pass


class NotConnected(SequenceError):
    pass


class NotThreshold(ValueError):
    """Adjacency structure is not a threshold graph."""


@dataclass(frozen=True)
class CreationSequence:
    """Immutable 0/1 creation sequence with b_1 = 0.  A bit is an int or a
    numpy integer equal to 0 or 1, so neither True nor 1.0 stands in for
    one."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = self.bits
        if len(bits) == 0:
            raise BadCharacter("empty sequence")
        # the types first: they are hashable, and a bit of another type
        # (an unhashable one included) fails before the values are read
        if not (all(t is int or issubclass(t, np.integer) for t in {*map(type, bits)})
                and {*bits} <= {0, 1}):
            raise BadCharacter(f"bits must be the integers 0 and 1, got {bits}")
        if bits[0] != 0:
            raise FirstBitNotZero("first bit of a creation sequence is 0")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def connected(self) -> bool:
        return self.bits[-1] == 1

    @property
    def trace(self) -> int:
        return sum(self.bits)

    @property
    def text(self) -> str:
        return "".join(map(str, self.bits))

    def __str__(self) -> str:
        return self.text


def parse_creation_sequence(text: str) -> CreationSequence:
    """Parse an ASCII '0'/'1' string into a CreationSequence.  One scan,
    text.lstrip("01"), finds the first other character, if any."""
    if not text:
        raise BadCharacter("empty sequence")
    if rest := text.lstrip("01"):
        raise BadCharacter(f"bad character {rest[0]!r} at position {len(text) - len(rest) + 1}")
    if text[0] != "0":
        raise FirstBitNotZero("first bit of a creation sequence is 0")
    return CreationSequence(tuple(map(int, text)))


@dataclass(frozen=True)
class BlockForm:
    """Maximal-run decomposition (k_1, t_1, ..., k_s, t_s) of a connected sequence.

    k_i counts a run of 0s, t_i the following run of 1s; all k_i, t_i >= 1.
    """

    blocks: tuple[tuple[int, int], ...]

    @property
    def s(self) -> int:
        return len(self.blocks)

    @cached_property
    def ks(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.blocks)

    @cached_property
    def ts(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.blocks)

    @property
    def trace(self) -> int:
        return sum(self.ts)

    @property
    def n(self) -> int:
        return sum(k + t for k, t in self.blocks)

    def reconstruct(self) -> CreationSequence:
        bits: list[int] = []
        for k, t in self.blocks:
            bits += [0] * k + [1] * t
        return CreationSequence(tuple(bits))


def block_form(seq: CreationSequence) -> BlockForm:
    """Group a connected sequence into maximal (zeros, ones) blocks."""
    if not seq.connected:
        raise NotConnected("block form requires a connected sequence (b_n = 1)")
    # runs alternate from a zero-run to a final ones-run, so they pair up
    runs = [len(list(run)) for _, run in itertools.groupby(seq.bits)]
    return BlockForm(tuple(zip(runs[::2], runs[1::2])))


@dataclass(frozen=True, eq=False)
class ThresholdGraph:
    """Threshold graph with vertices in creation order.

    adjacency is a read-only boolean matrix; vertex i is dominating when
    bit i of the creation sequence is 1, isolated when it is 0.
    """

    creation: CreationSequence
    adjacency: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, ThresholdGraph) and self.creation == other.creation

    def __hash__(self) -> int:
        return hash(self.creation)

    @property
    def n(self) -> int:
        return self.creation.n

    @property
    def trace(self) -> int:
        return self.creation.trace

    @property
    def connected(self) -> bool:
        return self.creation.connected

    @cached_property
    def block_form(self) -> BlockForm:
        """The block form of a connected graph's sequence, parsed once per
        graph; NotConnected otherwise."""
        return block_form(self.creation)

    @property
    def dominating(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.creation.bits) if b == 1)

    @property
    def isolated(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.creation.bits) if b == 0)

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(int(u) for u in np.flatnonzero(self.adjacency[v]))


def _adjacency_from_bits(bits: tuple[int, ...]) -> np.ndarray:
    """A[i, j] = bits[max(i, j)] off the diagonal: the later of two
    vertices is adjacent to the earlier one exactly when it is dominating."""
    v = np.arange(len(bits))
    A = np.array(bits, dtype=bool)[np.maximum.outer(v, v)]
    np.fill_diagonal(A, False)
    A.setflags(write=False)
    return A


def build_graph(seq: CreationSequence) -> ThresholdGraph:
    """Realize the iterative construction encoded by a creation sequence."""
    return ThresholdGraph(seq, _adjacency_from_bits(seq.bits))


def graph_from_text(text: str) -> ThresholdGraph:
    return build_graph(parse_creation_sequence(text))


def enumerate_connected(n: int, order: str = "lex") -> Iterator[CreationSequence]:
    """All 2^(n-2) connected creation sequences of length n.

    order='lex' walks the free middle bits lexicographically; order='table'
    uses the reference-catalog ordering (trace ascending, then middle bits
    descending as binary numbers).  Both yield as they go: within one
    trace c, the c set bits' positions from the most significant bit, in
    lexicographic order, give the middle bits in descending order.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 2
    if order == "lex":
        mids = range(2**m)
    elif order == "table":
        mids = (sum(1 << (m - 1 - p) for p in ones)
                for c in range(m + 1) for ones in itertools.combinations(range(m), c))
    else:
        raise ValueError(f"unknown order {order!r}")
    for x in mids:
        mid = tuple((x >> (m - 1 - i)) & 1 for i in range(m))
        yield CreationSequence((0,) + mid + (1,))


def creation_order_of(adjacency: np.ndarray) -> tuple[tuple[int, ...], list[int]]:
    """Recover (bits, order) from an adjacency matrix by peeling.

    order[p] is the vertex placed at creation position p.  At each step the
    last-added vertex is either universal in the remaining graph (bit 1) or
    isolated in it (bit 0); both cannot occur at once for n >= 2.
    Raises NotThreshold when neither exists.
    """
    n = adjacency.shape[0]
    alive = list(range(n))
    deg = adjacency.sum(axis=1).tolist()
    bits = [0] * n
    order = [0] * n
    for pos in range(n - 1, 0, -1):
        m = len(alive)
        idx = next((i for i in range(m) if deg[alive[i]] == m - 1), None)
        if idx is not None:
            bits[pos] = 1
        else:
            idx = next((i for i in range(m) if deg[alive[i]] == 0), None)
            if idx is None:
                raise NotThreshold("no universal or isolated vertex while peeling")
            bits[pos] = 0
        v = alive.pop(idx)
        order[pos] = v
        for u, a in zip(alive, adjacency[v, alive].tolist()):
            deg[u] -= a
    order[0] = alive[0]
    return tuple(bits), order


def from_adjacency(adjacency: np.ndarray) -> tuple[ThresholdGraph, list[int]]:
    """Canonicalize an adjacency matrix into a ThresholdGraph plus the
    creation order of the original vertices."""
    bits, order = creation_order_of(adjacency)
    return build_graph(CreationSequence(bits)), order


def _duplicate_adjacency(adjacency: np.ndarray, v: int, joined: bool) -> np.ndarray:
    """adjacency with a copy of v appended.  A negative v would wrap, and
    v = -1 would write the joined edge onto the copy's own diagonal; a bool
    v would index the rows as a mask."""
    n = adjacency.shape[0]
    if isinstance(v, (bool, np.bool_)):
        raise IndexError(f"vertex {v!r} is a bool, not a vertex index")
    if not 0 <= v < n:
        raise IndexError(f"vertex {v} is outside the {n}-vertex graph")
    A = np.zeros((n + 1, n + 1), dtype=bool)
    A[:n, :n] = adjacency
    A[n, :n] = adjacency[v]
    A[:n, n] = adjacency[:, v]
    if joined:
        A[n, v] = A[v, n] = True
    return A


def dup_graph(G: ThresholdGraph, v: int) -> ThresholdGraph:
    """Duplicate vertex v without an edge to the copy, renormalized to
    creation order.

    Duplicating an isolated-added vertex inserts a matching 0 into its run
    and always stays threshold; an unjoined copy of a dominating vertex
    leaves the class whenever two earlier non-adjacent vertices exist
    (induced four-cycle), in which case NotThreshold is raised.  IndexError
    for a vertex outside G.
    """
    H, _ = from_adjacency(_duplicate_adjacency(G.adjacency, v, joined=False))
    return H


def jdup_graph(G: ThresholdGraph, v: int) -> ThresholdGraph:
    """Duplicate vertex v with an edge to the copy (joined duplication).

    Joined copies of dominating-added vertices insert a matching 1 and stay
    threshold; a joined copy of an isolated vertex outside the leading zero
    run creates an induced pair of disjoint edges, raising NotThreshold.
    IndexError for a vertex outside G.
    """
    H, _ = from_adjacency(_duplicate_adjacency(G.adjacency, v, joined=True))
    return H


def count_shortest_paths(adjacency: np.ndarray, u: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS layers from u with shortest-path counts (dist = -1 if unreachable)."""
    n = adjacency.shape[0]
    dist = np.full(n, -1, dtype=int)
    cnt = np.zeros(n, dtype=np.int64)
    dist[u] = 0
    cnt[u] = 1
    frontier = [u]
    d = 0
    while frontier:
        nxt = []
        for x in frontier:
            for y in np.flatnonzero(adjacency[x]):
                if dist[y] == -1:
                    dist[y] = d + 1
                    nxt.append(int(y))
                if dist[y] == d + 1:
                    cnt[y] += cnt[x]
        frontier = nxt
        d += 1
    return dist, cnt


def unique_path_bound(G: ThresholdGraph) -> tuple[int, tuple[int, int]] | None:
    """Largest d such that some vertex pair at distance d >= 2 is joined by a
    unique shortest path, with a witness pair; None when no such pair exists.

    Read off the creation sequence in O(n).  Trailing 0s are isolated
    vertices and join no path, so only the prefix up to the last 1 counts;
    it is a connected threshold graph, of diameter <= 2.  Two non-adjacent
    vertices u < v there have b_v = 0, and their common neighbours are
    exactly the dominating vertices added after v.  The fewest, t_s, belong
    to v in the last zero-run, so a unique shortest path exists iff the
    last ones-run has length 1 and the prefix has order >= 3.  The witness
    is the first such pair in (u, v) order: (0, v) with v the first vertex
    of the last zero-run, or v = 1 when that run starts at vertex 0.
    `count_shortest_paths` is the reference this rule is tested against.
    """
    bits = G.creation.bits
    last_one = max((i for i, b in enumerate(bits) if b == 1), default=-1)
    if last_one < 2 or bits[last_one - 1] == 1:
        return None
    v = last_one - 1
    while v > 0 and bits[v - 1] == 0:
        v -= 1
    return 2, (0, max(v, 1))


def to_edge_list(G: ThresholdGraph) -> str:
    """Edge list, one '1-indexed u v' pair per line."""
    lines = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if G.adjacency[u, v]:
                lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + ("\n" if lines else "")
