"""Inputs of the threshq benchmark.

Each workload is a list of creation sequences as text, a pure function of
the seed: threshq itself takes no part in making them, so a change to the
program cannot change what it is asked.
"""

from __future__ import annotations

import math
import random
import re
import statistics

CENSUS_ORDER = 12

LONG_ORDER = 28
LONG_ONES_RUNS = (1, 1, 2, 2, 3, 3)
# 15 inputs, not more: each run needs about six calls per input, spread over
# the run, for the median over passes to be steady (see run.per_input).
LONG_COUNT = 15
# Inputs that open with a lone 0 (k_1 = 1); see long().
LONG_LEADING_MERGES = 3

Q2_ORDERS = range(16, 25)
Q2_P_ONE = 0.6
# 300 inputs, not more: each run needs about six calls per input, spread
# over the run, for the median over passes to be steady.
Q2_COUNT = 300
# The q2 set is drawn once, from this generator seed; --seed only orders it.
# Drawn per seed, the number of gate-defect rows in 500 sequences ranged
# from 4 to 11 and their cost from 0.02 s to 1.2 s each, which moved
# classify_per_s by +-30% between seeds: far more than any bound allows.
Q2_POOL_SEED = 0

NAMES = ("census", "long", "q2")


def runs(bits: str) -> list[tuple[int, int]]:
    """(zeros, ones) run lengths of a connected creation sequence."""
    return [(len(z), len(o)) for z, o in re.findall(r"(0+)(1+)", bits)]


def q2_counting(bits: str) -> bool:
    """Column-counting criterion for q(G) = 2, written from the definition.

    Isolated vertices of the i-th zero-run see exactly the dominating
    vertices of runs i..s.  Their columns can be made pairwise orthogonal
    iff, counting from the last run, the columns never outnumber the rows
    they live in, and only the first run may fill them exactly.
    """
    zeros = ones = 0
    blocks = runs(bits)
    for i in range(len(blocks) - 1, -1, -1):
        zeros += blocks[i][0]
        ones += blocks[i][1]
        if zeros > ones or (i > 0 and zeros == ones):
            return False
    return True


def census(seed: int) -> list[str]:
    """Every connected sequence of order 12, middle bits in binary order
    (the order of threshq's enumerate_connected).  The seed is unused: a
    census is one fixed input."""
    m = CENSUS_ORDER - 2
    return [f"0{x:0{m}b}1" for x in range(2 ** m)]


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform random composition of `total` into `parts` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def long(seed: int) -> list[str]:
    """Order-28 sequences whose ones-runs are an ordering of LONG_ONES_RUNS
    and whose zero-runs share the other 16 vertices; order and lengths are
    drawn from the seed, within three constraints that keep seeds
    comparable.

    - The ones-run multiset is fixed: the joined-duplication lattice grows
      with the product of the ones-run lengths (36 nodes here).
    - The last ones-run cycles through 1, 2 and 3.  Only a last run of
      length 1 gives a unique shortest path, whose check costs 5-10 ms at
      this order against 1 ms for the rest of verify_qbound; a free draw
      made verify_per_s swing by a factor of two between seeds.
    - The first LONG_LEADING_MERGES inputs open with a lone 0 followed by
      ones-runs of 3, 1 and 2; all others open with at least two 0s.  Only a
      leading (1, t) block admits the leading-merge reduction, which adds
      36/t nodes; a free draw moved the lattice size of a seed's inputs
      between 600 and 708 nodes.
    """
    rng = random.Random(seed)
    s = len(LONG_ONES_RUNS)
    zeros = LONG_ORDER - sum(LONG_ONES_RUNS)
    lengths = sorted(set(LONG_ONES_RUNS))
    out = []
    for i in range(LONG_COUNT):
        ones = list(LONG_ONES_RUNS)
        last = lengths[i % len(lengths)]
        ones.remove(last)
        if i < LONG_LEADING_MERGES:
            first = lengths[(i + 2) % len(lengths)]
            ones.remove(first)
            rng.shuffle(ones)
            ones = [first] + ones
            ks = [1] + _composition(rng, zeros - 1, s - 1)
        else:
            rng.shuffle(ones)
            ks = _composition(rng, zeros - 1, s)
            ks[0] += 1
        ones.append(last)
        out.append("".join("0" * k + "1" * t for k, t in zip(ks, ones)))
    return out


def q2(seed: int) -> list[str]:
    """Q2_COUNT random connected sequences of order 16..24 with
    P(bit = 1) = Q2_P_ONE that pass q2_counting, drawn from Q2_POOL_SEED and
    put in an order drawn from the seed."""
    rng = random.Random(Q2_POOL_SEED)
    out = []
    while len(out) < Q2_COUNT:
        n = rng.choice(Q2_ORDERS)
        bits = "0" + "".join("1" if rng.random() < Q2_P_ONE else "0"
                             for _ in range(n - 2)) + "1"
        if q2_counting(bits):
            out.append(bits)
    random.Random(seed).shuffle(out)
    return out


def make(name: str, seed: int) -> list[str]:
    return {"census": census, "long": long, "q2": q2}[name](seed)


def describe(seqs: list[str]) -> dict:
    """Generator properties recorded with every run: order n, block count s,
    the ones-run multiset and the product of the ones-run lengths."""
    def spread(values):
        return {"min": min(values), "median": statistics.median(values),
                "max": max(values)}

    blocks = [runs(b) for b in seqs]
    ones = {tuple(sorted(t for _, t in bl)) for bl in blocks}
    return {
        "count": len(seqs),
        "n": spread([len(b) for b in seqs]),
        "s": spread([len(bl) for bl in blocks]),
        "ones_runs": list(ones.pop()) if len(ones) == 1 else f"{len(ones)} multisets",
        "ones_product": spread([math.prod(t for _, t in bl) for bl in blocks]),
        "q2_counting": sum(q2_counting(b) for b in seqs),
    }
