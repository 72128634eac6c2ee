import dataclasses
import functools
import itertools
import math
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshq import bounds
from threshq.bounds import (
    Certificate,
    QBound,
    SelfCheckError,
    _chain_plan,
    _chain_steps,
    _joined,
    _section12_plan,
    _seed_plan,
    _sources,
    chain_certificate,
    classify_q,
    classify_text,
    ortho_gate,
    q2_certificate,
    run_chain,
    transfer_certificate,
    ub_section12,
    verify_certificate,
    verify_qbound,
)
from threshq.gram import (
    CONSTRUCTIONS,
    ChainGrower,
    DegenerateRow,
    DiagonalNotEigenvalue,
    GramFactor,
    construct_library,
    dup_realization,
    gram,
    jdup_realization,
    section12_factor,
)
from threshq.orthosearch import Feasible, Infeasible, SupportPattern, verify_infeasible
from threshq.sequences import (
    BlockForm,
    CreationSequence,
    NotThreshold,
    block_form,
    build_graph,
    creation_order_of,
    enumerate_connected,
    graph_from_text,
    jdup_graph,
    unique_path_bound,
)
from threshq.spectra import (
    cluster_spectrum,
    eigen_sym,
    in_pattern,
    q_of_matrix,
    spectra_agree,
    spectrum_values,
)
from threshq.tables import TABLES


def G(text):
    return graph_from_text(text)


def _source_plans(bf):
    """Every source's plan, each seed built: G's own form first, then its
    leading merge carried to G by joined copies of vertex 0."""
    return [_joined(_seed_plan(src), t) for src, t in _sources(bf)]


# ---------------------------------------------------------------- lower bounds


CONNECTED = "connected graph"
GATE = "orthogonality gate counting witness"
TRACE_TWO = "trace-two family exact value"
# The paper's combinatorial lower bounds: corollaries of the gate's counting
# criterion and not classifier rules, so a certificate citing one must fail.
UNIQUE_PATH = "unique shortest path"
TRACE = "trace below half the order"
ZERO_RUN = "zero-run column count"


def trace_low(g):
    """Trace below ceil(n/2): the last column group of the staircase has
    more columns than rows."""
    return g.trace < math.ceil(g.n / 2)


def zero_run_covers(g):
    """Some zero-run i >= 1 has at least as many vertices as there are
    dominating vertices after it: its group is full though not the last."""
    bf = g.block_form
    return any(bf.ks[i] >= sum(bf.ts[i:]) for i in range(1, bf.s))


def unique_path(g):
    return unique_path_bound(g) is not None


COROLLARIES = {TRACE: trace_low, ZERO_RUN: zero_run_covers, UNIQUE_PATH: unique_path}


def combinatorial_lower(g):
    """3 when one of the paper's combinatorial bounds fires on g, else the
    connected floor 2."""
    return 3 if any(fires(g) for fires in COROLLARIES.values()) else 2


def test_lb_examples():
    assert unique_path(G("0000001"))
    assert zero_run_covers(G("0110001"))  # second zero-run covers the tail trace
    assert trace_low(G("0010011"))  # trace 3 below ceil(7/2)
    K5 = G("01111")
    assert not any(fires(K5) for fires in COROLLARIES.values()) and combinatorial_lower(K5) == 2


def diameter_cert(pair, value=3):
    return Certificate("DiameterLB", value, UNIQUE_PATH, {"distance": 2, "pair": pair})


@pytest.mark.parametrize("text,cert", [
    ("0001", diameter_cert((0, 3))),         # adjacent pair
    ("0011", diameter_cert((0, 1))),         # two common neighbours, 2 and 3
    ("0001001", diameter_cert((0, 1))),      # two common neighbours, 3 and 6
    ("0001", diameter_cert((1, 1))),         # a vertex paired with itself
    ("0001", diameter_cert((0, 4))),         # index out of range
    ("0001", diameter_cert((-1, 1))),        # negative index
    ("0001", diameter_cert((0,))),           # not a pair
    ("0001", diameter_cert(None)),           # no pair at all
    ("0001", diameter_cert((0, 1), value=4)),  # value other than 3
    ("0001", diameter_cert((0, 1), value=2)),
])
def test_diameter_forged_witness_rejected(text, cert):
    assert verify_certificate(G(text), cert) is False


def zero_run_cert(payload, value=3):
    return Certificate("Compare1LB", value, ZERO_RUN, payload)


def gate_cert(columns, rows):
    return Certificate("Compare1LB", 3, GATE, {"columns": columns, "rows": rows})


@pytest.mark.parametrize("text,cert", [
    ("0011", zero_run_cert({"block": 0})),          # the first zero-run never counts
    ("0011", zero_run_cert({"block": -1})),         # negative block
    ("0011", zero_run_cert({"block": 1})),          # block out of range
    ("0011", zero_run_cert({})),                    # no block at all
    ("0011", zero_run_cert({"block": "1"})),        # not an int
    ("0110001", zero_run_cert({"block": 1}, value=4)),  # value other than 3
    ("0001001", gate_cert((0, 1), (2,))),           # row outside the staircase
    ("0001001", gate_cert((0, 5), (0,))),           # column outside the staircase
    ("0011", gate_cert((0, 0, 1), (0, 1))),         # a column counted twice
    ("0011", gate_cert((-1, 0, 1), (0, 1))),        # a negative column
    ("0011", gate_cert(None, (0, 1))),              # no columns
    ("0011", gate_cert((0, 1), None)),              # no rows
    ("0011", Certificate("Compare1LB", 3, "made-up rule", {"block": 1})),  # unknown rule
    ("0011", Certificate("ConnectedLB", 3, CONNECTED)),  # value other than 2
    ("01111", Certificate("TraceLB", 3, TRACE, {"trace": 4, "n": 5})),  # trace not low
    ("0011001", Certificate("TableCitation", 4, TRACE_TWO, {"ks": (2, 2), "ts": (1, 1)})),
    ("0001001", Certificate("TableCitation", 5, TRACE_TWO, {"ks": (3, 2), "ts": (1, 1)})),
    ("0011", Certificate("TraceLB", 3, TRACE, "not a dict")),  # payload of the wrong type
    # booleans are ints to isinstance and masks to numpy: none is an index
    ("0010101", diameter_cert((False, True))),
    ("0010101", gate_cert((3, True), (2,))),        # the gate's witness is (3, 2), (2,)
    ("0010101", gate_cert((3, 2), (True,))),
    ("0010101", gate_cert((3, 2), (np.True_,))),
    ("0001001", zero_run_cert({"block": True})),
    ("0001001", zero_run_cert({"block": np.True_})),
])
def test_lower_forged_witness_rejected(text, cert):
    assert verify_certificate(G(text), cert) is False


def test_retired_lower_kinds_rejected_with_a_true_witness():
    # the combinatorial bounds are no certificate kinds any more: a true
    # witness of one is an unknown rule, and a bound citing it fails
    assert unique_path_bound(G("0001"))[1] == (0, 1)
    assert trace_low(G("0001")) and zero_run_covers(G("0110001"))
    for text, cert in [
        ("0001", diameter_cert((0, 1))),
        ("0001", Certificate("TraceLB", 3, TRACE, {"trace": 1, "n": 4})),
        ("0110001", zero_run_cert({"block": 1, "k": 3, "tail_trace": 1})),
    ]:
        g = G(text)
        assert verify_certificate(g, cert) is False, cert.kind
        qb = classify_q(g)
        assert verify_qbound(g, qb)
        cited = dataclasses.replace(qb, lower_certs=qb.lower_certs + (cert,))
        assert verify_qbound(g, cited) is False, cert.kind


def test_forged_qbound_on_q2_graph_rejected():
    # q(0011) = 2: a made-up zero-run count must not lift the lower side to 3
    g = G("0011")
    forged = QBound(3, 3, (Certificate("ConnectedLB", 2, CONNECTED), zero_run_cert({"block": 0})),
                    (chain_certificate(g),))
    assert verify_qbound(g, forged) is False


def test_forged_qbound_with_an_empty_side_rejected():
    g = G("0011")
    qb = classify_q(g)
    assert verify_qbound(g, QBound(2, 2, (), qb.upper_certs)) is False
    assert verify_qbound(g, QBound(2, 2, qb.lower_certs, ())) is False


ORTHO = "column-orthogonal completion"
CHAIN = "duplication chain"
Q2_0011 = q2_certificate(G("0011")).payload["matrix"]
TRANSFER = transfer_certificate(G("00100101"))
CHAIN_0001001 = chain_certificate(G("0001001"))


def ortho_cert(payload, value=2):
    return Certificate("OrthoUB", value, ORTHO, payload)


def transfer_cert(**changes):
    """The transfer citation of 00100101 with some payload entries replaced
    (None deletes one)."""
    payload = {k: v for k, v in {**TRANSFER.payload, **changes}.items() if v is not None}
    return dataclasses.replace(TRANSFER, payload=payload)


@pytest.mark.parametrize("text,cert", [
    ("0011", Certificate("OrthoUB", 2, "x", {})),                   # no matrix
    ("0011", ortho_cert({"matrix": [["a", "b"], ["c", "d"]]})),   # not numeric
    ("0011", ortho_cert({"matrix": [[1.0, 2.0], [3.0]]})),        # ragged
    ("0011", ortho_cert({"matrix": np.eye(3)})),                  # wrong order
    ("0011", ortho_cert({"matrix": np.triu(np.ones((4, 4)))})),   # not symmetric
    ("0011", ortho_cert({"matrix": np.full((4, 4), np.nan)})),    # not finite
    ("0011", ortho_cert({"matrix": Q2_0011 + np.diag([np.nan, 0, 0, 0])})),  # NaN diagonal
    ("0011", Certificate("DupChainUB", 2, ORTHO, {"matrix": Q2_0011})),  # an unissued pair
    ("0011", ortho_cert({"matrix": Q2_0011}, value="2")),         # value not an int
    ("0011", ortho_cert("not a dict")),
    ("00100101", transfer_cert(embedding=None)),                  # no embedding
    ("00100101", transfer_cert(embedding=(0, 1, 2, 3, 4, 5, 6, 8))),  # out of range
    ("00100101", transfer_cert(embedding=(0, 1, 2, 3, 4, 5, 6))),     # too short
    ("00100101", transfer_cert(embedding=(0, 0, 1, 2, 3, 4, 5, 6))),  # not distinct
    ("00100101", transfer_cert(base=None)),                       # no base
    ("00100101", transfer_cert(base="10x")),                      # unparsable base
    ("00100101", transfer_cert(base=100101)),                     # base not a string
    ("00100101", transfer_cert(base="00100100")),                 # disconnected base
    ("00100101", transfer_cert(matrix=np.eye(7))),                # matrix of another order
    ("00100101", transfer_cert(matrix=np.triu(TRANSFER.payload["matrix"]))),  # not symmetric
    ("00100101", transfer_cert(embedding=(False, True, 2, 3, 4, 5, 6, 7))),  # booleans
    ("0011", Certificate("OrthoUB", 2, CHAIN, {"matrix": Q2_0011})),  # an unissued pair
    # the true 0001001 chain payload under every other pair
    ("0001001", dataclasses.replace(CHAIN_0001001, kind="OrthoUB")),
    ("0001001", dataclasses.replace(CHAIN_0001001, provenance="made up")),
    ("0001001", dataclasses.replace(CHAIN_0001001, provenance="paired-column construction")),
    ("0001001", dataclasses.replace(CHAIN_0001001, provenance=ORTHO)),
])
def test_upper_forged_certificate_rejected(text, cert):
    assert verify_certificate(G(text), cert) is False


# Anything a payload's index or int field might hold: ints of every size,
# booleans, numpy ints and booleans, floats, strings, None, and tuples and
# lists of them, nested.
_JUNK = st.recursive(
    st.one_of(st.integers(-3, 14), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
              st.integers(0, 14).map(np.int64), st.integers(0, 14).map(np.uint8),
              st.booleans().map(np.bool_), st.floats(), st.text(max_size=2), st.none()),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple),
    max_leaves=12)
_INDEX_FIELDS = ("pair", "block", "columns", "rows", "embedding")


@functools.lru_cache(maxsize=None)
def _chain_matrix(text):
    return chain_certificate(G(text)).payload["matrix"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1), max_size=10), st.fixed_dictionaries(
    {}, optional={name: _JUNK for name in _INDEX_FIELDS}))
def test_verifier_never_raises_on_junk_indices(middle, junk):
    # every lower rule's check, the chain and transfer checks: each field
    # that names an index or an int holds junk, and the verdict is a bool
    g = build_graph(CreationSequence((0, *middle, 1)))
    certs = [Certificate(kind, value, provenance, dict(junk))
             for kind, value, provenance, _, _ in bounds._LOWER_RULES]
    certs.append(Certificate("DupChainUB", g.n, "duplication chain",
                             {**junk, "matrix": _chain_matrix(g.creation.text)}))
    certs.append(transfer_cert(**{k: v for k, v in junk.items() if k == "embedding"}))
    for cert in certs:
        assert type(verify_certificate(g, cert)) is bool, cert


def _gate_covers_the_corollaries(g):
    """Whether one of the paper's combinatorial bounds fires on g; when one
    does, the exact q = 2 gate must find no completion, its counting witness
    must verify, and the classifier's lower side must be at least 3 with
    that witness among its certificates."""
    fired = [name for name, fires in COROLLARIES.items() if fires(g)]
    if not fired:
        return False
    gate = ortho_gate(g)
    assert isinstance(gate, Infeasible), (g.creation.text, fired)
    assert verify_infeasible(SupportPattern.from_graph(g), gate), (g.creation.text, fired)
    qb = classify_q(g)
    witness = Certificate("Compare1LB", 3, GATE, {"columns": gate.columns, "rows": gate.rows})
    assert qb.lower >= 3 and witness in qb.lower_certs, (g.creation.text, fired)
    return True


def test_lower_rules_agree_with_the_gate():
    # the combinatorial bounds are corollaries of the gate's counting
    # criterion, so wherever one fires the gate certifies q >= 3
    fired = 0
    for n in range(2, 15):
        for seq in enumerate_connected(n):
            g = build_graph(seq)
            fires = _gate_covers_the_corollaries(g)
            # the trace-two family (0^k1, 1, 0^k2, 1), k2 >= 2, is a zero-run case
            assert fires or bounds._trace_two(g, None) is None, seq.text
            fired += fires
    assert fired == 5993


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 62).flatmap(lambda m: st.lists(st.integers(0, 1), min_size=m, max_size=m)))
def test_lower_rules_agree_with_the_gate_to_n64(middle):
    _gate_covers_the_corollaries(build_graph(CreationSequence((0, *middle, 1))))


def test_q2_iff_gate_on_catalog():
    # the exact q=2 characterization agrees with the catalogs
    for n, table in TABLES.items():
        for row in table:
            feasible = isinstance(ortho_gate(G(row.sequence)), Feasible)
            assert feasible == (row.q_low == 2 == row.q_high), row.sequence


# ---------------------------------------------------------------- classify


def test_classify_examples():
    qb = classify_text("0001001")
    assert qb.exact and qb.lower == 4

    qb = classify_text("0101011")
    assert qb.exact and qb.lower == 2

    qb = classify_text("01001001")
    assert (qb.lower, qb.upper) == (3, 4) and not qb.exact


def test_classify_small_graphs():
    known = {
        "01": 2, "001": 3, "011": 2,
        "0001": 3, "0011": 2, "0101": 3, "0111": 2,
        "00001": 3, "00011": 3, "00101": 3, "00111": 2,
        "01001": 3, "01011": 2, "01101": 3, "01111": 2,
    }
    for text, q in known.items():
        qb = classify_text(text)
        assert qb.exact and qb.lower == q, (text, qb)


def test_classify_requires_connected():
    with pytest.raises(ValueError):
        classify_q(build_graph(graph_from_text("010").creation))


@pytest.mark.parametrize("n", range(2, 11))
def test_every_qbound_verifies(n):
    for seq in enumerate_connected(n):
        g = build_graph(seq)
        qb = classify_q(g)
        assert verify_qbound(g, qb), seq.text
        assert 2 <= qb.lower <= qb.upper <= g.n


def test_lower_bounds_below_catalog_values():
    # combinatorial lower bounds never exceed an exact catalog value
    for n, table in TABLES.items():
        for row in table:
            if row.q_low != row.q_high:
                continue
            g = G(row.sequence)
            assert combinatorial_lower(g) <= row.q_low, row.sequence


def test_q2_rows_have_matrix_certificates():
    for n, table in TABLES.items():
        for row in table:
            if row.q_high != 2:
                continue
            qb = classify_text(row.sequence)
            ortho = [c for c in qb.upper_certs if c.kind == "OrthoUB"]
            assert ortho, row.sequence
            A = ortho[0].payload["matrix"]
            assert in_pattern(A, G(row.sequence)) and q_of_matrix(A) == 2


# Targets of the paper's hand-made two-eigenvalue matrices (Tn2, Tn3_mid,
# Propositions 37, 38 and 40/41, and (0,1)^s 1 for s = 2..8): the gate's
# orthogonal completion stands in for each of them.
HAND_MADE_Q2 = ["01011", "001011", "00101011", "00100111", "00011011"] + [
    "01" * s + "1" for s in range(2, 9)]


@pytest.mark.parametrize("text", HAND_MADE_Q2)
def test_gate_certifies_the_hand_made_q2_targets(text):
    qb = classify_text(text)
    assert (qb.lower, qb.upper) == (2, 2)
    (cert,) = qb.upper_certs
    assert cert.kind == "OrthoUB" and verify_certificate(G(text), cert)
    assert cluster_spectrum(eigen_sym(cert.payload["matrix"])).q == 2


def chain_seed_ids(qb):
    """Catalog ids whose factor seeds a chain or a transfer among the upper
    certificates."""
    transfer = gram(construct_library("prop_a15a19"))
    ids = set()
    for cert in qb.upper_certs:
        for step in cert.payload.get("chain", ()):
            if step.startswith("seed:"):
                ids.add(step[5:].split("{")[0])
        if cert.provenance == bounds._TRANSFER and np.array_equal(cert.payload["matrix"], transfer):
            ids.add("prop_a15a19")
    return ids


def test_every_catalog_entry_seeds_the_classifier():
    # no construction may stay in the catalog that classify_q never grows
    unused = set(CONSTRUCTIONS)
    for n in range(2, 11):
        for seq in enumerate_connected(n):
            unused -= chain_seed_ids(classify_q(build_graph(seq)))
        if not unused:
            break
    assert not unused


@pytest.mark.parametrize("text,steps", [
    ("0101", ("seed:thm00{'t': 2}",)),
    ("010101", ("seed:thm00{'t': 3}",)),
    ("0101011", ("seed:thm00{'t': 3}", "jdup(5)")),
    ("01001", ("seed:thm061", "dup(2,2)")),
    ("01100011", ("seed:thm061", "dup(2,2)", "dup(2,2)", "jdup(1)", "jdup(3)")),
    ("0010001", ("seed:thm01", "dup(3,7)", "dup(3,7)")),
    ("000101", ("seed:thm00{'t': 2}", "dup(0,3)", "dup(0,3)")),
    ("000010001", ("seed:thm10", "dup(0,1)", "dup(0,1)", "dup(0,1)", "dup(3,1)")),
    ("00101001", ("seed:thm05", "dup(0,7)", "dup(4,7)")),
    ("0010100111", ("seed:thm05", "dup(0,7)", "dup(4,7)", "jdup(5)", "jdup(5)")),
    ("0100101", ("seed:thm06", "dup(2,3)")),
    ("01001001", ("seed:qlt4", "dup(2,2)")),
    ("0010010001", ("seed:qlt4", "dup(0,1)", "dup(2,2)", "dup(5,1)")),
    ("001001011", ("seed:ub_case1{'s': 3, 'm': 1, 'p1': 0, 'p2': 2}", "dup(3,3)", "jdup(6)")),
    ("0101010001", ("seed:ub_case1{'s': 4, 'm': 4, 'p1': 3, 'p2': 0}", "dup(6,1)")),
    ("0001", ("seed:star{'k': 3}",)),
    ("000111", ("seed:star{'k': 3}", "jdup(3)", "jdup(3)")),
    # zero-runs of length 1 after a longer first one: thm00(s) grows at vertex 0
    ("0001010101", ("seed:thm00{'t': 4}", "dup(0,13)", "dup(0,13)")),
    ("0010101010101", ("seed:thm00{'t': 6}", "dup(0,31)")),
])
def test_chain_plan_takes_the_first_fitting_seed(text, steps):
    # each source form's plan is its first fitting seed
    assert _chain_steps(_seed_plan(block_form(G(text).creation))) == steps


@pytest.mark.parametrize("text,steps", [
    # the leading merge (00, 1, 0, 1, 000, 1) fits thm05 at q = 3 while G's
    # own form falls to the paired-column seed at q = 5
    ("0101010001", ("seed:thm05", "dup(0,7)", "dup(4,7)", "dup(4,7)", "jdup(0)")),
    # s = 2 lone zero: the merge's star ties thm061 at q = 3, so G's own
    # form is kept
    ("01001", ("seed:thm061", "dup(2,2)")),
    # both sources reach q = 4 (qlt4 and thm10): G's own form again
    ("01001001", ("seed:qlt4", "dup(2,2)")),
])
def test_chain_plan_keeps_the_source_with_the_smaller_q(text, steps):
    bf = block_form(G(text).creation)
    own, merge = _source_plans(bf)
    assert _chain_steps(_chain_plan(bf)) == steps
    assert _chain_steps(merge)[-1] == "jdup(0)"
    assert _keeps_the_smaller_q(bf)


def _keeps_the_smaller_q(bf):
    """Check that bf's chain is the plan of the source whose first fitting
    seed has the smallest q, read off the seed's gram, G's own form on a
    tie; True when bf has two sources."""
    plans = _source_plans(bf)
    qs = [q_of_matrix(gram(plan.seed)) for plan in plans]
    chosen = _chain_plan(bf)
    assert q_of_matrix(gram(chosen.seed)) == min(qs), (bf.blocks, qs)
    assert _chain_steps(chosen) == _chain_steps(plans[qs.index(min(qs))]), (bf.blocks, qs)
    return len(plans) == 2


def test_chain_plan_keeps_the_source_with_the_smaller_q_everywhere():
    # every connected sequence with n <= 12, and random ones at n = 64, 128
    seqs = [seq for n in range(2, 13) for seq in enumerate_connected(n)]
    rng = random.Random(64)
    seqs += [_random_connected(rng, n) for n in (64, 128) for _ in range(20)]
    assert sum(_keeps_the_smaller_q(block_form(seq)) for seq in seqs) > 500


def test_seed_table_is_in_q_order():
    # the first fitting entry is the least-q fitting seed: within each s the
    # q of each built prebuilt seed never decreases and never exceeds 4, and
    # every paired-column seed, always last, has q >= 4; each entry's form
    # and dup slots, read before its seed is built, are the built seed's
    forms = [BlockForm(((k, 1),)) for k in (1, 2, 3)]  # the star's table reads k
    forms += [BlockForm(((1, 1),) * s) for s in range(2, 9)]
    for bf in forms:
        qs = []
        for blocks, dup_slots, build in bounds._seed_table(bf):
            seed = build()
            assert blocks == seed.target.block_form.blocks, bf.blocks
            assert dup_slots == seed.dup_slots, bf.blocks
            qs.append(len(seed.expected_spectrum))
            assert qs[-1] == q_of_matrix(gram(seed)), bf.blocks
        assert qs == sorted(qs) and max(qs) <= 4, (bf.blocks, qs)
    for s in range(2, 41):
        assert min(len(section12_factor(s, m).expected_spectrum) for m in range(1, s + 1)) >= 4, s


def _alternating_after_the_first_run(ks):
    """Every zero-run after the first has length 1."""
    return all(k == 1 for k in ks[1:])


def test_alternating_seed_closes_every_form_it_fits():
    # thm00(s) grows at vertex 0, so every form whose zero-runs after the
    # first have length 1, directly or after the leading merge (0^(1+k), ...),
    # gets a verified upper side of at most 3
    checked = 0
    for n in range(2, 14):
        for seq in enumerate_connected(n):
            ks = block_form(seq).ks
            merged = len(ks) >= 2 and ks[0] == 1 and _alternating_after_the_first_run(ks[1:])
            if not (_alternating_after_the_first_run(ks) or merged):
                continue
            g = build_graph(seq)
            qb = classify_q(g)
            assert qb.upper <= 3 and verify_qbound(g, qb), (seq.text, str(qb))
            checked += 1
    assert checked > 1000


def test_chain_certificates_match_expected_values():
    # every non-gate row gets a verified chain matrix at the catalog value,
    # except the two transfer rows and the two open rows
    special = {"00100101", "00010011", "01001001", "00011001"}
    for row in TABLES[8]:
        if row.q_high == 2 or row.sequence in special:
            continue
        cert = chain_certificate(G(row.sequence))
        assert cert is not None and cert.value == row.q_high, row.sequence


def test_transfer_certificates():
    # the two bases, a base with longer ones-runs, and one whose leading
    # (0, 1) folds into the next zero-run
    for text in ("00100101", "00010011", "001001011", "010100101"):
        cert = transfer_certificate(G(text))
        assert cert is not None and cert.value == 3, text
        assert verify_certificate(G(text), cert), text
    assert transfer_certificate(G("0101")) is None
    assert transfer_certificate(G("01010101")) is None


@functools.lru_cache(maxsize=None)
def jdup_reductions(bits):
    """Ways of writing the sequence as a joined duplication of something
    smaller: (reduced bits, vertex of the reduced graph to re-duplicate).

    Removing a 1 from a run of length >= 2 undoes a joined copy of that
    run's dominating vertex; when the sequence starts (0, 1, 0...), the
    lone leading 1 is a joined copy of the first isolated vertex of the
    merged graph.
    """
    blocks = block_form(CreationSequence(bits)).blocks
    out = []
    pos = 0
    for i, (k, t) in enumerate(blocks):
        if t >= 2:
            reduced = []
            for j, (kj, tj) in enumerate(blocks):
                reduced += [0] * kj + [1] * (tj - 1 if j == i else tj)
            out.append((tuple(reduced), pos + k))
        pos += k + t
    if len(blocks) >= 2 and blocks[0] == (1, 1):
        reduced = [0] * (1 + blocks[1][0])
        for j, (kj, tj) in enumerate(blocks[1:], start=1):
            reduced += ([1] * tj) if j == 1 else ([0] * kj + [1] * tj)
        out.append((tuple(reduced), 0))
    return out


@functools.lru_cache(maxsize=None)
def reaches_by_jdup_reference(base, target):
    """Is target obtainable from base by joined duplications?  Searched
    down every joined-duplication reduction of target."""
    if base == target:
        return True
    if len(target) <= len(base):
        return False
    return any(reaches_by_jdup_reference(base, r) for r, _ in jdup_reductions(target))


def test_reach_closed_form_matches_reduction_search():
    bases = {G(text).creation.bits for text in bounds._TRANSFER_BASES}
    bases |= {seq.bits for n in range(2, 7) for seq in enumerate_connected(n)}
    targets = [seq.bits for n in range(2, 15) for seq in enumerate_connected(n)]
    positives = 0
    for base in sorted(bases):
        for target in targets:
            want = reaches_by_jdup_reference(base, target)
            blocks = (block_form(CreationSequence(base)).blocks,
                      block_form(CreationSequence(target)))
            assert bounds._jdup_reaches(*blocks) == want, (base, target)
            positives += want
    reaches_by_jdup_reference.cache_clear()
    jdup_reductions.cache_clear()
    assert positives > len(bases)


def test_jdup_reductions_shapes():
    red = dict(jdup_reductions((0, 1, 0, 1, 1)))
    assert (0, 1, 0, 1) in red  # drop one 1 from the final run
    red2 = jdup_reductions((0, 1, 0, 0, 1))
    assert ((0, 0, 0, 1), 0) in red2  # unsplit the leading (0,1)
    assert jdup_reductions((0, 1)) == []


def test_jdup_monotone_upper():
    for n in range(2, 8):
        for seq in enumerate_connected(n):
            g = build_graph(seq)
            u = classify_q(g).upper
            for v in range(g.n):
                try:
                    h = jdup_graph(g, v)
                except NotThreshold:
                    continue
                assert classify_q(h).upper <= u, (seq.text, v)


# ---------------------------------------------------------------- generic bound


def test_ub_section12_values():
    b, cert = ub_section12(G("0101001"))  # s = 3
    assert b == 6 and verify_certificate(G("0101001"), cert)

    b, _ = ub_section12(G("0001001"))  # s = 2
    assert b == 5
    assert classify_text("0001001").upper == 4  # classifier takes the min

    qb = classify_text("000111")  # s = 1: complete split beats the generic bound
    assert qb.upper <= 3

    # the kind is the chain's own, whatever the parities of the seed: a bare
    # seed is a ConstructionUB, a grown one a DupChainUB
    for text, kind in (("00101", "ConstructionUB"), ("01010001", "DupChainUB"),
                       ("0101", "ConstructionUB"), ("000111", "DupChainUB")):
        _, cert = ub_section12(G(text))
        assert cert.kind == kind and verify_certificate(G(text), cert), text


def test_ub_section12_case1_s5():
    f = section12_factor(5, 3)
    A = gram(f)
    assert q_of_matrix(A) <= 7 and in_pattern(A, f.target)


def test_self_checks_raise_named_error(monkeypatch):
    # explicit raises, not asserts, so `python -O` keeps the checks; every
    # eigenvalue count differs from the last, so no count matches its claim,
    # and every chain's one eigensolve comes back shifted off the spectrum
    # the chain carried
    counts = itertools.count(90)
    monkeypatch.setattr(bounds, "q_of_matrix", lambda A: next(counts))
    monkeypatch.setattr(bounds, "eigen_sym", lambda A: eigen_sym(A) + 1.0)
    with pytest.raises(SelfCheckError):
        q2_certificate(G("0101011"))
    with pytest.raises(SelfCheckError):
        chain_certificate(G("0001001"))
    with pytest.raises(SelfCheckError):
        ub_section12(G("0101001"))
    with pytest.raises(SelfCheckError, match="strong spectral"):
        bounds._transfer_matrix()
    # a paired-column chain that lands on another sequence
    elsewhere = _section12_plan(block_form(G("0001001").creation))
    monkeypatch.setattr(bounds, "run_chain", lambda plan: run_chain(elsewhere))
    with pytest.raises(SelfCheckError, match="landed on"):
        ub_section12(G("0101001"))


def test_chains_land_in_creation_order():
    # every chain matrix comes back in the creation order of the sequence
    # its plan fits, with no peeling: the plans of G's own form and of its
    # leading merge alike
    merged = 0
    for n in range(2, 12):
        for seq in enumerate_connected(n):
            g, plans = build_graph(seq), _source_plans(block_form(seq))
            for plan in plans:
                assert in_pattern(run_chain(plan)[0], g), (seq.text, _chain_steps(plan))
            merged += len(plans) == 2
    assert merged


def test_lone_zero_s2_forms_need_no_lift():
    # (0, 1^t, 0^k, 1^u) merges to a star, whose value 3 its own chain
    # already reaches, so the tie keeps G's own form
    checked = 0
    for n in range(4, 13):
        for seq in enumerate_connected(n):
            bf = block_form(seq)
            if bf.s == 2 and bf.ks[0] == 1:
                own, merge = _source_plans(bf)
                assert chain_certificate(build_graph(seq)).value == 3, seq.text
                assert merge.seed.construction_id == "star", seq.text
                assert _chain_steps(_chain_plan(bf)) == _chain_steps(own), seq.text
                checked += 1
    assert checked == sum(math.comb(n - 2, 2) for n in range(4, 13))


def test_classify_runs_each_chain_once(monkeypatch):
    # one classify_q call realizes at most one chain, that chain lands on G
    # itself, and no matrix is peeled to find its creation order
    runs, peels = [], []

    def counting(plan):
        A, spectrum = run_chain(plan)
        runs.append((A, _chain_steps(plan)))
        return A, spectrum

    def peeling(adjacency):
        peels.append(adjacency)
        return creation_order_of(adjacency)

    monkeypatch.setattr(bounds, "run_chain", counting)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("threshq") and hasattr(mod, "creation_order_of"):
            monkeypatch.setattr(mod, "creation_order_of", peeling)
    realized = 0
    for seq in enumerate_connected(10):
        runs.clear()
        g = build_graph(seq)
        classify_q(g)
        assert len(runs) <= 1, (seq.text, [st for _, st in runs])
        assert all(in_pattern(A, g) for A, _ in runs), seq.text
        realized += len(runs)
    assert realized
    assert not peels


def test_classify_parses_the_block_form_once(monkeypatch):
    # every layer of one classify_q call, and of its verification, reads
    # G's block form from G, so G's sequence is parsed at most once
    parsed = []

    def parsing(seq):
        parsed.append(seq)
        return block_form(seq)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("threshq") and getattr(mod, "block_form", None) is block_form:
            monkeypatch.setattr(mod, "block_form", parsing)
    seqs = [seq for n in range(2, 11) for seq in enumerate_connected(n)]
    seqs.append(G("0100010001100011000111000111").creation)  # `long`-shaped, s = 6
    for seq in seqs:
        parsed.clear()
        g = build_graph(seq)
        assert verify_qbound(g, classify_q(g)), seq.text
        assert sum(p is g.creation for p in parsed) <= 1, seq.text


def test_section12_certificate_matches_fresh_chain():
    # the general bound, built on its own, returns the paired-column chain's
    # own certificate on every s >= 2 form with a zero-run of length >= 2:
    # its value is the q the matrix reaches, and the bound sits beside it
    checked = 0
    for n in range(2, 11):
        for seq in enumerate_connected(n):
            plan = _section12_plan(block_form(seq))
            if plan is None:
                continue
            g = build_graph(seq)
            bound, cert = ub_section12(g)
            A, _ = run_chain(plan)
            assert bound == (block_form(seq).s + 9) // 2, seq.text
            assert cert.value == q_of_matrix(cert.payload["matrix"]) <= bound, seq.text
            assert cert.provenance == CHAIN and "achieved" not in cert.payload, seq.text
            assert np.array_equal(cert.payload["matrix"], A), seq.text
            assert cert.payload["chain"] == _chain_steps(plan)
            assert verify_certificate(g, cert), seq.text
            checked += 1
    assert checked


def _every_plan(seq):
    """(plan kind, plan) of every chain that fits seq: the plan of each
    source, G's own form (the star for s = 1, a catalog seed or the
    alternating seed when one fits) and its leading merge, and the
    paired-column plan."""
    bf = block_form(seq)
    yield from zip(("own form", "leading-merge"), _source_plans(bf))
    if (plan := _section12_plan(bf)) is not None:
        yield "paired-column", plan


def _every_chain(seq):
    """(plan kind, matrix, carried spectrum) of every chain that fits seq."""
    for kind, plan in _every_plan(seq):
        yield kind, *run_chain(plan)


def _carries_its_spectrum(seq):
    kinds = set()
    for kind, A, spectrum in _every_chain(seq):
        assert len(spectrum) == len(A) and spectra_agree(eigen_sym(A), spectrum), (seq.text, kind)
        kinds.add(kind)
    return kinds


def test_carried_spectrum_matches_eigensolve_to_n11():
    kinds = set()
    for n in range(2, 12):
        for seq in enumerate_connected(n):
            kinds |= _carries_its_spectrum(seq)
    assert kinds == {"own form", "paired-column", "leading-merge"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=62))
def test_carried_spectrum_matches_eigensolve_to_n64(middle):
    _carries_its_spectrum(CreationSequence((0, *middle, 1)))


def _reference_chain(plan):
    """A chain grown step by step through the public dup_realization and
    jdup_realization, each step a fresh (n+1) x (n+1) matrix, then
    permuted into creation order: the reference for the in-place chain."""
    A = gram(plan.seed)
    spectrum = spectrum_values(plan.seed.expected_spectrum)
    order = list(range(len(A)))
    for v, lam in plan.dup_steps:
        A = dup_realization(A, v, lam, spectrum)
        spectrum = np.append(spectrum, lam)
        order.insert(order.index(v) + 1, len(order))
    for v in plan.jdup_steps:
        A = jdup_realization(A, v, spectrum)
        spectrum = np.append(spectrum, spectrum.min())
        order.insert(order.index(v) + 1, len(order))
    return A[np.ix_(order, order)], spectrum


def _raising_step(monkeypatch, grow, plan):
    """(1-based index of the step that raised, error type) when grow(plan)
    realizes the plan, counted at the grower every path steps through."""
    steps = []
    for name in ("dup", "jdup"):
        def counting(self, *args, _step=getattr(ChainGrower, name), **kwargs):
            steps.append(args)
            return _step(self, *args, **kwargs)
        monkeypatch.setattr(ChainGrower, name, counting)
    with pytest.raises((DiagonalNotEigenvalue, DegenerateRow)) as info:
        grow(plan)
    monkeypatch.undo()
    return len(steps), info.type


def test_bad_plans_fail_at_the_same_step_as_the_public_steps(monkeypatch):
    # each bad plan raises the same typed error at the same step from the
    # in-place chain as from step-by-step dup_realization / jdup_realization
    alternating = construct_library("thm00", t=2)  # diagonal 3, 1, 5, ...; spectrum 0, 3, 7
    zero_row = GramFactor(np.array([[1.0], [0.0]]), G("01"), "zero-row",
                          expected_spectrum=((0.0, 1), (1.0, 1)))
    bad_plans = [
        # a dup slot whose diagonal is not its lam: a_11 = 1, lam = 3
        (bounds.ChainPlan(alternating, ((0, 3.0), (0, 3.0), (1, 3.0)), ()), 3, DiagonalNotEigenvalue),
        # a lam outside the carried spectrum: a_22 = 5
        (bounds.ChainPlan(alternating, ((0, 3.0), (2, 5.0)), (1,)), 2, DiagonalNotEigenvalue),
        # a jdup of a vertex whose diagonal is lambda_min = 0
        (bounds.ChainPlan(zero_row, (), (0, 1)), 2, DegenerateRow),
    ]
    for plan, step, error in bad_plans:
        assert _raising_step(monkeypatch, run_chain, plan) == (step, error), _chain_steps(plan)
        assert _raising_step(monkeypatch, _reference_chain, plan) == (step, error), _chain_steps(plan)


def _grows_like_the_reference(seq):
    kinds = set()
    for kind, plan in _every_plan(seq):
        A, spectrum = run_chain(plan)
        ref_A, ref_spectrum = _reference_chain(plan)
        assert np.array_equal(A, ref_A), (seq.text, kind)
        assert np.array_equal(spectrum, ref_spectrum), (seq.text, kind)
        kinds.add(kind)
    return kinds


def test_in_place_chains_match_step_by_step_growth_to_n11():
    # the chain grown in one buffer is the chain the public step functions
    # grow, bit for bit, matrix and carried spectrum alike
    kinds = set()
    for n in range(2, 12):
        for seq in enumerate_connected(n):
            kinds |= _grows_like_the_reference(seq)
    assert kinds == {"own form", "paired-column", "leading-merge"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=62))
def test_in_place_chains_match_step_by_step_growth_to_n64(middle):
    _grows_like_the_reference(CreationSequence((0, *middle, 1)))


def test_first_parity_ordered_seed_always_fits():
    # for every s >= 2 form with a zero-run of length >= 2, the paired-column
    # seed first in parity order (even parities on both sides of m, then
    # smallest m) fits, so no other paired-column seed is ever built
    checked = 0
    for n in range(4, 15):
        for seq in enumerate_connected(n):
            bf = block_form(seq)
            ms = [m for m in range(1, bf.s + 1) if bf.ks[m - 1] >= 2]
            if bf.s < 2 or not ms:
                assert _section12_plan(bf) is None, seq.text
                continue
            first = min(ms, key=lambda m: ((m - 1) % 2 + (bf.s - m) % 2, m))
            seed = section12_factor(bf.s, first)
            assert bounds._grow(seed.target.block_form.blocks, seed.dup_slots, bf) is not None, seq.text
            assert _section12_plan(bf).seed.params["m"] == first, seq.text
            checked += 1
    assert checked > 7000


def test_classify_builds_each_paired_column_seed_once(monkeypatch):
    # one classify_q builds each source's first fitting seed once and no
    # other factor (the catalog seeds are built at import), realizes one of
    # those seeds, and grows no chain step through the copying public step
    # functions
    prebuilt = {id(build()) for entries in bounds._CATALOG_SEEDS.values() for _, _, build in entries}
    seqs = [seq for n in range(2, 12) for seq in enumerate_connected(n)]
    seqs.append(G("0100010001100011000111000111").creation)  # `long`-shaped, s = 6
    firsts = {seq.text: [plan.seed for plan in _source_plans(block_form(seq))] for seq in seqs}
    built, realized = [], []

    def label(f):
        return f.construction_id, f.params

    def building(s, m):
        built.append(section12_factor(s, m))
        return built[-1]

    def constructing(construction_id, **params):
        built.append(construct_library(construction_id, **params))
        return built[-1]

    def realizing(plan):
        realized.append(plan.seed)
        return run_chain(plan)

    def copying(*args, **kwargs):
        raise AssertionError("a chain step copied the whole matrix")

    monkeypatch.setattr(bounds.gramlib, "section12_factor", building)
    monkeypatch.setattr(bounds.gramlib, "construct_library", constructing)
    monkeypatch.setattr(bounds, "run_chain", realizing)
    monkeypatch.setattr(bounds.gramlib, "dup_realization", copying)
    monkeypatch.setattr(bounds.gramlib, "jdup_realization", copying)
    chains = two_built = 0
    for seq in seqs:
        built.clear()
        realized.clear()
        classify_q(build_graph(seq))
        if not realized:
            assert not built, seq.text
            continue
        sources = firsts[seq.text]
        assert [label(f) for f in built] == [label(f) for f in sources if id(f) not in prebuilt], seq.text
        candidates = built + [f for f in sources if id(f) in prebuilt]
        assert len(realized) == 1 and any(realized[0] is f for f in candidates), seq.text
        chains += 1
        two_built += len(built) == 2
    # both sources build a paired-column seed, and the leading merge's
    # (5, 1) at q = 5 wins over G's own (6, 2) at q = 7
    assert [(f.params["s"], f.params["m"]) for f in built] == [(6, 2), (5, 1)]
    assert realized[0] is built[1]
    assert chains and two_built


@pytest.mark.parametrize("n", [128, 256])
def test_carried_spectrum_survives_long_chains(n):
    # hundreds of rotations in one chain stay inside the check's tolerance
    rng = random.Random(n)
    assert _carries_its_spectrum(_random_connected(rng, n))


def test_wrong_recorded_spectrum_fails_the_chain_check():
    g = G("0001001")
    plan = _chain_plan(block_form(g.creation))
    assert plan.seed.construction_id == "thm10"  # spectrum 0^2, 1, 3 -+ sqrt(2)
    lo, hi = 3 - math.sqrt(2), 3 + math.sqrt(2)
    for wrong in (((0.0, 2), (1.0, 1), (lo, 1), (hi + 0.5, 1)),   # a value off
                  ((0.0, 1), (1.0, 2), (lo, 1), (hi, 1))):        # a multiplicity moved
        bad = dataclasses.replace(plan, seed=dataclasses.replace(plan.seed, expected_spectrum=wrong))
        A, spectrum = run_chain(bad)
        with pytest.raises(SelfCheckError, match="spectrum"):
            bounds._checked(A, spectrum, g)


def test_one_classification_eigensolve_budget(monkeypatch):
    # one classify_q eigensolves the OrthoUB completion once, the realized
    # chain once and each paired-column seed's cogram once, and nothing else
    from threshq import spectra

    solves, factors = [], []

    def solving(A):
        solves.append(len(A))
        return eigen_sym(A)

    def building(s, m):
        factors.append((s, m))
        return section12_factor(s, m)

    for mod in (spectra, bounds.gramlib, bounds):
        monkeypatch.setattr(mod, "eigen_sym", solving)
    monkeypatch.setattr(bounds.gramlib, "section12_factor", building)
    kinds = set()
    for seq in (seq for n in range(2, 13) for seq in enumerate_connected(n)):
        solves.clear()
        factors.clear()
        (upper,) = classify_q(build_graph(seq)).upper_certs
        chain = upper.provenance == "duplication chain"
        assert len(solves) == (upper.kind == "OrthoUB") + chain + len(factors), (seq.text, solves)
        kinds.add((upper.kind, len(factors)))
    assert {("OrthoUB", 0), ("TableCitation", 0), ("DupChainUB", 2)} <= kinds


def test_one_symmetry_check_per_certificate_matrix(monkeypatch):
    # classify_q validates its certificate matrix once, in that matrix's one
    # eigensolve, and each paired-column seed's cogram once; a transfer
    # citation's matrix was checked at import.  verify_certificate then
    # validates a matrix certificate's matrix once; a transfer citation's
    # is validated by its eigensolve and by `ssp_check`.
    from threshq.spectra import check_symmetric

    checks, factors = [], []

    def checking(A):
        checks.append(len(A))
        check_symmetric(A)

    def building(s, m):
        factors.append((s, m))
        return section12_factor(s, m)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("threshq") and getattr(mod, "check_symmetric", None) is check_symmetric:
            monkeypatch.setattr(mod, "check_symmetric", checking)
    monkeypatch.setattr(bounds.gramlib, "section12_factor", building)
    kinds = set()
    for seq in (seq for n in range(2, 13) for seq in enumerate_connected(n)):
        g = build_graph(seq)
        checks.clear()
        factors.clear()
        (upper,) = classify_q(g).upper_certs
        matrix = upper.kind != "TableCitation"
        assert checks.count(g.n) == matrix and len(checks) == matrix + len(factors), (seq.text, checks)
        checks.clear()
        assert verify_certificate(g, upper), seq.text
        assert checks == [len(upper.payload["matrix"])] * (1 if matrix else 2), (seq.text, checks)
        kinds.add(upper.kind)
    assert kinds == {"OrthoUB", "ConstructionUB", "DupChainUB", "TableCitation"}


# A `long`-shaped sequence: order 28, ones-runs (1, 1, 2, 2, 3, 3), a lone
# leading 0; and a complete split graph, whose chain grows the star seed.
@pytest.mark.parametrize("text", ["0100010001100011000111000111", "0000000011"])
def test_one_eigensolve_per_realized_chain(monkeypatch, text):
    # besides the (s+1) x (s+1) cograms that give a paired-column seed its
    # spectrum, classification eigensolves only n x n chain matrices, at
    # most once per chain realized, and never a seed's gram
    g = G(text)
    s = block_form(g.creation).s
    orders, chains = [], []

    def solving(A):
        orders.append(len(A))
        return eigen_sym(A)

    def realizing(plan):
        chains.append(plan)
        return run_chain(plan)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("threshq") and getattr(mod, "eigen_sym", None) is eigen_sym:
            monkeypatch.setattr(mod, "eigen_sym", solving)
    monkeypatch.setattr(bounds, "run_chain", realizing)
    qb = classify_q(g)
    monkeypatch.undo()
    assert verify_qbound(g, qb)
    seed_orders = {plan.seed.n for plan in chains}
    assert chains and orders.count(g.n) <= len(chains), orders
    assert all(k == g.n or k <= s + 1 for k in orders), orders
    assert not seed_orders & (set(orders) - {g.n}), (seed_orders, orders)


@pytest.mark.parametrize("n", range(2, 11))
def test_generic_bound_holds_to_n10(n):
    for seq in enumerate_connected(n):
        qb = classify_q(build_graph(seq))
        s = block_form(seq).s
        assert qb.upper <= (s + 9) // 2, seq.text


def _census_snapshot(seqs):
    """Interval and the raw bytes of every certificate array, per sequence."""
    snap = {}
    for seq in seqs:
        qb = classify_q(build_graph(seq))
        arrays = tuple((c.kind, key, v.tobytes())
                       for c in qb.lower_certs + qb.upper_certs
                       for key, v in sorted(c.payload.items()) if isinstance(v, np.ndarray))
        snap[seq.text] = (qb.lower, qb.upper, arrays)
    return snap


@pytest.mark.parametrize("seed", [1, 17, 99])
def test_classify_values_independent_of_seed(seed):
    # classify_q takes no seed: seeding the global generators and running
    # the n <= 9 census in a shuffled order must agree with an in-order run
    # byte for byte
    seqs = [seq for n in range(2, 10) for seq in enumerate_connected(n)]
    forward = _census_snapshot(seqs)
    random.seed(seed)
    np.random.seed(seed)
    order = np.random.default_rng(seed).permutation(len(seqs))
    shuffled = _census_snapshot([seqs[i] for i in order])
    assert shuffled == forward
    assert all(arrays for _, _, arrays in forward.values())


def _random_connected(rng, n):
    return CreationSequence((0,) + tuple(rng.randint(0, 1) for _ in range(n - 2)) + (1,))


@pytest.mark.parametrize("n", [32, 48, 64])
def test_classify_scales_past_the_census(n):
    # past the census orders the classifier still answers fast and sound,
    # and at n = 64 joined duplication still never raises the upper side
    rng = random.Random(n)
    for i in range(10):
        seq = _random_connected(rng, n)
        g = build_graph(seq)
        start = time.perf_counter()
        qb = classify_q(g)
        assert time.perf_counter() - start < 1.0, seq.text
        assert verify_qbound(g, qb), seq.text
        assert qb.upper <= (block_form(seq).s + 9) // 2, seq.text
        if n == 64 and i < 2:
            for v in range(n):
                try:
                    h = jdup_graph(g, v)
                except NotThreshold:
                    continue
                assert classify_q(h).upper <= qb.upper, (seq.text, v)
