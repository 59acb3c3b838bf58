import itertools
import random
from fractions import Fraction as F

import pytest

from rauzygasket.graph import (
    START,
    NonComposablePath,
    RauzyPath,
    build_graph,
    cocycle_of,
    enumerate_paths,
    is_complete,
    is_positive,
    make_step,
    path_from_blocks,
    path_from_kinds,
    verify_complete_implies_positive,
)
from rauzygasket.induction import Step, _mat_mul, _mat_vec, rauzy_step
from rauzygasket.measures import dual_update

from test_induction import random_system


def test_graph_shape():
    g = build_graph()
    assert len(g.vertices) == 6
    assert len(g.edges) == 18
    assert any(e.src == (1, 2, 3) and e.dst == (2, 1, 3) for e in g.edges)
    assert not any(e.src == (1, 2, 3) and e.dst == (3, 2, 1) for e in g.edges)
    assert g.strongly_connected()


def test_graph_winner_is_leading_letter():
    g = build_graph()
    for e in g.edges:
        assert e.winner == e.src[0]


def test_graph_json_has_hole_sink():
    obj = build_graph().to_json()
    assert "hole" in obj["vertices"]
    assert obj["connected"] is True
    hole_edges = [e for e in obj["edges"] if e["to"] == "hole"]
    assert len(hole_edges) == 6


# --- cocycle matrices -------------------------------------------------------

def test_cocycle_empty_path_is_identity():
    assert cocycle_of(RauzyPath(start=START)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not is_positive(RauzyPath(start=START))


def test_single_step_block_shape():
    path = path_from_kinds(START, ["swap"])
    m = cocycle_of(path)
    # winner letter 1: its row gains the other two entries
    assert m == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
    assert tuple(zip(*m)) == ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    # the dual cocycle B = (B*)^T on the all-ones weights: column sums of B*
    assert tuple(map(sum, zip(*m))) == dual_update((1, 1, 1), 1) == (1, 2, 2)
    assert not is_positive(path)


def _det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_cocycle_det_unimodular():
    rng = random.Random(3)
    kinds = ("stay", "swap", "cyc")
    for _ in range(200):
        path = path_from_kinds(START, [rng.choice(kinds) for _ in range(8)])
        assert _det(cocycle_of(path)) in (1, -1)


def test_cocycle_concatenation():
    rng = random.Random(5)
    kinds = ("stay", "swap", "cyc")
    for _ in range(100):
        seq = [rng.choice(kinds) for _ in range(9)]
        cut = rng.randrange(10)
        p = path_from_kinds(START, seq)
        p1 = path_from_kinds(START, seq[:cut])
        p2 = path_from_kinds(p1.end, seq[cut:])
        assert cocycle_of(p1 + p2) == cocycle_of(p)
        assert _mat_mul(cocycle_of(p1), cocycle_of(p2)) == cocycle_of(p)


def test_non_composable():
    p1 = path_from_kinds(START, ["swap"])
    with pytest.raises(NonComposablePath):
        p1 + path_from_kinds(START, ["swap"])    # wrong start state
    with pytest.raises(NonComposablePath):
        RauzyPath(start=START, steps=(make_step((2, 1, 3), "swap"),))


def test_accelerated_block_expands_to_elementary_product():
    blocks = path_from_blocks(START, [(3, "cyc"), (2, "swap")])
    elementary = path_from_kinds(
        START, ["stay", "stay", "cyc"] + ["stay", "swap"]
    )
    assert cocycle_of(blocks) == cocycle_of(elementary)


def test_completeness_examples():
    p_all_one = path_from_kinds(START, ["stay", "stay", "stay"])
    assert p_all_one.winners() == {1}
    assert not is_complete(p_all_one)
    p_complete = path_from_kinds(START, ["cyc", "cyc", "cyc"])
    assert [st.winner for st in p_complete.steps] == [1, 2, 3]
    assert is_complete(p_complete)
    p_two = path_from_kinds(START, ["swap", "swap"])
    assert [st.winner for st in p_two.steps] == [1, 2]
    assert not is_complete(p_two)


def test_enumerate_paths_counts_and_order():
    assert len(list(enumerate_paths(START, 0))) == 1
    one = list(enumerate_paths(START, 1))
    g = build_graph()
    assert len(one) == len(g.out_edges(START)) == 3
    two = list(enumerate_paths(START, 2))
    assert len(two) == 9
    rank = {"stay": 0, "swap": 1, "cyc": 2}
    keys = [tuple(rank[st.kind] for st in p.steps) for p in two]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_complete_implies_positive_small_direct():
    # direct integer-matrix check, independent of the quotient automaton
    for start in itertools.permutations((1, 2, 3)):
        for length in range(1, 8):
            for path in enumerate_paths(start, length):
                if is_complete(path):
                    assert is_positive(path), path
    report = verify_complete_implies_positive(7)
    assert report["ok"]


def test_positive_once_stays_positive():
    rng = random.Random(9)
    kinds = ("stay", "swap", "cyc")
    for _ in range(50):
        seq = [rng.choice(kinds) for _ in range(12)]
        state, seen_positive = START, False
        for cut in range(1, 13):
            p = path_from_kinds(START, seq[:cut])
            if seen_positive:
                assert is_positive(p)
            seen_positive = seen_positive or is_positive(p)


def test_realized_path_recovers_lengths():
    rng = random.Random(17)
    for _ in range(50):
        s = random_system(rng)
        cur, steps, scale = s, [], F(1)
        for _ in range(6):
            out = rauzy_step(cur)
            if not isinstance(out, Step):
                break
            steps.append(make_step(cur.order, out.kind))
            scale *= cur.sorted_lengths()[0]
            cur = out.system
        if not steps:
            continue
        path = RauzyPath(start=s.order, steps=tuple(steps))
        unnorm = tuple(x * scale for x in cur.lengths)
        assert _mat_vec(cocycle_of(path), unnorm) == s.lengths


def test_path_json():
    p = path_from_blocks(START, [(2, "cyc")])
    assert p.to_json() == [
        {"winner": 1, "n": 2, "from": [1, 2, 3], "to": [2, 3, 1]}
    ]
