import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzygasket.induction import (
    Hole,
    HoleAt,
    NonPositive,
    NotNormalized,
    Step,
    Survived,
    Tie,
    TieEncountered,
    accelerated_step,
    classify_thin,
    format_scalar,
    make_system,
    parse_fraction,
    rauzy_step,
)

from cubicfield import perron_lengths
from intervals import (
    IntervalPair,
    IntervalPairSystem,
    PointOutsideSupport,
    explore_orbit,
    reduction_right,
    special_interval_system,
    transmission_right,
    uncovered_gaps,
)


def random_system(rng, denom=10**6):
    """Generic rational system; huge denominators make exact ties
    vanishingly rare."""
    while True:
        cuts = sorted(rng.randrange(1, denom) for _ in range(2))
        parts = (F(cuts[0], denom), F(cuts[1] - cuts[0], denom), F(denom - cuts[1], denom))
        try:
            return make_system(*parts)
        except TieEncountered:
            continue


# --- make_system -------------------------------------------------------------

def test_make_system_sorted_order():
    s = make_system(F(3, 5), F(1, 4), F(3, 20))
    assert s.order == (1, 2, 3)
    assert s.sorted_lengths() == (F(3, 5), F(1, 4), F(3, 20))


def test_make_system_tie():
    with pytest.raises(TieEncountered):
        make_system(F(1, 3), F(1, 3), F(1, 3))


def test_make_system_not_normalized():
    with pytest.raises(NotNormalized):
        make_system(F(1, 2), F(1, 4), F(1, 8))


def test_make_system_non_positive():
    with pytest.raises(NonPositive):
        make_system(F(3, 2), F(-3, 4), F(1, 4))


def test_make_system_relabels():
    s = make_system(F(1, 4), F(3, 5), F(3, 20))
    assert s.order == (2, 1, 3)
    assert s.length(2) == F(3, 5)


def test_serialization_roundtrip():
    s = make_system(F(3, 5), F(1, 4), F(3, 20))
    obj = s.to_json()
    assert obj == {"lengths": ["3/5", "1/4", "3/20"], "order": [1, 2, 3]}
    assert make_system(*map(parse_fraction, obj["lengths"])) == s
    # lengths written past the interpreter's 4,300-digit int-to-str cap
    x = F(1, 10**5000 + 1)
    big = make_system(F(1, 2) + x, F(1, 3), F(1, 6) - x)
    assert make_system(*map(parse_fraction, big.to_json()["lengths"])) == big


def test_parse_fraction_rejects_decimals():
    with pytest.raises(ValueError):
        parse_fraction("0.5")
    with pytest.raises(ValueError, match="'1/0'"):
        parse_fraction("1/0")
    assert parse_fraction("7/2") == F(7, 2)
    assert parse_fraction("3") == F(3)
    # int() would read these; every length takes only a sign and ASCII digits
    for text in ("1_0/3", "3/1_0", "\u0663/4", "-\u0663", "+", "", "- 3", "1/+"):
        with pytest.raises(ValueError):
            parse_fraction(text)
    assert parse_fraction(" -3/+4 ") == F(-3, 4)


# --- transmission / reduction --------------------------------------------------

def test_transmission_examples():
    sys0 = special_interval_system(make_system(F(3, 5), F(1, 4), F(3, 20)))
    out = transmission_right(sys0)
    # covering pair untouched
    assert out.pairs[0] == sys0.pairs[0]
    # contained right bases pass through the covering isometry
    assert out.pairs[1].right == (F(7, 20), F(3, 5))
    assert out.pairs[2].right == (F(9, 20), F(3, 5))


def test_reduction_example():
    sys0 = special_interval_system(make_system(F(3, 5), F(1, 4), F(3, 20)))
    red = reduction_right(transmission_right(sys0))
    assert red.support == (F(0), F(3, 5))
    assert red.pairs[0].left == (F(0), F(1, 5))
    assert red.pairs[0].right == (F(2, 5), F(3, 5))


def test_reduction_hole_when_cut_would_be_negative():
    sys0 = special_interval_system(make_system(F(2, 5), F(7, 20), F(1, 4)))
    out = reduction_right(transmission_right(sys0))
    assert isinstance(out, Hole)


def test_reduction_hole_when_endpoint_uncovered():
    pairs = (
        IntervalPair((F(0), F(1, 4)), (F(1, 4), F(1, 2))),
        IntervalPair((F(0), F(1, 8)), (F(1, 2), F(5, 8))),
        IntervalPair((F(0), F(1, 16)), (F(5, 8), F(11, 16))),
    )
    sys0 = IntervalPairSystem(support=(F(0), F(1)), pairs=pairs)
    assert isinstance(reduction_right(sys0), Hole)


def test_step_equals_transmission_reduction_rescale():
    rng = random.Random(20240901)
    for _ in range(1000):
        s = random_system(rng)
        out = rauzy_step(s)
        interval = transmission_right(special_interval_system(s))
        reduced = reduction_right(interval)
        if isinstance(out, Hole):
            assert isinstance(reduced, Hole)
            continue
        if isinstance(out, Tie):
            continue  # no canonical sorted comparison at a tie
        assert not isinstance(reduced, Hole)
        scale = reduced.support[1] - reduced.support[0]
        lengths = sorted(
            ((p.left[1] - p.left[0]) / scale for p in reduced.pairs), reverse=True
        )
        assert tuple(lengths) == out.system.sorted_lengths()


# --- rauzy_step -----------------------------------------------------------------

def test_step_example():
    out = rauzy_step(make_system(F(3, 5), F(1, 4), F(3, 20)))
    assert isinstance(out, Step)
    assert out.winner == 1
    assert out.system.lengths == (F(1, 3), F(5, 12), F(1, 4))
    assert out.system.order == (2, 1, 3)
    assert (out.n, out.kind) == (1, "swap")
    assert out.matrix == ((1, 1, 1), (1, 0, 0), (0, 0, 1))


def test_step_hole():
    assert isinstance(rauzy_step(make_system(F(2, 5), F(7, 20), F(1, 4))), Hole)


def test_step_tie():
    assert isinstance(rauzy_step(make_system(F(1, 2), F(3, 10), F(1, 5))), Tie)


@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_step_invariants(x, y, z):
    total = x + y + z
    try:
        s = make_system(F(x, total), F(y, total), F(z, total))
    except TieEncountered:
        return
    out = rauzy_step(s)
    a, b, c = s.sorted_lengths()
    assert isinstance(out, Hole) == (a < b + c)
    assert (a < b + c) == (a < F(1, 2))
    if not isinstance(out, Step):
        return
    assert sum(out.system.lengths) == 1
    new_sorted = out.system.sorted_lengths()
    total_new = a  # unnormalized new lengths sum to the old leader
    unnorm = tuple(v * total_new for v in new_sorted)
    m = out.matrix
    recovered = tuple(
        sum(m[i][j] * unnorm[j] for j in range(3)) for i in range(3)
    )
    assert recovered == (a, b, c)
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert det in (1, -1)


# --- accelerated_step --------------------------------------------------------------

def test_accelerated_example():
    out = accelerated_step(make_system(F(7, 10), F(9, 50), F(3, 25)))
    assert isinstance(out, Step)
    assert out.n == 2
    assert out.system.lengths == (F(1, 4), F(9, 20), F(3, 10))
    assert out.system.order == (2, 3, 1)
    assert out.matrix == ((2, 2, 1), (1, 0, 0), (0, 1, 0))


def test_accelerated_single_win_matches_elementary():
    s = make_system(F(3, 5), F(1, 4), F(3, 20))
    acc = accelerated_step(s)
    assert acc.n == 1
    assert acc == rauzy_step(s)


def test_accelerated_immediate_hole():
    out = accelerated_step(make_system(F(2, 5), F(7, 20), F(1, 4)))
    assert out == Hole(substeps=0)


def test_accelerated_matrix_is_elementary_product():
    rng = random.Random(7)
    for _ in range(300):
        s = random_system(rng)
        acc = accelerated_step(s)
        if not isinstance(acc, Step):
            continue
        if acc.n == 1:  # the first elementary step is not a stay
            assert acc == rauzy_step(s)
        cur, product = s, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for _ in range(acc.n):
            step = rauzy_step(cur)
            product = tuple(
                tuple(sum(product[i][k] * step.matrix[k][j] for k in range(3))
                      for j in range(3))
                for i in range(3)
            )
            cur = step.system
        assert product == acc.matrix
        assert cur == acc.system


# --- classify_thin -------------------------------------------------------------------

def test_classify_immediate_hole():
    out = classify_thin(make_system(F(2, 5), F(7, 20), F(1, 4)), 10)
    assert out == HoleAt(iteration=1)


def test_classify_frozen_sample():
    # exact iteration of (3/5, 1/4, 3/20): one swap step to (5/12, 1/3, 1/4),
    # whose leader is below 1/2, so the second generalized iteration holes
    out = classify_thin(make_system(F(3, 5), F(1, 4), F(3, 20)), 50)
    assert out == HoleAt(iteration=2)


def test_classify_perron_point_survives_any_depth():
    a, b, c = perron_lengths()
    s = make_system(a, b, c)
    assert s.order == (1, 2, 3)
    first = accelerated_step(s)
    assert isinstance(first, Step)
    assert first.n == 1 and first.kind == "cyc"
    # exactly invariant: the renormalized lengths come back permuted
    assert sorted(first.system.lengths, key=float) == sorted(s.lengths, key=float)
    assert classify_thin(s, 50) == Survived(depth=50)


def test_every_rational_point_dies():
    rng = random.Random(11)
    for _ in range(25):
        s = random_system(rng, denom=997)
        out = classify_thin(s, 10**4)
        assert isinstance(out, (HoleAt,)) or not isinstance(out, Survived)


# --- orbits -----------------------------------------------------------------------

def test_orbit_origin_has_three_outgoing_edges():
    sys0 = special_interval_system(make_system(F(3, 5), F(1, 4), F(3, 20)))
    orbit = explore_orbit(sys0, F(0), 1)
    out_edges = [e for e in orbit.edges if e[0] == F(0)]
    assert len(out_edges) >= 3


def test_orbit_monotone_in_word_length():
    sys0 = special_interval_system(make_system(F(3, 5), F(1, 4), F(3, 20)))
    sizes = [len(explore_orbit(sys0, F(1, 7), k).vertices) for k in range(1, 7)]
    assert sizes == sorted(sizes)


def test_hole_system_has_finite_orbit_witness():
    sys0 = special_interval_system(make_system(F(2, 5), F(7, 20), F(1, 4)))
    gaps = uncovered_gaps(sys0)
    assert gaps == [(F(2, 5), F(3, 5))]
    witness = (gaps[0][0] + gaps[0][1]) / 2
    for depth in (5, 40):
        orbit = explore_orbit(sys0, witness, depth)
        assert set(orbit.vertices) == {witness}


def test_orbit_outside_support():
    sys0 = special_interval_system(make_system(F(3, 5), F(1, 4), F(3, 20)))
    with pytest.raises(PointOutsideSupport):
        explore_orbit(sys0, F(3, 2), 2)


def test_format_scalar():
    assert format_scalar(F(1)) == "1/1"
    assert format_scalar(F(-3, 9)) == "-1/3"


def test_format_scalar_past_the_int_to_str_cap():
    big = "1" + "0" * 4999 + "1"
    assert format_scalar(F(10**5000 + 1, 3)) == big + "/3"
    assert format_scalar(F(-(10**5000 + 1), 3)) == "-" + big + "/3"
    assert format_scalar(F(2, 10**5000 + 1)) == "2/" + big
    for x in (F(10**5000 + 1, 3), F(-(10**5000 + 1), 3), F(-2, 10**5000 + 1)):
        assert parse_fraction(format_scalar(x)) == x
