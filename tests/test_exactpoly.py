import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfsquares.exactpoly import PolynomialFormatError, SparsePolynomial
from halfsquares.generate import MOTZKIN

from oracles import fraction_evaluate, random_polynomial


def test_motzkin_evaluations():
    assert MOTZKIN.evaluate([1, 1]) == 0
    assert MOTZKIN.evaluate([0, 0]) == 1
    assert MOTZKIN.evaluate([1, 2]) == 9


def test_additive_inverse_is_zero():
    P = SparsePolynomial(2, {(1, 0): Fraction(2, 3), (0, 2): -1})
    assert (P + (-P)).is_zero()
    assert (P - P).degree() == -1


def test_binomial_square():
    x = SparsePolynomial.monomial((1,), 1)
    one = SparsePolynomial.constant(1, 1)
    assert (x + one) * (x + one) == SparsePolynomial(1, {(2,): 1, (1,): 2, (0,): 1})


def test_single_zero_assembly_matches_published_polynomial():
    # P + sum c (x^(2q) + 1 - 2 x^q) for the degree-8 instance
    base = SparsePolynomial(2, {(6, 2): 1, (2, 4): 2, (2, 2): -5, (0, 0): 2})
    extra = SparsePolynomial.zero(2)
    for q in ((3, 1), (1, 2)):
        extra = extra + SparsePolynomial(
            2, {tuple(2 * e for e in q): 1, (0, 0): 1, q: -2}
        )
    expected = SparsePolynomial(
        2, {(6, 2): 2, (2, 4): 3, (2, 2): -5, (3, 1): -2, (1, 2): -2, (0, 0): 4}
    )
    assert base + extra == expected


def test_homogenize_motzkin():
    hM = MOTZKIN.homogenize()
    assert hM == SparsePolynomial(
        3, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1}
    )
    assert hM.degree() == 6
    assert all(sum(e) == 6 for e in hM.terms)


def test_homogenize_trivial_cases():
    one = SparsePolynomial.constant(2, 1)
    assert one.homogenize() == SparsePolynomial.constant(3, 1)
    P = SparsePolynomial(1, {(2,): 1, (0,): 1})
    assert P.homogenize() == SparsePolynomial(2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        SparsePolynomial(1, {(3,): 1}).homogenize()


def test_dehomogenize_recovers_original():
    rng = random.Random(5)
    for _ in range(20):
        P = random_polynomial(rng, 2, 4, 5)
        if P.degree() % 2:
            P = P * P
        assert P.homogenize().dehomogenize() == P


def test_degree_and_support():
    assert MOTZKIN.degree() == 6
    assert SparsePolynomial.zero(2).degree() == -1
    assert MOTZKIN.support() == [(0, 0), (2, 2), (2, 4), (4, 2)]


def test_ring_axioms_on_random_inputs():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        P = random_polynomial(rng, n, 3, 4)
        Q = random_polynomial(rng, n, 3, 4)
        R = random_polynomial(rng, n, 3, 4)
        assert P + Q == Q + P
        assert P * Q == Q * P
        assert (P + Q) * R == P * R + Q * R
        assert (P * Q) * R == P * (Q * R)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        assert (P * Q).evaluate(point) == P.evaluate(point) * Q.evaluate(point)


def test_json_round_trip():
    P = SparsePolynomial(2, {(1, 0): Fraction(-7, 3), (0, 2): 4})
    data = json.loads(P.dumps())
    assert data["terms"][0]["exp"] == [0, 2]  # lex sorted
    assert SparsePolynomial.loads(P.dumps()) == P


@pytest.mark.parametrize(
    "payload",
    [
        {"nvars": 2, "terms": [{"exp": [0, 0], "num": "0", "den": "1"}]},  # zero coeff
        {"nvars": 2, "terms": [{"exp": [0, 0], "num": "1", "den": "0"}]},  # zero den
        {"nvars": 2, "terms": [{"exp": [0, 0], "num": "1", "den": "-2"}]},  # negative den
        {"nvars": 2, "terms": [{"exp": [0, 0], "num": "2", "den": "4"}]},  # not coprime
        {"nvars": 2, "terms": [{"exp": [0], "num": "1", "den": "1"}]},  # bad length
        {
            "nvars": 2,
            "terms": [
                {"exp": [1, 0], "num": "1", "den": "1"},
                {"exp": [0, 1], "num": "1", "den": "1"},
            ],
        },  # not lex sorted
        {"nvars": 1, "terms": [{"exp": [2], "num": 1.5, "den": "1"}]},  # JSON number
        {"nvars": 1, "terms": [{"exp": [2], "num": True, "den": "1"}]},  # JSON boolean
        {"nvars": 1, "terms": [{"exp": [2], "num": "-1", "den": "-1"}]},  # signed den
    ],
)
def test_json_reader_rejects_violations(payload):
    with pytest.raises(PolynomialFormatError):
        SparsePolynomial.from_json_dict(payload)


# pairwise coprime denominators up to 10^6: a point's common denominator
# is their product
COPRIME_DENOMINATORS = (999983, 999979, 524288, 531441, 390625, 823543)

COORDINATE = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(COPRIME_DENOMINATORS)),
    st.booleans(),
    st.floats(min_value=-4, max_value=4),
    st.decimals(min_value=-4, max_value=4, places=3).map(str),
    st.integers(-5, 5).map(np.int64),
)


def exact(x) -> Fraction:
    """The rational a coordinate stands for, in Python ints."""
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


@st.composite
def polynomials_and_points(draw):
    nvars = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * nvars),
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
        max_size=8,
    ))
    point = draw(st.tuples(*[COORDINATE] * nvars))
    return SparsePolynomial(nvars, terms), point


@settings(max_examples=400)
@given(polynomials_and_points())
def test_evaluate_matches_fraction_loop(case):
    P, point = case
    value = P.evaluate(point)
    assert type(value) is Fraction
    assert value == fraction_evaluate(P, [exact(x) for x in point])
    zero = SparsePolynomial.zero(P.nvars).evaluate(point)
    assert type(zero) is Fraction and zero == 0
    for wrong in (point + (1,), point[1:]):
        with pytest.raises(ValueError):
            P.evaluate(wrong)


def test_numpy_integer_coordinates_do_not_overflow():
    P = SparsePolynomial(2, {(5, 0): 1, (2, 3): Fraction(-1, 3)})
    point = [np.int64(10**6), np.int64(-(10**5))]
    assert P.evaluate(point) == 10**30 + Fraction(10**27, 3)
    assert all(type(x) is int for x in [P.evaluate(point).numerator, P.evaluate(point).denominator])


def rational_points(rng, nvars, count):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars)]
        for _ in range(count)
    ]


def test_evaluation_plan_serves_every_call():
    # the first call builds the plan and the other 199 reuse it; terms of
    # several degrees and a constant make every deg - |e| occur
    P = random_polynomial(random.Random(5), 3, 7, 10) + Fraction(3, 4)
    assert len({sum(e) for e in P.terms}) >= 4
    for point in rational_points(random.Random(6), 3, 200):
        assert P.evaluate(point) == fraction_evaluate(P, point)


def test_polynomials_built_from_an_evaluated_one_get_their_own_plan():
    P = SparsePolynomial(2, {(3, 1): Fraction(2, 3), (0, 2): -1, (0, 0): 5})
    Q = SparsePolynomial(2, {(1, 4): Fraction(-1, 2), (2, 0): 3})
    points = rational_points(random.Random(7), 2, 20)
    assert P.evaluate(points[0]) == fraction_evaluate(P, points[0])
    for R in (P + Q, P * Q, P * P, P + 1, -P, P.scale(3), P**3):
        assert R.evaluate(points[0]) == fraction_evaluate(R, points[0])
        for point in points:
            assert R.evaluate(point) == fraction_evaluate(R, point)
    zero = P - P
    assert zero.is_zero()
    for point in points[:2]:
        value = zero.evaluate(point)
        assert type(value) is Fraction and value == 0
    assert P.evaluate(points[1]) == fraction_evaluate(P, points[1])
