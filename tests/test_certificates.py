import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfsquares.certificates import (
    AmgmCertificate,
    CertificateError,
    SosCriterionInconclusive,
    certify_nonnegative,
    certify_not_sos,
    discover_certificate,
    risky_monomials,
    verify_certificate,
)
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.generate import CHOI_LAM, MOTZKIN

from oracles import greedy_discover_certificate, random_polynomial


def test_motzkin_certificate_discovery():
    verified = certify_nonnegative(MOTZKIN)
    (ineq,) = verified.certificate.inequalities
    assert ineq.target == (2, 2)
    assert dict(ineq.shares) == {(4, 2): Fraction(1, 3), (2, 4): Fraction(1, 3)}
    assert ineq.origin_share == Fraction(1, 3)


def test_table_row_certificate_with_uneven_weights():
    P = SparsePolynomial(2, {(8, 4): 2, (0, 8): 13, (1, 7): -16, (0, 0): 1})
    verified = certify_nonnegative(P)
    (ineq,) = verified.certificate.inequalities
    assert ineq.target == (1, 7)
    assert dict(ineq.shares) == {(8, 4): Fraction(1, 8), (0, 8): Fraction(13, 16)}
    assert ineq.origin_share == Fraction(1, 16)


def test_no_negative_monomials_verifies_trivially():
    P = SparsePolynomial(1, {(2,): 1, (0,): 1})
    verified = certify_nonnegative(P)
    assert verified.certificate.inequalities == ()
    assert verified.risky == ()


def test_positive_odd_monomial_is_risky():
    # x^2 + 3x + 1 is negative at -1; domination must fail
    P = SparsePolynomial(1, {(2,): 1, (1,): 3, (0,): 1})
    assert P.evaluate([-1]) < 0
    with pytest.raises(CertificateError):
        certify_nonnegative(P)
    # x^2 + x + 1 > 0 but AM-GM cannot certify it either (shares over-commit)
    Q = SparsePolynomial(1, {(2,): 1, (1,): 2, (0,): 1})
    verified = certify_nonnegative(Q)  # (1) = (2)/2 + 0/2 with shares 1, 1
    assert verified.risky == ((1,),)


def test_over_committed_certificate_rejected():
    # x^2 + y^2 - 3xy + 1 is negative at (2, 2); shares would need 3/2 each
    P = SparsePolynomial(2, {(2, 0): 1, (0, 2): 1, (1, 1): -3, (0, 0): 1})
    assert P.evaluate([2, 2]) < 0
    with pytest.raises(CertificateError):
        certify_nonnegative(P)


@pytest.mark.parametrize(
    "terms",
    [
        {(6,): 2, (3,): -2, (2,): 6, (1,): -1, (0,): 1},  # 2x^6 - 2x^3 + 6x^2 - x + 1
        {(6,): 2, (5,): -2, (4,): -1, (2,): 2, (0,): 2},  # 2x^6 - 2x^5 - x^4 + 2x^2 + 2
    ],
)
def test_joint_lp_certifies_what_the_greedy_search_misses(terms):
    """Two risky monomials: the greedy search spends the capacities on the
    larger one first and leaves the other none it can use."""
    P = SparsePolynomial(1, terms)
    with pytest.raises(CertificateError):
        greedy_discover_certificate(P)
    verified = certify_nonnegative(P)
    assert [ineq.target for ineq in verified.certificate.inequalities] == sorted(
        m for m in terms if m[0] % 2 or terms[m] < 0
    )
    assert all(P.evaluate([Fraction(t, 4)]) >= 0 for t in range(-12, 13))


def test_failure_names_the_largest_risky_monomial_first():
    # 3x^3 and x are both risky; |c| = 3 names (3,) although (1,) is first in lex order
    P = SparsePolynomial(1, {(3,): 3, (1,): 1, (0,): 1})
    with pytest.raises(CertificateError, match=r"monomial \(3,\)$") as err:
        discover_certificate(P)
    assert err.value.monomial == (3,)


COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def certifiable_looking(draw):
    """A few positive even terms (the constant among them at times) and a
    few risky ones of degree <= 6 in one to three variables."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 6 // n) for _ in range(n)])
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        terms[tuple(2 * e for e in draw(st.tuples(*[st.integers(0, 3 // n + 1) for _ in range(n)])))] = abs(draw(COEFF))
    if draw(st.booleans()):
        terms[(0,) * n] = abs(draw(COEFF))
    for _ in range(draw(st.integers(1, 3))):
        terms[draw(exps)] = draw(COEFF)
    return SparsePolynomial(n, terms)


@settings(max_examples=300, deadline=None)
@given(certifiable_looking())
def test_lp_certifies_whatever_the_greedy_search_certifies(P):
    try:
        greedy = greedy_discover_certificate(P)
    except CertificateError as err:
        greedy = err
    try:
        cert = discover_certificate(P)
    except CertificateError as err:
        assert isinstance(greedy, CertificateError)
        if len(risky_monomials(P)) == 1:
            assert str(err) == str(greedy)
        return
    verify_certificate(P, cert)
    if isinstance(greedy, AmgmCertificate):
        verify_certificate(P, greedy)


@settings(max_examples=300, deadline=None)
@given(
    certifiable_looking(),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=3, max_size=3),
)
def test_certified_polynomials_are_nonnegative(P, point):
    try:
        certify_nonnegative(P)
    except CertificateError:
        return
    assert P.evaluate(point[: P.nvars]) >= 0


def test_certificate_json_round_trip():
    cert = certify_nonnegative(MOTZKIN).certificate
    again = AmgmCertificate.loads(cert.dumps())
    assert again == cert
    certify_nonnegative(MOTZKIN, again)


def test_choi_lam_certificates():
    verified = certify_nonnegative(CHOI_LAM)
    (ineq,) = verified.certificate.inequalities
    assert ineq.target == (1, 1, 1)
    witness = certify_not_sos(CHOI_LAM)
    assert witness.monomial == (1, 1, 1)


def test_not_sos_motzkin_witness():
    witness = certify_not_sos(MOTZKIN)
    assert witness.monomial == (2, 2)
    assert witness.coefficient == -3
    assert set(witness.half_lattice) == {(0, 0), (1, 1), (2, 1), (1, 2)}


def test_not_sos_translated_motzkin_inconclusive():
    # M(x+1, y+1): every lattice point of the hull averages two distinct ones
    x_plus = SparsePolynomial(2, {(1, 0): 1, (0, 0): 1})
    y_plus = SparsePolynomial(2, {(0, 1): 1, (0, 0): 1})
    translated = (
        x_plus**4 * y_plus**2
        + x_plus**2 * y_plus**4
        - 3 * (x_plus**2 * y_plus**2)
        + SparsePolynomial.constant(2, 1)
    )
    with pytest.raises(SosCriterionInconclusive):
        certify_not_sos(translated)


def test_not_sos_perfect_square_inconclusive():
    square = SparsePolynomial(1, {(2,): 1, (1,): -2, (0,): 1})  # (x-1)^2
    with pytest.raises(SosCriterionInconclusive) as err:
        certify_not_sos(square)
    assert err.value.pairs[(1,)] == ((0,), (1,))


def test_not_sos_never_certifies_random_squares():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 3)
        g = random_polynomial(rng, n, 4, rng.randint(2, 6))
        square = g * g
        if square.is_zero():
            continue
        with pytest.raises(SosCriterionInconclusive):
            certify_not_sos(square)


def test_not_sos_zero_rejected():
    with pytest.raises(ValueError):
        certify_not_sos(SparsePolynomial.zero(2))


def test_not_sos_witness_scans_the_half_box_once(monkeypatch):
    """The pair search and the reported half lattice share one pass of the
    half box through the membership kernel."""
    from halfsquares.polytope import GeneralPolytope

    calls = []
    inside = GeneralPolytope._inside

    def recording(self, points, den=1):
        calls.append((sorted(map(tuple, points.tolist())), den))
        return inside(self, points, den)

    monkeypatch.setattr(GeneralPolytope, "_inside", recording)
    witness = certify_not_sos(MOTZKIN)
    assert witness.monomial == (2, 2)
    # the Motzkin hull spans [0, 4]^2: its half box is [0, 2]^2, tested once as the doubled points
    assert calls == [(sorted((2 * a, 2 * b) for a in range(3) for b in range(3)), 1)]


def test_not_sos_witness_on_a_long_half_polytope():
    """1 - 3x^2y^2 + x^2y^4 + x^100000 y^2: (2, 2) is no sum of two distinct
    points among the 50,002 of the half polytope, in a half box of 150,003."""
    P = SparsePolynomial(2, {(0, 0): 1, (2, 2): -3, (2, 4): 1, (100000, 2): 1})
    witness = certify_not_sos(P)
    assert witness.monomial == (2, 2)
    assert len(witness.half_lattice) == 50002


def test_not_sos_square_with_a_long_half_box_is_inconclusive():
    """(x^120 y^120 z^120 - 1)^2: its half box [0, 120]^3 of 121^3 points is
    scanned in slabs, and (120, 120, 120) is 0 + (120, 120, 120)."""
    P = SparsePolynomial(3, {(240,) * 3: 1, (120,) * 3: -2, (0,) * 3: 1})
    with pytest.raises(SosCriterionInconclusive) as err:
        certify_not_sos(P)
    assert err.value.pairs == {(120,) * 3: ((0,) * 3, (120,) * 3)}
