import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from halfsquares import generate, ratmat
from halfsquares.certificates import certify_nonnegative, certify_not_sos
from halfsquares.errors import InputError
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.generate import (
    CHOI_LAM,
    MOTZKIN,
    TABLE_ROWS,
    _half_vertex_tuples,
    _interior_targets,
    _seeded_order,
    construct_candidate,
    degree_lift,
    direct_search,
    emitted_certificate,
    homogenize_lift,
    make_instance,
    reproduce_table,
)

from oracles import fraction_interior_targets, loop_half_vertex_tuples, shuffled_direct_search


def test_motzkin_instance():
    inst = make_instance([(2, 1), (1, 2)], (2, 2))
    assert construct_candidate(inst) == MOTZKIN
    assert inst.weights == (Fraction(1, 3), Fraction(1, 3))
    assert inst.scale == 3


def test_degree_eight_instance():
    inst = make_instance([(3, 1), (1, 2)], (2, 2))
    P = construct_candidate(inst)
    assert P == SparsePolynomial(2, {(6, 2): 1, (2, 4): 2, (2, 2): -5, (0, 0): 2})


def test_single_zero_instance():
    inst = make_instance([(3, 1), (1, 2)], (2, 2), single_zero_coeff=1)
    P = construct_candidate(inst)
    assert P == SparsePolynomial(
        2, {(6, 2): 2, (2, 4): 3, (2, 2): -5, (3, 1): -2, (1, 2): -2, (0, 0): 4}
    )
    assert P.evaluate([1, 1]) == 0
    certify_nonnegative(P, emitted_certificate(inst))
    certify_not_sos(P)


def test_non_interior_target_rejected():
    with pytest.raises(ValueError):
        make_instance([(2, 1), (1, 2)], (4, 2))  # a vertex, not interior


def test_emitted_certificates_verify():
    rng = random.Random(41)
    hits = direct_search(2, 8, budget=4000, max_hits=10)
    assert hits
    for inst in hits:
        P = construct_candidate(inst)
        certify_nonnegative(P, emitted_certificate(inst))
        # all AM-GM equalities bind at the all-ones point, with or without
        # the single-zero terms
        assert P.evaluate([1, 1]) == 0
        for _ in range(20):
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2)]
            assert P.evaluate(point) >= 0


def test_direct_search_degree_four_binary_is_empty():
    assert direct_search(2, 4, budget=10000) == []


def test_direct_search_finds_motzkin_class():
    hits = direct_search(2, 6, budget=5000)
    polys = {construct_candidate(h) for h in hits}
    assert MOTZKIN in polys


def test_direct_search_finds_choi_lam():
    hits = direct_search(3, 4, budget=20000, max_hits=5)
    polys = {construct_candidate(h) for h in hits}
    assert CHOI_LAM in polys


def test_direct_search_deterministic():
    a = direct_search(2, 8, budget=1500)
    b = direct_search(2, 8, budget=1500)
    assert [(x.half_vertices, x.target) for x in a] == [
        (x.half_vertices, x.target) for x in b
    ]


UNLIMITED = 10**9


def _spy_search(monkeypatch, search, n, d, **kwargs):
    """Hits and (tuple, target) pairs examined by ``search``, in order."""
    examined = []

    def spy(qs, m, single_zero_coeff=0):
        examined.append((qs, m))
        return make_instance(qs, m, single_zero_coeff)

    with monkeypatch.context() as patch:
        patch.setattr(generate, "make_instance", spy)
        hits = search(n, d, **kwargs)
    return [(h.half_vertices, h.target) for h in hits], examined


def _search_and_pairs(monkeypatch, **kwargs):
    """(2, 8) hits and the (tuple, target) pairs examined, in order."""
    return _spy_search(monkeypatch, direct_search, 2, 8, **kwargs)


def _seeded_pairs(monkeypatch, **kwargs):
    """``_search_and_pairs`` with a lex limit of 10: (2, 8) has 48 tuples, so they are shuffled."""
    with monkeypatch.context() as patch:
        patch.setattr(generate, "EXHAUSTIVE_LIMIT", 10)
        return _search_and_pairs(monkeypatch, **kwargs)


def test_seeded_search_repeats_with_its_seed(monkeypatch):
    first = _seeded_pairs(monkeypatch, budget=UNLIMITED, seed=3)
    assert first == _seeded_pairs(monkeypatch, budget=UNLIMITED, seed=3)
    _, other_seed = _seeded_pairs(monkeypatch, budget=UNLIMITED, seed=4)
    _, lex = _search_and_pairs(monkeypatch, budget=UNLIMITED)
    # the seed reorders the tuples, so it changes the order pairs are examined in
    assert len({tuple(first[1]), tuple(other_seed), tuple(lex)}) == 3


def test_seeded_search_budget_bounds_the_pairs_examined(monkeypatch):
    hits, examined = _seeded_pairs(monkeypatch, budget=UNLIMITED, seed=3)
    assert len(examined) == 228
    for budget in (0, 1, 37, 150, 227):
        cut_hits, cut = _seeded_pairs(monkeypatch, budget=budget, seed=3)
        assert cut == examined[:budget]
        assert cut_hits == [h for h in hits if examined.index(h) < budget]


def test_seeded_search_with_unlimited_budget_finds_the_lex_hits(monkeypatch):
    lex_hits, lex = _search_and_pairs(monkeypatch, budget=UNLIMITED)
    for seed in (0, 3, 11):
        hits, examined = _seeded_pairs(monkeypatch, budget=UNLIMITED, seed=seed)
        assert sorted(examined) == sorted(lex)
        assert set(hits) == set(lex_hits) and len(hits) == len(lex_hits) == 2


@settings(max_examples=200)
@given(st.integers(0, 300), st.integers(0, 2**64), st.data())
def test_seeded_order_is_a_permutation_drawn_lazily(count, seed, data):
    order = list(_seeded_order(count, seed))
    assert sorted(order) == list(range(count))
    b = data.draw(st.integers(0, count))
    # the first b draws are the same however many more are drawn after them
    assert list(islice(_seeded_order(count, seed), b)) == order[:b]


@pytest.mark.parametrize("n,d,budget", [(2, 8, 10000), (3, 6, 10000), (3, 8, 2000)])
def test_lex_search_examines_the_pairs_of_the_list_search(monkeypatch, n, d, budget):
    new = _spy_search(monkeypatch, direct_search, n, d, budget=budget, seed=5)
    old = _spy_search(monkeypatch, shuffled_direct_search, n, d, budget=budget, seed=5)
    assert new == old and new[1]


def test_path_rule_counts_the_independent_tuples():
    # 3,875 of the C(34, 3) = 5,984 (3, 8) combinations pass the filter, so
    # the default limit of 5,000 keeps (3, 8) on the lex path
    points, rows = _half_vertex_tuples(3, 8)
    assert len(points) == 34 and len(rows) == 3875


def test_budget_zero_search_builds_no_simplex(monkeypatch):
    calls = []
    monkeypatch.setattr(generate, "_interior_targets", lambda qs: calls.append(qs) or [])
    monkeypatch.setattr(generate, "make_instance", lambda *args: calls.append(args))
    assert direct_search(3, 10, budget=0) == []
    assert calls == []


def test_direct_search_bad_parameters():
    with pytest.raises(ValueError):
        direct_search(1, 6)
    with pytest.raises(ValueError):
        direct_search(2, 5)
    with pytest.raises(ValueError):
        direct_search(2, 6, budget=-1)
    with pytest.raises(ValueError):
        direct_search(2, 6, max_hits=0)
    with pytest.raises(InputError, match="single-zero"):
        direct_search(3, 4, budget=50, single_zero_coeff=-1)


@pytest.mark.parametrize(
    "n,d",
    [(2, 4), (2, 8), (2, 12), (2, 20), (3, 4), (3, 6), (3, 8), (3, 10), (4, 4), (4, 6)],
)
def test_half_vertex_tuples_match_determinant_loop(n, d):
    points, rows = _half_vertex_tuples(n, d)
    assert rows.shape == (len(rows), n)
    assert [tuple(points[i] for i in row) for row in rows.tolist()] == loop_half_vertex_tuples(n, d)


@st.composite
def independent_half_vertices(draw):
    n = draw(st.integers(2, 4))
    top = {2: 6, 3: 4, 4: 3}[n]  # keeps the oracle's box of (2 top + 1)^n points small
    qs = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=n, max_size=n))
    assume(ratmat.det([list(q) for q in qs]) != 0)
    return qs


@settings(max_examples=150)
@given(independent_half_vertices())
def test_interior_targets_match_fraction_weights(qs):
    assert _interior_targets(qs) == fraction_interior_targets(qs)


def test_homogenize_lift_choi_lam():
    lift = homogenize_lift(CHOI_LAM)
    expected = SparsePolynomial(
        4,
        {
            (2, 2, 0, 0): 1,
            (0, 2, 2, 0): 1,
            (2, 0, 2, 0): 1,
            (1, 1, 1, 1): -4,
            (0, 0, 0, 4): 2,
            (0, 0, 0, 2): -2,
            (0, 0, 0, 0): 1,
        },
    )
    assert lift.polynomial == expected
    assert lift.polynomial.evaluate([1, 1, 1, 1]) == 0
    assert lift.polynomial.dehomogenize() == CHOI_LAM
    assert lift.dehomogenized_witness.monomial == (1, 1, 1)
    certify_nonnegative(lift.polynomial, lift.certificate)


def test_degree_lift_worked_example():
    # (2,10)-row instance lifted with even offsets (4, 2, 2) and s = 2
    base = make_instance([(2, 3), (1, 3)], (2, 4))
    lifted = degree_lift(base, [4, 2, 2], 2)
    assert lifted.weights == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))
    assert lifted.origin_weight == Fraction(1, 6)
    P = construct_candidate(lifted)
    # the published rendering of this polynomial misprints the second
    # monomial as x^2 y^2 z^2; the stated vertices force x^2 y^6 z^2
    assert P == SparsePolynomial(
        3, {(4, 6, 2): 2, (2, 6, 2): 2, (2, 4, 2): -6, (0, 0, 4): 1, (0, 0, 0): 1}
    )


def test_degree_lift_rejects_bad_offsets():
    base = make_instance([(2, 3), (1, 3)], (2, 4))
    with pytest.raises(ValueError):
        degree_lift(base, [4, 2, 3], 2)  # odd offset
    with pytest.raises(ValueError):
        degree_lift(base, [0, 0, 0], 0)  # degenerate vertices


def test_reproduce_table_named_rows_pass():
    report = reproduce_table(rows=[(2, 6), (2, 8), (3, 4), (3, 8), (4, 4)])
    assert all(row.ok for row in report.rows)
    assert len(report.rows) == 5


def test_reproduce_table_row_count():
    assert len(TABLE_ROWS) == 26
    report = reproduce_table()
    assert len(report.rows) == 26
    assert len(report.to_json_dict()["rows"]) == 26
