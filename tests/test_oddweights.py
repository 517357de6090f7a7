from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfsquares import ratmat
from halfsquares.errors import InputError
from halfsquares.oddweights import (
    closed_form_weights,
    det_product_formula,
    moment_matrix,
    solve,
    weights_for_nodes,
)


def test_first_system():
    s = solve(1)
    assert s.nodes == (1,)
    assert s.weights == (Fraction(1),)


def test_third_order_system():
    s = solve(3)
    assert s.nodes == (-1, 2)
    assert s.weights == (Fraction(1, 3), Fraction(1, 6))


def test_fifth_order_system():
    s = solve(5)
    assert s.nodes == (1, -2, 3)
    assert s.weights == (Fraction(1, 24), Fraction(1, 30), Fraction(1, 120))
    assert s.moment(1) == 0
    assert s.moment(3) == 0
    assert s.moment(5) == 1


@pytest.mark.parametrize("ell", range(1, 21, 2))
def test_identities_exact_through_19(ell):
    system = solve(ell)
    system.validate()
    for j in range(1, ell, 2):
        assert system.moment(j) == 0
    assert system.moment(ell) == 1
    assert all(w > 0 for w in system.weights)


def exact_solve(nodes):
    """The weights by exact elimination of the moment system M w = e_s."""
    return ratmat.solve_rectangular(moment_matrix(nodes), [0] * (len(nodes) - 1) + [1])


@pytest.mark.parametrize("ell", range(1, 15, 2))
def test_closed_form_matches_linear_solve(ell):
    nodes = solve(ell).nodes
    assert closed_form_weights(nodes) == exact_solve(nodes)


@settings(max_examples=400)
@given(st.lists(st.integers(-60, 60).filter(bool), min_size=1, max_size=8, unique_by=abs))
def test_closed_form_matches_linear_solve_on_any_valid_nodes(nodes):
    assert weights_for_nodes(nodes) == exact_solve(nodes)


@pytest.mark.parametrize("s", range(1, 7))
def test_determinant_product_formula(s):
    nodes = solve(2 * s - 1).nodes
    assert ratmat.det(moment_matrix(nodes)) == det_product_formula(nodes)


def test_non_alternating_nodes_give_a_negative_weight():
    weights = weights_for_nodes([1, 2])
    assert any(w < 0 for w in weights)


def test_empty_node_list_rejected():
    with pytest.raises(InputError, match="at least one node"):
        weights_for_nodes([])


def test_repeated_magnitude_rejected():
    with pytest.raises(ValueError, match="linearly dependent"):
        weights_for_nodes([1, -1])


@pytest.mark.parametrize("ell", [0, 2, -3, 4])
def test_bad_ell_rejected(ell):
    with pytest.raises(ValueError):
        solve(ell)
