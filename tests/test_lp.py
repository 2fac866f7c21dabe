"""Exact LP: the general simplex on hand-checked instances, the transport
kernel against brute-force and dense-LP references, and the linear-system
solver by hand and against the simplex."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgsos import lp
from pgsos.lp import (Infeasible, Unbounded, simplex_min, solve_linear,
                      solve_transport)

from helpers import lp_feasible, transport_bruteforce, transport_lp

F = Fraction


def test_simplex_min_equality_only():
    # min x0 + 2*x1  s.t.  x0 + x1 = 1  ->  all mass on x0
    value, x = simplex_min([F(1), F(2)], [[F(1), F(1)]], [F(1)])
    assert value == 1
    assert x == [F(1), F(0)]


def test_simplex_min_with_upper_bounds():
    # min -x0 - x1  s.t.  x0 + 2*x1 <= 4, 3*x0 + x1 <= 6  (classic corner)
    value, x = simplex_min([F(-1), F(-1)], [], [],
                           [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)])
    assert value == F(-14, 5)
    assert x[0] == F(8, 5) and x[1] == F(6, 5)


def test_simplex_exactness_no_float_noise():
    value, _ = simplex_min([F(1, 3), F(1, 7)], [[F(1), F(1)]], [F(1)])
    assert value == F(1, 7)


def test_simplex_detects_infeasible():
    with pytest.raises(Infeasible):
        simplex_min([F(1)], [[F(1)]], [F(-1)])  # x = -1 with x >= 0
    with pytest.raises(Infeasible):
        simplex_min([F(0), F(0)],
                    [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])


def test_simplex_detects_unbounded():
    with pytest.raises(Unbounded):
        simplex_min([F(-1)], [], [])


def test_lp_feasible():
    assert lp_feasible([[F(1), F(1)]], [F(1)])
    assert not lp_feasible([[F(1)]], [F(-2)])


def test_solve_linear_pivots_a_later_row_where_the_first_is_zero():
    # x_a = x_a - x_b + 1 and x_b = x_a - 1: the first pivot, on x_a in the
    # equation of a, is 0, so the equation of b is pivoted there
    rows = {"a": ({"a": F(1), "b": F(-1)}, F(1)),
            "b": ({"a": F(1)}, F(-1))}
    assert solve_linear(rows) == {"a": F(2), "b": F(1)}
    assert list(solve_linear(rows)) == ["a", "b"]


@st.composite
def transient_systems(draw):
    """``x = C x + b`` with ``C`` substochastic and ``I - C`` non-singular:
    every index reaches a row of ``C`` that sums to less than 1."""
    n = draw(st.integers(min_value=1, max_value=5))
    c = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        total = sum(weights) + draw(st.integers(0, 2))
        c.append([F(w, total) if w else F(0) for w in weights])
    b = draw(st.lists(st.integers(0, 4).map(lambda k: F(k, 4)),
                      min_size=n, max_size=n))
    leaking = {i for i in range(n) if sum(c[i]) < 1}
    grown = True
    while grown:
        reach = {i for i in range(n) if any(c[i][j] for j in leaking)}
        grown = not reach <= leaking
        leaking |= reach
    assume(len(leaking) == n)
    return c, b


@settings(max_examples=100, deadline=None)
@given(transient_systems())
def test_solve_linear_agrees_with_the_simplex(system):
    c, b = system
    n = len(b)
    rows = {i: ({j: c[i][j] for j in range(n) if c[i][j]}, b[i])
            for i in range(n)}
    # the solution is the one non-negative point of (I - C) x = b
    _, x = simplex_min([F(0)] * n,
                       [[int(i == j) - c[i][j] for j in range(n)]
                        for i in range(n)], b)
    assert solve_linear(rows) == dict(enumerate(x))


def test_degenerate_instance_terminates():
    # multiple tight constraints at the optimum; Bland's rule must not cycle
    value, _ = simplex_min(
        [F(0), F(0), F(1)],
        [[F(1), F(1), F(1)]], [F(1)],
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)]], [F(0), F(0)])
    assert value == 1


def test_transport_identity_is_free():
    cost = [[F(0), F(1)], [F(1), F(0)]]
    value, plan = solve_transport(cost, [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    assert value == 0
    assert plan[0][0] == F(1, 2) and plan[1][1] == F(1, 2)


def test_transport_unbalanced_supports():
    # move 1 unit from a single pile to two piles at costs 1/10 and 1
    cost = [[F(1, 10), F(1)]]
    value, plan = solve_transport(cost, [F(1)], [F(9, 10), F(1, 10)])
    assert value == F(9, 10) * F(1, 10) + F(1, 10) * F(1)
    assert plan == [[F(9, 10), F(1, 10)]]


def test_transport_plan_is_feasible_and_optimal_randomized():
    rng = random.Random(17)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        cost = [[F(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(m)]
        supply = _random_simplex_point(rng, m)
        demand = _random_simplex_point(rng, n)
        value, plan = solve_transport(cost, supply, demand)
        # marginals
        for i in range(m):
            assert sum(plan[i]) == supply[i]
        for j in range(n):
            assert sum(plan[i][j] for i in range(m)) == demand[j]
        assert all(q >= 0 for row in plan for q in row)
        assert value == sum(plan[i][j] * cost[i][j]
                            for i in range(m) for j in range(n))
        assert value == transport_bruteforce(cost, supply, demand)


def _random_simplex_point(rng: random.Random, k: int) -> list[Fraction]:
    """k nonnegative rationals summing to one (zero entries are permitted)."""
    cuts = sorted(rng.randint(0, 30) for _ in range(k - 1))
    out, prev = [], 0
    for c in cuts + [30]:
        out.append(F(c - prev, 30))
        prev = c
    return out


# -- input validation without assert ---------------------------------------

def test_simplex_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError):
        simplex_min([F(1), F(1)], [[F(1)]], [F(1)])
    with pytest.raises(ValueError):
        simplex_min([F(1)], [], [], [[F(1), F(1)]], [F(1)])


def test_transport_rejects_unbalanced_totals():
    with pytest.raises(ValueError):
        solve_transport([[F(0), F(1)]], [F(1)], [F(1, 2), F(1, 3)])


def test_transport_rejects_negative_masses():
    with pytest.raises(ValueError):
        solve_transport([[F(0), F(1)], [F(1), F(0)]],
                        [F(3, 2), F(-1, 2)], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        solve_transport([[F(0), F(1)]], [F(1)], [F(2), F(-1)])


def test_transport_rejects_ragged_cost_matrices():
    half = [F(1, 2), F(1, 2)]
    with pytest.raises(ValueError):
        solve_transport([[F(0), F(1)], [F(1)]], half, half)
    with pytest.raises(ValueError):
        solve_transport([[F(0), F(1)]], half, half)


# -- transport kernel: exactness against independent references -------------

costs = st.integers(min_value=0, max_value=4).map(lambda k: F(k, 4))


def masses(k: int):
    """``k`` non-negative rationals summing to one, zero entries included."""
    return (st.lists(st.integers(min_value=0, max_value=4),
                     min_size=k, max_size=k)
            .filter(any)
            .map(lambda w: [F(x, sum(w)) for x in w]))


@st.composite
def transport_problems(draw, max_m: int, max_n: int):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_n))
    cost = draw(st.lists(st.lists(costs, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return cost, draw(masses(m)), draw(masses(n))


def _solve_checked(cost, supply, demand):
    """Solve, and check that the plan is a coupling whose cost is the value."""
    value, plan = solve_transport(cost, supply, demand)
    m, n = len(supply), len(demand)
    assert len(plan) == m and all(len(row) == n for row in plan)
    assert all(q >= 0 for row in plan for q in row)
    assert [sum(row) for row in plan] == list(supply)
    assert [sum(plan[i][j] for i in range(m)) for j in range(n)] == list(demand)
    assert value == sum(plan[i][j] * cost[i][j]
                        for i in range(m) for j in range(n))
    return value, plan


@settings(max_examples=150, deadline=None)
@given(transport_problems(3, 4))
def test_transport_matches_bruteforce(problem):
    cost, supply, demand = problem
    value, _ = _solve_checked(cost, supply, demand)
    assert value == transport_bruteforce(cost, supply, demand)


@settings(max_examples=40, deadline=None)
@given(transport_problems(8, 8))
def test_transport_matches_dense_lp(problem):
    cost, supply, demand = problem
    value, _ = _solve_checked(cost, supply, demand)
    assert value == transport_lp(cost, supply, demand)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.lists(st.lists(st.sampled_from([F(0), F(1)]),
                                min_size=k, max_size=k),
                       min_size=k, max_size=k)))
def test_transport_zero_one_costs_uniform_marginals(cost):
    # assignment-like instances: every basis of the polytope is degenerate
    k = len(cost)
    uniform = [F(1, k)] * k
    value, _ = _solve_checked(cost, uniform, uniform)
    assert value == transport_lp(cost, uniform, uniform)


@pytest.mark.parametrize("k", range(1, 9))
def test_transport_identical_marginals_under_a_metric_are_free(k):
    cost = [[F(int(i != j)) for j in range(k)] for i in range(k)]
    uniform = [F(1, k)] * k
    value, plan = _solve_checked(cost, uniform, uniform)
    assert value == 0
    assert all(plan[i][i] == F(1, k) for i in range(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       costs, st.data())
def test_transport_all_equal_costs(m, n, c, data):
    supply, demand = data.draw(masses(m)), data.draw(masses(n))
    value, _ = _solve_checked([[c] * n for _ in range(m)], supply, demand)
    assert value == c


def test_transport_zero_entries_in_the_marginals():
    cost = [[F(1), F(0), F(1, 2)], [F(0), F(1), F(1)], [F(1, 4), F(1), F(0)]]
    value, plan = _solve_checked(cost, [F(1, 2), F(0), F(1, 2)],
                                 [F(1, 2), F(1, 2), F(0)])
    assert value == F(1, 2) * F(0) + F(1, 2) * F(1, 4)
    assert plan[1] == [0, 0, 0] and all(row[2] == 0 for row in plan)
    # no mass at all: no transport, an all-zero plan
    value, plan = _solve_checked(cost, [F(0)] * 3, [F(0)] * 3)
    assert value == 0 and plan == [[0] * 3] * 3


def test_transport_never_calls_the_general_simplex(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("solve_transport reached simplex_min")

    monkeypatch.setattr(lp, "simplex_min", forbidden)
    rng = random.Random(5)
    for m, n in [(1, 3), (3, 1), (2, 2), (2, 5), (5, 2), (3, 3), (4, 7), (8, 8)]:
        cost = [[F(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(m)]
        _solve_checked(cost, _random_simplex_point(rng, m),
                       _random_simplex_point(rng, n))
