"""Strongly connected components against brute-force reachability."""

import random

from pgsos.graphs import strongly_connected_components


def reachable(graph, start):
    seen, todo = set(), list(graph[start])
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(graph[u])
    return seen


def test_components_partition_by_mutual_reachability_in_dependency_order():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        graph = {i: [j for j in range(n) if rng.random() < 0.2]
                 for i in range(n)}
        comps = strongly_connected_components(range(n), graph.__getitem__)
        where = {v: k for k, comp in enumerate(comps) for v in comp}
        assert sorted(where) == list(range(n))
        assert sum(map(len, comps)) == n
        reach = {i: reachable(graph, i) for i in range(n)}
        for i in range(n):
            for j in range(n):
                mutual = i == j or (j in reach[i] and i in reach[j])
                assert mutual == (where[i] == where[j]), (graph, comps)
                if j in graph[i]:
                    # a component comes after every component it points to
                    assert where[j] <= where[i]


def test_self_loops_and_the_given_root_order():
    graph = {"a": ["a"], "b": ["c"], "c": []}
    assert strongly_connected_components("ab", graph.__getitem__) == [
        ["a"], ["c"], ["b"]]


def test_a_long_chain_needs_no_recursion():
    n = 100_000
    comps = strongly_connected_components(
        [0], lambda i: [i + 1] if i + 1 < n else [])
    assert len(comps) == n
    assert comps[0] == [n - 1] and comps[-1] == [0]
