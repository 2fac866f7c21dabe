"""Graph algorithms shared by the fixed-point solvers."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


def strongly_connected_components(
        nodes: Iterable[Hashable],
        successors: Callable[[Hashable], Iterable[Hashable]],
) -> list[list[Hashable]]:
    """The strongly connected components of the graph reachable from
    ``nodes``, each listed after every component it has an edge into.
    Tarjan's algorithm on an explicit stack, so the graph's depth is not
    limited by the recursion limit; roots are taken in the order given."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}  # kept only while a node is on ``path``
    path: list[Hashable] = []  # visited nodes not yet in a component
    out: list[list[Hashable]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in index:
                    index[w] = low[w] = len(index)
                    path.append(w)
                    work.append((w, iter(successors(w))))
                    break
                if w in low:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    component = [path.pop()]
                    while component[-1] != v:
                        component.append(path.pop())
                    for w in component:
                        del low[w]
                    out.append(component[::-1])
    return out
