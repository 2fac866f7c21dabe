"""Exact linear programming over rationals.

Two solvers, both on :class:`fractions.Fraction`, so optima are exact and
ties are decided without tolerances:

- :func:`solve_transport` solves the optimal-transport problems of the
  Kantorovich lifting.  A side with one or two points has a closed form;
  larger problems go through a transportation simplex on the spanning tree
  of basic cells, made non-degenerate by a symbolic perturbation.
- :func:`simplex_min` is a small dense two-phase simplex with Bland's
  anti-cycling rule, for general equality/inequality systems such as the
  coupling-feasibility checks of the multiplicity order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class Infeasible(Exception):
    """The constraint system has no non-negative solution."""


class Unbounded(Exception):
    """The objective can be driven to -infinity over the feasible region."""


def simplex_min(cost: Sequence[Fraction],
                a_eq: Sequence[Sequence[Fraction]],
                b_eq: Sequence[Fraction],
                a_ub: Sequence[Sequence[Fraction]] = (),
                b_ub: Sequence[Fraction] = ()) -> tuple[Fraction, list[Fraction]]:
    """Minimise ``cost . x`` subject to ``a_eq x = b_eq``, ``a_ub x <= b_ub``
    and ``x >= 0``.  Returns ``(optimal value, optimal x)``.
    """
    n = len(cost)
    n_ub = len(a_ub)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row in (*a_eq, *a_ub):
        if len(row) != n:
            raise ValueError(
                f"constraint row has {len(row)} entries, expected {n}")
    for row, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in row] + [ZERO] * n_ub)
        rhs.append(Fraction(b))
    for k, (row, b) in enumerate(zip(a_ub, b_ub)):
        slack = [ZERO] * n_ub
        slack[k] = ONE
        rows.append([Fraction(v) for v in row] + slack)
        rhs.append(Fraction(b))
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # one artificial variable per row; they form the starting basis
    width = n + n_ub
    for i in range(m):
        art = [ZERO] * m
        art[i] = ONE
        rows[i] = rows[i] + art
    basis = [width + i for i in range(m)]
    total = width + m

    phase1 = [ZERO] * width + [ONE] * m
    _optimise(rows, rhs, basis, phase1, total, allow=total)
    if sum(phase1[basis[i]] * rhs[i] for i in range(m)) != 0:
        raise Infeasible
    _drive_out_artificials(rows, rhs, basis, width)

    phase2 = [Fraction(c) for c in cost] + [ZERO] * (total - n)
    _optimise(rows, rhs, basis, phase2, total, allow=width)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rhs[i]
    value = sum((Fraction(cost[j]) * x[j] for j in range(n)), ZERO)
    return value, x


def _optimise(rows: list[list[Fraction]], rhs: list[Fraction],
              basis: list[int], cost: list[Fraction],
              total: int, allow: int) -> None:
    """Run simplex iterations in place; ``allow`` bounds entering columns."""
    while True:
        in_basis = set(basis)
        entering = -1
        for j in range(allow):
            if j in in_basis:
                continue
            rc = cost[j] - sum(cost[basis[i]] * rows[i][j]
                               for i in range(len(rows))
                               if cost[basis[i]] != 0 and rows[i][j] != 0)
            if rc < 0:
                entering = j
                break  # Bland: smallest improving index
        if entering < 0:
            return
        leaving = -1
        best: Fraction | None = None
        for i in range(len(rows)):
            if rows[i][entering] > 0:
                ratio = rhs[i] / rows[i][entering]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise Unbounded
        _pivot(rows, rhs, basis, leaving, entering)


def _pivot(rows: list[list[Fraction]], rhs: list[Fraction],
           basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    rhs[r] = rhs[r] / piv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            factor = rows[i][c]
            rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - factor * rhs[r]
    basis[r] = c


def _drive_out_artificials(rows: list[list[Fraction]], rhs: list[Fraction],
                           basis: list[int], width: int) -> None:
    """Replace basic artificials (all at value 0 here) by real columns,
    dropping rows that turn out to be redundant constraints."""
    i = 0
    while i < len(rows):
        if basis[i] >= width:
            pivot_col = next((j for j in range(width) if rows[i][j] != 0), -1)
            if pivot_col < 0:
                del rows[i], rhs[i], basis[i]
                continue
            _pivot(rows, rhs, basis, i, pivot_col)
        i += 1


def solve_transport(cost: Sequence[Sequence[Fraction]],
                    supplies: Sequence[Fraction],
                    demands: Sequence[Fraction],
                    ) -> tuple[Fraction, list[list[Fraction]]]:
    """Minimum-cost transport between two rational mass vectors.

    ``cost[i][j]`` is the unit cost of moving mass from supply point ``i``
    to demand point ``j``; masses must be non-negative and supplies and
    demands must have equal totals.  Returns the optimal value together
    with an optimal plan matrix; the value is ``sum(plan * cost)`` exactly.
    """
    m, n = len(supplies), len(demands)
    if len(cost) != m or any(len(row) != n for row in cost):
        raise ValueError(f"transport cost matrix must be {m}x{n}")
    if any(q < 0 for q in supplies) or any(q < 0 for q in demands):
        raise ValueError("transport masses must be non-negative")
    if sum(supplies, ZERO) != sum(demands, ZERO):
        raise ValueError("supplies and demands must have equal totals")
    if m == 1:
        plan = [list(demands)]
    elif n == 1:
        plan = [[q] for q in supplies]
    elif m == 2:
        plan = _two_rows(cost, supplies, demands)
    elif n == 2:
        plan = _transpose(_two_rows(_transpose(cost), demands, supplies))
    else:
        plan = _transport_simplex(cost, supplies, demands)
    value = sum((q * c for row, crow in zip(plan, cost)
                 for q, c in zip(row, crow) if q), ZERO)
    return value, plan


def _transpose(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*matrix)]


def _two_rows(cost: Sequence[Sequence[Fraction]],
              supplies: Sequence[Fraction],
              demands: Sequence[Fraction]) -> list[list[Fraction]]:
    """Closed form for two supply points.  Row 1 takes whatever row 0 leaves
    of each column, so the cost is ``sum(c1 * demands)`` plus
    ``sum((c0 - c1) * x0)``: a fractional knapsack with capacities
    ``demands`` and exact load ``supplies[0]``, which the greedy fill in
    increasing order of ``c0 - c1`` solves."""
    c0, c1 = cost
    left = supplies[0]
    top = [ZERO] * len(demands)
    for j in sorted(range(len(demands)), key=lambda j: c0[j] - c1[j]):
        if not left:
            break
        take = min(left, demands[j])
        top[j] = take
        left -= take
    return [top, [q - t for q, t in zip(demands, top)]]


def _transport_simplex(cost: Sequence[Sequence[Fraction]],
                       supplies: Sequence[Fraction],
                       demands: Sequence[Fraction]) -> list[list[Fraction]]:
    """Transportation simplex: north-west-corner start, u/v potentials for
    reduced costs and cycle pivots on the spanning tree of basic cells.

    Anti-cycling is by perturbation: after dropping zero masses, supply
    ``i`` becomes ``a_i + eps`` and the last demand ``b_n + m*eps`` for a
    symbolic ``eps > 0``, and flows are pairs ``(value, eps coefficient)``
    compared lexicographically.  Cutting a basic cell splits the tree in
    two, and the cell's flow is the supply minus the demand on the supply
    side of the cut; its ``eps`` coefficient is the number of supplies
    there, less ``m`` if the last demand is there too.  That coefficient
    is non-zero unless every supply is on that side, and then the value is
    the positive demand beyond the cut, so no feasible basis is
    degenerate.  Every pivot therefore moves a positive flow around a
    cycle of negative reduced cost, the perturbed cost strictly falls, no
    basis repeats, and the loop ends.  The real parts of the final flows
    are a feasible basic solution of the unperturbed problem, and its
    reduced costs, which do not depend on the masses, prove it optimal.
    """
    rows = [i for i, q in enumerate(supplies) if q]
    cols = [j for j, q in enumerate(demands) if q]
    plan = [[ZERO] * len(demands) for _ in supplies]
    if not rows:
        return plan
    p, q = len(rows), len(cols)
    c = [[cost[i][j] for j in cols] for i in rows]
    s = [(supplies[i], 1) for i in rows]
    d = [(demands[j], 0) for j in cols]
    d[-1] = (d[-1][0], p)

    # north-west corner: the staircase of p + q - 1 cells
    flow: dict[tuple[int, int], tuple[Fraction, int]] = {}
    i = j = 0
    while i < p and j < q:
        if s[i] <= d[j]:
            flow[i, j] = s[i]
            d[j] = (d[j][0] - s[i][0], d[j][1] - s[i][1])
            i += 1
        else:
            flow[i, j] = d[j]
            s[i] = (s[i][0] - d[j][0], s[i][1] - d[j][1])
            j += 1

    # tree nodes: rows are 0..p-1, columns p..p+q-1; rooted at row 0
    def edge(node: int, parent: int) -> tuple[int, int]:
        return (node, parent - p) if node < p else (parent, node - p)

    while True:
        adj: list[list[int]] = [[] for _ in range(p + q)]
        for i, j in flow:
            adj[i].append(p + j)
            adj[p + j].append(i)
        pot: list[Fraction] = [ZERO] * (p + q)
        parent = [-1] * (p + q)
        depth = [0] * (p + q)
        seen = [False] * (p + q)
        seen[0] = True
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt], depth[nxt] = node, depth[node] + 1
                    i, j = edge(nxt, node)
                    pot[nxt] = c[i][j] - pot[node]
                    stack.append(nxt)

        best, enter = ZERO, None
        for i in range(p):
            for j in range(q):
                r = c[i][j] - pot[i] - pot[p + j]
                if r < best:
                    best, enter = r, (i, j)
        if enter is None:
            break

        # the cycle closed by the entering cell, with alternating signs
        a, b = enter[0], p + enter[1]
        up_a: list[tuple[int, int]] = []
        up_b: list[tuple[int, int]] = []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(edge(a, parent[a]))
                a = parent[a]
            else:
                up_b.append(edge(b, parent[b]))
                b = parent[b]
        cycle = [enter] + up_b + up_a[::-1]
        leave = min(cycle[1::2], key=flow.__getitem__)
        t0, t1 = flow[leave]
        flow[enter] = (ZERO, 0)
        for k, cell in enumerate(cycle):
            f0, f1 = flow[cell]
            flow[cell] = (f0 + t0, f1 + t1) if k % 2 == 0 else (f0 - t0, f1 - t1)
        del flow[leave]

    for (i, j), (value, _) in flow.items():
        plan[rows[i]][cols[j]] = value
    return plan
