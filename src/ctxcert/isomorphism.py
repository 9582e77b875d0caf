"""Graph isomorphism of exclusivity graphs, with a witness bijection.

No verdict needs it: it checks claims about scenarios, such as two generator
sets giving one atom graph.  ``ctxcert.graphs_isomorphic`` loads this module
on first use.
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded
from .graphs import DEFAULT_SEARCH_BUDGET, ExclusivityGraph


def _refine_colors(n: int, adj: list[set[int]], init: list[int]) -> list[int]:
    colors = init[:]
    while True:
        sig = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        table = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [table[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def graphs_isomorphic(
    g1: ExclusivityGraph, g2: ExclusivityGraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[bool, dict[str, str] | None]:
    """Backtracking isomorphism test; returns a vertex bijection when true."""
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False, None
    a1 = [set(g1._index[w] for w in g1._adj[v]) for v in g1.vertices]
    a2 = [set(g2._index[w] for w in g2._adj[v]) for v in g2.vertices]
    if sorted(map(len, a1)) != sorted(map(len, a2)):
        return False, None
    sizes1 = sorted(len(c) for c in g1.maximal_cliques())
    sizes2 = sorted(len(c) for c in g2.maximal_cliques())
    if sizes1 != sizes2:
        return False, None

    c1 = _refine_colors(n, a1, [len(s) for s in a1])
    c2 = _refine_colors(n, a2, [len(s) for s in a2])
    if sorted(c1) != sorted(c2):
        return False, None

    candidates = [sorted(u for u in range(n) if c2[u] == c1[v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), -len(a1[v])))
    mapping, inverse = [-1] * n, [-1] * n

    def fits(v: int, u: int) -> bool:
        """u is free and v -> u keeps every mapped neighbour, both ways."""
        return (
            inverse[u] == -1
            and all(mapping[w] == -1 or mapping[w] in a2[u] for w in a1[v])
            and all(inverse[x] == -1 or inverse[x] in a1[v] for x in a2[u])
        )

    # Depth-first with an explicit stack, so the depth is not bounded by the
    # interpreter's recursion limit.  Entry p of the stack is the index of the
    # next candidate to try for order[p]; a node is entered with the first
    # len(stack) positions mapped.
    stack: list[int] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(nodes, budget)
        if len(stack) == n:
            return True, {g1.vertices[v]: g2.vertices[mapping[v]] for v in range(n)}
        stack.append(0)
        while stack:
            pos = len(stack) - 1
            v = order[pos]
            cands = candidates[v]
            if mapping[v] != -1:
                inverse[mapping[v]] = -1
                mapping[v] = -1
            k = stack[pos]
            while k < len(cands) and not fits(v, cands[k]):
                k += 1
            if k < len(cands):
                stack[pos] = k + 1
                mapping[v], inverse[cands[k]] = cands[k], v
                break
            stack.pop()
        else:
            return False, None
