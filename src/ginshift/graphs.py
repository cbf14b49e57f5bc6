"""Graphs: constructors, induced-subgraph tests, and the two combinatorial
classifiers (forbidden subgraphs; iterated near-cone peeling), which read
adjacency bitmasks and vertex masks instead of building subgraphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .fields import InvalidInputError


def _norm_edge(e) -> tuple[int, int]:
    i, j = e
    if i == j:
        raise InvalidInputError(f"loop edge {e}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def make(cls, n: int, edges) -> "Graph":
        es = frozenset(_norm_edge(e) for e in edges)
        for i, j in es:
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidInputError(f"edge ({i},{j}) out of range 1..{n}")
        return cls(n, es)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Adjacency bitmasks, 1-based: bit j - 1 of ``adjacency[i]`` is set
        when ij is an edge; ``adjacency[0]`` is 0."""
        adj = [0] * (self.n + 1)
        for i, j in self.edges:
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        return tuple(adj)

    def _mask(self, v: int) -> int:
        return self.adjacency[v] if 1 <= v <= self.n else 0

    def has_edge(self, i: int, j: int) -> bool:
        return 1 <= j <= self.n and bool(self._mask(i) >> (j - 1) & 1)

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def neighbors(self, v: int) -> set[int]:
        mask = self._mask(v)
        return {j for j in range(1, self.n + 1) if mask >> (j - 1) & 1}

    def isolated_vertices(self) -> set[int]:
        return {v for v in range(1, self.n + 1) if self.degree(v) == 0}

    def complement(self) -> "Graph":
        all_pairs = {(i, j) for i, j in combinations(range(1, self.n + 1), 2)}
        return Graph(self.n, frozenset(all_pairs - self.edges))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph, relabeled 1..|vertices| in sorted vertex order."""
        vs = sorted(vertices)
        idx = {v: k + 1 for k, v in enumerate(vs)}
        es = {(idx[i], idx[j]) for i, j in self.edges if i in idx and j in idx}
        return Graph.make(len(vs), es)

    def delete_vertices(self, vertices) -> "Graph":
        return self.induced(set(range(1, self.n + 1)) - set(vertices))

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for v in range(1, self.n + 1):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in self.neighbors(u):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


# -- standard constructions --------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.make(n, combinations(range(1, n + 1), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.make(a + b, ((i, a + j) for i in range(1, a + 1)
                              for j in range(1, b + 1)))


def disjoint_cliques(a: int, b: int) -> Graph:
    edges = list(combinations(range(1, a + 1), 2))
    edges += list(combinations(range(a + 1, a + b + 1), 2))
    return Graph.make(a + b, edges)


def path_graph(n: int) -> Graph:
    return Graph.make(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    return Graph.make(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


#: the three forbidden graphs; edge sets pinned by the classification proof
GRAPH_A = Graph.make(4, [(1, 2), (1, 3), (3, 4)])
GRAPH_B = Graph.make(5, [(1, 2), (3, 4), (3, 5)])
GRAPH_C = Graph.make(6, [(1, 2), (3, 4), (5, 6)])


# -- induced subgraph search -------------------------------------------


def contains_induced(g: Graph, h: Graph):
    """(found, embedding): does some injection map h edge-exactly onto an
    induced subgraph of g?

    Backtracking on adjacency bitmasks: vertex a of h takes the images in
    ascending order, and an image v fits when its neighbours among the
    images of 1..a-1 are exactly the images of a's neighbours there. So
    the first embedding found is the first in ``permutations`` order."""
    if h.n > g.n:
        return False, None
    gadj, hadj, k = g.adjacency, h.adjacency, h.n
    img: list[int] = []

    def extend(used: int) -> bool:
        a = len(img) + 1
        if a > k:
            return True
        want = 0
        for b, v in enumerate(img):
            if hadj[a] >> b & 1:
                want |= 1 << (v - 1)
        for v in range(1, g.n + 1):
            bit = 1 << (v - 1)
            if not used & bit and gadj[v] & used == want:
                img.append(v)
                if extend(used | bit):
                    return True
                img.pop()
        return False

    if extend(0):
        return True, dict(zip(range(1, k + 1), img))
    return False, None


def condition_forbidden(g: Graph):
    """Neither g nor its complement contains (a), (b), (c) induced.

    Returns (flag, witness) where the witness names the forbidden graph and
    the embedding on first failure.
    """
    comp = g.complement()
    for name, h in (("a", GRAPH_A), ("b", GRAPH_B), ("c", GRAPH_C)):
        for tag, target in (("G", g), ("complement", comp)):
            found, emb = contains_induced(target, h)
            if found:
                return False, {"graph": name, "in": tag, "embedding": emb}
    return True, None


# -- near cones and peeling --------------------------------------------


def _vertices(mask: int) -> list[int]:
    """The vertices of a vertex mask, ascending."""
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def _core(adj, vertices: int) -> int:
    """The vertices of the mask with a neighbour in it."""
    return sum(1 << (v - 1) for v in _vertices(vertices) if adj[v] & vertices)


def _apexes(adj, vertices: int) -> list[int]:
    """The apexes of the subgraph induced on a vertex mask, ascending: the
    vertices adjacent to every other vertex of its core."""
    core = _core(adj, vertices)
    return [v for v in _vertices(vertices)
            if not core & ~adj[v] & ~(1 << (v - 1))]


def is_near_cone(g: Graph, v: int) -> bool:
    """Every non-isolated vertex other than v is adjacent to v."""
    if not 1 <= v <= g.n:
        raise InvalidInputError(f"vertex {v} out of range")
    return v in _apexes(g.adjacency, (1 << g.n) - 1)


SEMI_BIPARTITE = "semi-complete-bipartite"
TWO_CLIQUES = "two-semi-complete-cliques"
NEITHER = "neither"


def _base_form(adj, vertices: int) -> str:
    """``base_form`` of the subgraph induced on a vertex mask. With B the
    neighbours of the first core vertex, the core is complete bipartite when
    each vertex of B has the rest of the core as its neighbours and each
    other core vertex has B, and at most two cliques when the closed
    neighbourhoods (shared by adjacent vertices) split it in at most two."""
    core = _core(adj, vertices)
    if not core:
        return SEMI_BIPARTITE
    b = adj[(core & -core).bit_length()] & core
    rest = core & ~b
    if all(adj[v] & core == rest for v in _vertices(b)) \
            and all(adj[v] & core == b for v in _vertices(rest)):
        return SEMI_BIPARTITE
    hoods = {adj[v] & core | 1 << (v - 1) for v in _vertices(core)}
    return TWO_CLIQUES if len(hoods) <= 2 and sum(hoods) == core else NEITHER


def base_form(g: Graph) -> str:
    """Classify g after deleting isolated vertices: complete bipartite,
    disjoint union of at most two complete graphs, or neither.

    The edgeless graph is accepted as (degenerate) complete bipartite; a
    connected core that is both (K_2) is complete bipartite.
    """
    return _base_form(g.adjacency, (1 << g.n) - 1)


def condition_peelable(g: Graph):
    """Is g a k-near cone of a semi-complete bipartite graph or of a
    disjoint union of two semi-complete graphs, for some k >= 0?

    Exhaustive branching over peelable vertices in ascending order, with
    memoization on the residual vertex mask (greedy peeling is not
    obviously confluent). Returns (flag, peel_sequence, base_label).
    """
    adj, memo = g.adjacency, {}

    def search(vertices: int):
        if vertices in memo:
            return memo[vertices]
        label = _base_form(adj, vertices)
        if label != NEITHER:
            memo[vertices] = (True, (), label)
            return memo[vertices]
        result = (False, None, NEITHER)
        for v in _apexes(adj, vertices):
            ok, seq, lab = search(vertices & ~(1 << (v - 1)))
            if ok:
                result = (True, (v,) + seq, lab)
                break
        memo[vertices] = result
        return result

    return search((1 << g.n) - 1)


# public contract names for the two classifiers
condition_v = condition_forbidden
condition_vi = condition_peelable


# -- chordality --------------------------------------------------------


def lexbfs_order(g: Graph) -> list[int]:
    labels: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    order = []
    remaining = set(range(1, g.n + 1))
    step = g.n
    while remaining:
        v = max(remaining, key=lambda u: (labels[u], -u))
        order.append(v)
        remaining.discard(v)
        for w in g.neighbors(v):
            if w in remaining:
                labels[w].append(step)
        step -= 1
    return order


def is_chordal(g: Graph) -> bool:
    """Perfect elimination ordering via LexBFS, then the standard check."""
    order = lexbfs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    # reversed LexBFS order is a PEO iff g is chordal
    for v in order:
        earlier = {w for w in g.neighbors(v) if pos[w] < pos[v]}
        if not earlier:
            continue
        u = max(earlier, key=lambda w: pos[w])
        if not (earlier - {u}) <= g.neighbors(u):
            return False
    return True


# -- serialization -----------------------------------------------------


def write_graph(g: Graph) -> str:
    lines = [f"n {g.n}"] + [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    """A graph from ``n <int>`` and one ``i j`` line per edge, or from JSON
    ``{"n": <int>, "edges": [[i, j], ...]}``."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
            n = int(data["n"])
            edges = [tuple(map(int, e)) for e in data["edges"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(
                'graph JSON needs "n" and a list of "edges"') from exc
    else:
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines or len(lines[0]) != 2 or lines[0][0] != "n":
            raise InvalidInputError("graph file must start with 'n <int>'")
        n = int(lines[0][1])
        edges = [(int(a), int(b)) for a, b in lines[1:]]
    if n < 0:
        raise InvalidInputError(f"graph file has negative n={n}")
    return Graph.make(n, edges)
