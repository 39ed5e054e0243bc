"""Immutable graphs plus the structural kernels everything else consumes.

Vertices are dense integer ids 0..n-1.  Adjacency lists are kept sorted so
every traversal, and therefore every tie-break downstream, is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush


class EarDecompositionError(ValueError):
    """The graph admits no open ear decomposition."""


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[tuple[int, ...], ...]
    edge_count: int
    max_degree: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield u, v

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def new_graph(n: int, edges) -> Graph:
    """Build a simple undirected graph, deduplicating parallel edges.

    Raises ValueError naming the offending edge on a self-loop or an
    out-of-range endpoint.
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    adj_sets: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"edge ({u}, {v}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in adj_sets)
    return Graph(
        n=n,
        adj=adj,
        edge_count=sum(len(a) for a in adj) // 2,
        max_degree=max(len(a) for a in adj),
    )


def _check_subset(g: Graph, s) -> frozenset[int]:
    s = frozenset(s)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} is not in 0..{g.n - 1}")
    return s


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of some vertex set, listed by smallest member."""

    ids: dict
    members: tuple[frozenset[int], ...]

    @property
    def count(self) -> int:
        return len(self.members)


def induced_components(g: Graph, s) -> ComponentPartition:
    """Components of the subgraph induced by s."""
    s = _check_subset(g, s)
    ids: dict[int, int] = {}
    members = []
    for start in sorted(s):
        if start in ids:
            continue
        comp_id = len(members)
        ids[start] = comp_id
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w in s and w not in ids:
                    ids[w] = comp_id
                    comp.append(w)
                    queue.append(w)
        members.append(frozenset(comp))
    return ComponentPartition(ids=ids, members=tuple(members))


def closed_components(g: Graph, s) -> ComponentPartition:
    """Components of the spanning subgraph on all n vertices that keeps
    exactly the edges with at least one end in s.

    Vertices with no retained incident edge come out as singletons, so the
    count for the empty set is n.
    """
    s = _check_subset(g, s)
    ids: dict[int, int] = {}
    members = []
    for start in range(g.n):
        if start in ids:
            continue
        comp_id = len(members)
        ids[start] = comp_id
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            u_in = u in s
            for w in g.adj[u]:
                if (u_in or w in s) and w not in ids:
                    ids[w] = comp_id
                    comp.append(w)
                    queue.append(w)
        members.append(frozenset(comp))
    return ComponentPartition(ids=ids, members=tuple(members))


def _dfs_splits(g: Graph, s, want_blocks: bool):
    """One low-link pass over G[s] (Tarjan, SIAM J. Comput. 1972).

    Returns (split, comp_count, blocks).  `split` is a list over all n
    vertices: split[x] is the number of pieces x's own component falls into
    once x is deleted (0 for a singleton component, 1 for a non-cut vertex,
    >= 2 for a cut vertex), and 0 for every x outside s.  `blocks` lists the
    blocks of G[s] in the order the pass closes them, or is None unless
    `want_blocks`.  Roots are taken in id order and each adjacency is walked
    in its sorted order, skipping non-members inline.
    """
    adj = g.adj
    member = [False] * g.n
    for v in s:
        member[v] = True
    disc = [-1] * g.n
    low = [0] * g.n
    split = [0] * g.n
    comp_count = 0
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[int]] | None = [] if want_blocks else None

    for root in sorted(s):
        if disc[root] >= 0:
            continue
        comp_count += 1
        disc[root] = low[root] = timer
        timer += 1
        # frames are (vertex, DFS parent, iterator over its adjacency)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, u, it = stack[-1]
            for w in it:
                if not member[w] or w == u:
                    continue
                dw = disc[w]
                if dw < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    # a non-root vertex owns the piece holding its parent
                    split[w] = 1
                    if want_blocks:
                        edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if dw < disc[v]:
                    if dw < low[v]:
                        low[v] = dw
                    if want_blocks:
                        edge_stack.append((v, w))
            else:
                stack.pop()
                if u < 0:
                    continue
                if low[v] < low[u]:
                    low[u] = low[v]
                # always true at the root: each of its subtrees is a piece
                if low[v] >= disc[u]:
                    split[u] += 1
                    if want_blocks:
                        block = {u, v}
                        while edge_stack and edge_stack[-1] != (u, v):
                            a, b = edge_stack.pop()
                            block.add(a)
                            block.add(b)
                        if edge_stack:
                            edge_stack.pop()
                        blocks.append(frozenset(block))
        if want_blocks and split[root] == 0:
            # no incident edges inside s: deleting the vertex deletes its
            # whole component, hence split 0 and a one-vertex block
            blocks.append(frozenset([root]))
    return split, comp_count, blocks


class OnlineBlockForest:
    """Split counts and components of G[C] kept exact while C only grows.

    The insert-only block forest of Westbrook & Tarjan, "Maintaining
    bridge-connected and biconnected components on-line" (Algorithmica
    1992).  Each component of G[C] is a rooted tree that alternates vertex
    and block nodes, with the blocks in a union-find.  A vertex's parent is
    the block it shares with the vertex above it; a block's parent is its
    topmost vertex.  An edge between two trees re-roots the smaller one at
    its end and hangs it below the other end through a new two-vertex block.
    An edge inside a tree closes a cycle, so the blocks on the tree path
    between its ends condense into one.  `split[v]` is the number of blocks
    holding v, which is the number of pieces v's component falls into once
    v is deleted (0 for a singleton, as in `_dfs_splits`).  `cuts` maps each
    component id to its vertices of split >= 2, for the components that
    have one.  `pieces_hit` names those pieces by climbing the tree, and
    `small_piece_touchers` searches them.  Block ids, roots and component
    ids depend on the insertion order; no query exposes them.  Both greedy
    phases grow C through one of these forests.
    """

    __slots__ = (
        "g", "in_c", "split", "comp", "members", "cuts", "vparent", "bparent", "bunion", "_heap"
    )

    def __init__(self, g: Graph, s=()):
        n = g.n
        self.g = g
        self.in_c = [False] * n
        self.split = [0] * n  # blocks holding v, for members of C
        self.comp = [-1] * n  # component id, the founding member of the component
        self.members: dict[int, list[int]] = {}
        self.cuts: dict[int, set[int]] = {}
        self.vparent = [-1] * n  # parent block of a vertex, -1 at a root
        self.bparent: list[int] = []  # parent vertex of a block
        self.bunion: list[int] = []  # union-find over block ids
        self._heap: list[int] = []  # min-heap of cut vertices, stale entries popped lazily
        for v in sorted(_check_subset(g, s)):
            self.add(v)

    @property
    def count(self) -> int:
        """Components of G[C]."""
        return len(self.members)

    def component(self, v: int) -> list[int]:
        """The members of v's component."""
        return self.members[self.comp[v]]

    def smallest_cut(self) -> int | None:
        """The smallest vertex with split >= 2, or None."""
        heap, split = self._heap, self.split
        while heap and split[heap[0]] < 2:
            heappop(heap)
        return heap[0] if heap else None

    def pieces_hit(self, x: int, vertices) -> int:
        """Pieces of (component of x) - x that contain a vertex of
        `vertices`; every vertex must lie in x's component, x itself is
        ignored."""
        return len({self._piece(x, u) for u in vertices if u != x})

    def _piece(self, x: int, u: int) -> int:
        # a climb from u that reaches x names the child block it came
        # through; one that reaches the root lies beyond x's parent block
        vparent, bparent, find = self.vparent, self.bparent, self._find
        v = u
        while vparent[v] >= 0:
            block = find(vparent[v])
            v = bparent[block]
            if v == x:
                return block
        return -1

    def small_piece_touchers(self, x: int) -> set[int]:
        """Outside vertices next to the pieces of (component of x) - x that
        a lock-step search finishes first (Even & Shiloach, "An on-line
        edge-deletion problem", J. ACM 1981).  Each round expands one vertex
        of every piece still growing, and the search stops when at most one
        is, so it costs about the pieces' volume without the largest.  An
        outside vertex next to two pieces is next to a finished one."""
        adj, in_c = self.g.adj, self.in_c
        pieces: dict[int, list[int]] = {}
        for u in adj[x]:
            if in_c[u]:
                pieces.setdefault(self._piece(x, u), []).append(u)
        seen = {x}.union(*pieces.values())
        live = [[us, 0] for us in pieces.values()]  # reached vertices, next to expand
        done: list[list[int]] = []
        while len(live) > 1:
            for search in live:
                reached, i = search
                for w in adj[reached[i]]:
                    if in_c[w] and w not in seen:
                        seen.add(w)
                        reached.append(w)
                search[1] = i + 1
            done += [reached for reached, i in live if i == len(reached)]
            live = [search for search in live if search[1] < len(search[0])]
        return {w for reached in done for v in reached for w in adj[v] if not in_c[w]}

    def add(self, y: int) -> None:
        if self.in_c[y]:
            raise ValueError(f"vertex {y} is already in C")
        in_c, comp = self.in_c, self.comp
        in_c[y] = True
        comp[y] = y  # ids are founding members, so y is free
        self.members[y] = [y]
        for w in self.g.adj[y]:
            if in_c[w]:
                if comp[w] != comp[y]:
                    self._link(y, w)
                else:
                    self._condense(y, w)

    def _find(self, b: int) -> int:
        bunion = self.bunion
        while bunion[b] != b:
            bunion[b] = b = bunion[bunion[b]]
        return b

    def _bump(self, v: int) -> None:
        self.split[v] += 1
        if self.split[v] == 2:
            heappush(self._heap, v)
            self.cuts.setdefault(self.comp[v], set()).add(v)

    def _link(self, a: int, b: int) -> None:
        # hang the smaller tree, re-rooted at its end of the edge, below the
        # other end through a new two-vertex block
        comp, members = self.comp, self.members
        if len(members[comp[a]]) > len(members[comp[b]]):
            a, b = b, a
        self._reroot(a)
        block = len(self.bparent)
        self.bparent.append(b)
        self.bunion.append(block)
        self.vparent[a] = block
        big = comp[b]
        moved_cuts = self.cuts.pop(comp[a], None)
        if moved_cuts:
            self.cuts.setdefault(big, set()).update(moved_cuts)
        moved = members.pop(comp[a])
        for v in moved:
            comp[v] = big
        members[big].extend(moved)
        self._bump(a)
        self._bump(b)

    def _reroot(self, a: int) -> None:
        # reverse the parent pointers on the path from a to its root
        vparent, bparent = self.vparent, self.bparent
        below = -1
        v = a
        while True:
            block = vparent[v]
            vparent[v] = below
            if block < 0:
                return
            block = self._find(block)
            v, bparent[block] = bparent[block], v
            below = block

    def _condense(self, y: int, w: int) -> None:
        # nodes: vertex v is v, block b is n + b.  Climb from both ends in
        # turn until one climb reaches a node the other has seen: that node
        # tops the tree path, and every block on the path becomes one.
        n = self.g.n
        vparent, bparent, find = self.vparent, self.bparent, self._find
        paths = ([y], [w])
        side = {y: 0, w: 1}
        done = [False, False]
        s = 0
        while True:
            if not done[s]:
                node = paths[s][-1]
                if node < n:
                    block = vparent[node]
                    up = -1 if block < 0 else n + find(block)
                else:
                    up = bparent[node - n]
                if up < 0:
                    if done[1 - s]:
                        raise RuntimeError(f"{y} and {w} share a component but not a tree")
                    done[s] = True
                elif up in side:
                    break
                else:
                    side[up] = s
                    paths[s].append(up)
            s ^= 1
        other = paths[1 - s]
        path = paths[s] + other[: other.index(up) + 1]
        blocks = [node - n for node in path if node >= n]
        if len(blocks) == 1:
            return  # y and w already share a block
        # each path vertex other than y and w held two of the merged blocks
        split, cuts = self.split, self.cuts
        for v in path:
            if v < n and v != y and v != w:
                split[v] -= 1
                if split[v] == 1:
                    k = self.comp[v]
                    cuts[k].remove(v)
                    if not cuts[k]:
                        del cuts[k]
        top = blocks[0]
        for block in blocks:
            self.bunion[block] = top
        bparent[top] = bparent[up - n] if up >= n else up


def split_counts(g: Graph, s) -> dict:
    """split[x] for every x in s, as defined in _dfs_splits."""
    s = _check_subset(g, s)
    split, _, _ = _dfs_splits(g, s, want_blocks=False)
    return {v: split[v] for v in s}


@dataclass(frozen=True)
class ArticulationReport:
    split_count: dict
    cut_vertices: tuple[int, ...]
    component_count: int
    blocks: tuple[frozenset[int], ...]
    block_cut_edges: tuple[tuple[int, int], ...]


def articulation_report(g: Graph, s) -> ArticulationReport:
    """Split counts, cut vertices and the block decomposition of G[s]."""
    s = _check_subset(g, s)
    split, comp_count, blocks = _dfs_splits(g, s, want_blocks=True)
    cuts = tuple(sorted(v for v in s if split[v] >= 2))
    blocks = tuple(blocks or ())
    bc_edges = []
    cut_set = set(cuts)
    for i, block in enumerate(blocks):
        for v in sorted(block & cut_set):
            bc_edges.append((v, i))
    return ArticulationReport(
        split_count={v: split[v] for v in s},
        cut_vertices=cuts,
        component_count=comp_count,
        blocks=blocks,
        block_cut_edges=tuple(sorted(bc_edges)),
    )


def is_biconnected(g: Graph, s) -> bool:
    """True iff |s| >= 3, G[s] is connected, and no vertex of s cuts it."""
    s = _check_subset(g, s)
    if len(s) < 3:
        return False
    split, comp_count, _ = _dfs_splits(g, s, want_blocks=False)
    return comp_count == 1 and max(split) <= 1


def ear_decomposition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Open ear decomposition via a DFS chain decomposition.

    The first element is a cycle given as a vertex sequence without the
    closing repeat.  Every later element is an ear: its two endpoints lie on
    earlier elements, its interior vertices are new, and a chord comes out as
    a two-vertex ear.  Raises EarDecompositionError when no decomposition
    exists; succeeding is equivalent to the graph being biconnected, and the
    test here never consults a separate biconnectivity check.
    """
    if g.n < 3:
        raise EarDecompositionError("need at least 3 vertices")
    disc: dict[int, int] = {}
    parent: dict[int, int] = {}
    order = []
    stack = [(0, iter(g.adj[0]))]
    disc[0] = 0
    order.append(0)
    timer = 1
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            continue
        if w not in disc:
            disc[w] = timer
            timer += 1
            parent[w] = v
            order.append(w)
            stack.append((w, iter(g.adj[w])))
    if len(disc) != g.n:
        raise EarDecompositionError("graph is disconnected")

    marked = [False] * g.n
    chains: list[tuple[int, ...]] = []
    for u in order:
        for w in g.adj[u]:
            if disc[w] <= disc[u] or parent.get(w) == u:
                continue  # tree edge or the lower end of a back edge
            if not marked[u]:
                if chains:
                    raise EarDecompositionError(
                        f"vertex {u} starts a chain but lies on no earlier one"
                    )
                marked[u] = True
            chain = [u]
            cur = w
            while not marked[cur]:
                marked[cur] = True
                chain.append(cur)
                cur = parent[cur]
            chain.append(cur)
            if chains:
                if chain[0] == chain[-1]:
                    raise EarDecompositionError(
                        f"extra cycle through vertex {u}: {tuple(chain)}"
                    )
                chains.append(tuple(chain))
            else:
                # the first chain always closes back on its start
                chains.append(tuple(chain[:-1]))
    if not chains:
        raise EarDecompositionError("graph has no cycle")
    for v in range(g.n):
        if not marked[v]:
            raise EarDecompositionError(f"vertex {v} lies on no chain")
    return tuple(chains)


def restricted_shortest_path(
    g: Graph, from_set, to_set, allowed_interior
) -> tuple[int, ...]:
    """Minimum-hop path from from_set to to_set whose interior vertices all
    lie in allowed_interior.  Ties go to the lexicographically smallest
    vertex sequence.  Returns () when no such path exists.
    """
    from_set = _check_subset(g, from_set)
    to_set = _check_subset(g, to_set)
    allowed = _check_subset(g, allowed_interior)
    if not from_set or not to_set:
        raise ValueError("from_set and to_set must be non-empty")
    if from_set & to_set:
        raise ValueError("from_set and to_set must be disjoint")

    # breadth-first from the target side; only targets and allowed interior
    # vertices may relay, anything can receive a label
    dist: dict[int, int] = dict.fromkeys(to_set, 0)
    queue = deque(sorted(to_set))
    while queue:
        u = queue.popleft()
        if dist[u] > 0 and u not in allowed:
            continue
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)

    starts = [v for v in from_set if v in dist]
    if not starts:
        return ()
    best = min(dist[v] for v in starts)
    cur = min(v for v in starts if dist[v] == best)
    path = [cur]
    r = best
    while r > 0:
        nxt = None
        for w in g.adj[cur]:
            if dist.get(w) != r - 1:
                continue
            if r - 1 == 0:
                if w not in to_set:
                    continue
            elif w not in allowed:
                continue
            nxt = w
            break  # adjacency is sorted, first hit is smallest
        assert nxt is not None, "label reconstruction lost the path"
        path.append(nxt)
        cur = nxt
        r -= 1
    return tuple(path)
