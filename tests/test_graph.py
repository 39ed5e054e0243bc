import pytest
from hypothesis import example, given, strategies as st

try:
    import networkx as nx
except ImportError:  # only the third, independent check below needs it
    nx = None

from cds_forge import (
    EarDecompositionError,
    GenSpec,
    articulation_report,
    closed_components,
    ear_decomposition,
    generate,
    induced_components,
    is_biconnected,
    new_graph,
    restricted_shortest_path,
    split_counts,
)
from cds_forge.checks import validate_ear_decomposition
from cds_forge.graph import OnlineBlockForest, _dfs_splits

from conftest import P8_EDGES, complete_edges, cycle_edges


def test_new_graph_basics(p8):
    assert p8.n == 8
    assert p8.edge_count == 10
    assert p8.max_degree == 4
    assert p8.degree(3) == 4
    assert p8.degree(7) == 2
    assert p8.has_edge(3, 7) and p8.has_edge(7, 3)
    assert not p8.has_edge(0, 3)
    assert list(p8.adj[3]) == sorted(p8.adj[3])
    assert sorted(p8.edges()) == sorted(tuple(sorted(e)) for e in P8_EDGES)


def test_new_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(-1, 2)])


def test_new_graph_deduplicates():
    g = new_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edge_count == 2


def test_induced_components(p8):
    parts = induced_components(p8, {0, 2, 4})
    assert parts.count == 2
    assert set(parts.members) == {frozenset({0, 2}), frozenset({4})}
    assert parts.ids[0] == parts.ids[2] != parts.ids[4]
    assert induced_components(p8, ()).count == 0
    assert induced_components(p8, range(8)).count == 1


def test_closed_components(p8):
    # spanning subgraph keeps edges with at least one end inside the set
    assert closed_components(p8, {3}).count == 4
    assert closed_components(p8, {1, 3}).count == 2
    assert closed_components(p8, ()).count == 8
    assert closed_components(p8, range(8)).count == 1


def test_split_counts_subset(p8):
    split = split_counts(p8, {0, 1, 2, 3, 4})
    assert split[3] == 2
    assert split[0] == split[1] == split[2] == split[4] == 1


def test_split_counts_edge_cases(p8):
    assert split_counts(p8, ()) == {}
    assert split_counts(p8, {5}) == {5: 0}
    # deleting from the full (biconnected) graph never disconnects anything
    assert set(split_counts(p8, range(8)).values()) == {1}


def test_split_deletion_identity(p8):
    # split[x] predicts the component count after deleting x
    for s in [{0, 1, 2, 3, 4}, {0, 3, 4, 6}, {1, 2, 5}, set(range(8))]:
        split = split_counts(p8, s)
        before = induced_components(p8, s).count
        for x in s:
            after = induced_components(p8, s - {x}).count
            assert after == before - 1 + split[x]


def test_articulation_report(p8):
    rep = articulation_report(p8, {0, 1, 2, 3, 4})
    assert rep.cut_vertices == (3,)
    assert rep.component_count == 1
    assert set(rep.blocks) == {frozenset({3, 4}), frozenset({0, 1, 2, 3})}
    assert all(v == 3 for v, _ in rep.block_cut_edges)
    assert len(rep.block_cut_edges) == 2


def test_articulation_report_isolated_vertex(p8):
    rep = articulation_report(p8, {0, 5})
    assert rep.component_count == 2
    assert rep.cut_vertices == ()
    assert set(rep.blocks) == {frozenset({0}), frozenset({5})}


def test_is_biconnected(p8, triangle, c4):
    assert is_biconnected(p8, range(8))
    assert is_biconnected(triangle, range(3))
    assert is_biconnected(c4, range(4))
    assert not is_biconnected(p8, {0, 1, 2})      # path through 3? no: 0-1, 0-2
    assert not is_biconnected(p8, {0, 1})         # too small
    assert not is_biconnected(p8, {0, 1, 2, 3, 4})  # 3 is a cut vertex
    assert not is_biconnected(p8, {0, 4, 5})      # disconnected


def test_ear_decomposition_triangle(triangle):
    assert ear_decomposition(triangle) == ((0, 2, 1),)


def test_ear_decomposition_cycle(c5):
    assert ear_decomposition(c5) == ((0, 4, 3, 2, 1),)


def test_ear_decomposition_chord():
    g = new_graph(4, cycle_edges(4) + [(0, 2)])
    ears = ear_decomposition(g)
    assert len(ears) == 2
    validate_ear_decomposition(g, ears)


def test_ear_decomposition_reference(p8, k4, k5):
    for g in (p8, k4, k5):
        ears = ear_decomposition(g)
        validate_ear_decomposition(g, ears)
        # edge bookkeeping: the cycle brings as many edges as vertices, each
        # ear one fewer than its length
        total = len(ears[0]) + sum(len(e) - 1 for e in ears[1:])
        assert total == g.edge_count


def test_ear_decomposition_failures():
    with pytest.raises(EarDecompositionError):
        ear_decomposition(new_graph(2, [(0, 1)]))
    with pytest.raises(EarDecompositionError):
        ear_decomposition(new_graph(4, [(0, 1), (1, 2), (2, 3)]))  # path
    with pytest.raises(EarDecompositionError):
        ear_decomposition(new_graph(6, cycle_edges(3) + [(3, 4), (4, 5), (5, 3)]))
    # two cycles joined by a bridge: connected, has cycles, still not ok
    with pytest.raises(EarDecompositionError):
        ear_decomposition(
            new_graph(6, cycle_edges(3) + [(0, 3), (3, 4), (4, 5), (5, 3)])
        )


@given(st.integers(min_value=0, max_value=2000))
def test_ear_decomposition_on_generated_hosts(seed):
    g = generate(GenSpec(kind="hpath", n=4 + seed % 12, seed=seed, extra=seed % 3))
    validate_ear_decomposition(g, ear_decomposition(g))


def test_restricted_path_reference(p8):
    assert restricted_shortest_path(p8, {0}, {3}, {1, 2}) == (0, 1, 3)
    # direct adjacency needs no interior at all
    assert restricted_shortest_path(p8, {0}, {1}, ()) == (0, 1)
    # interior excluded -> unreachable
    assert restricted_shortest_path(p8, {0}, {5}, ()) == ()
    assert restricted_shortest_path(p8, {0}, {5}, {4, 6}) == ()
    assert restricted_shortest_path(p8, {0}, {5}, {1, 3, 4}) == (0, 1, 3, 4, 5)


def test_restricted_path_lex_tie(c6):
    # both 1 and 5 give two-hop routes from 0 to the far side; pick through 1
    assert restricted_shortest_path(c6, {0}, {2, 4}, {1, 5}) == (0, 1, 2)


def test_restricted_path_validation(p8):
    with pytest.raises(ValueError):
        restricted_shortest_path(p8, set(), {3}, {1})
    with pytest.raises(ValueError):
        restricted_shortest_path(p8, {3}, {3, 4}, {1})


def test_complete_graph_structure():
    g = new_graph(5, complete_edges(5))
    assert g.edge_count == 10
    assert is_biconnected(g, range(5))
    assert set(split_counts(g, range(5)).values()) == {1}


@st.composite
def host_subset_candidate(draw):
    """A random graph, a vertex set C in a random insertion order and a
    candidate y outside C.  The graph is a random tree plus a few chords, so
    G[C] has many cut vertices, and y gets extra neighbors, so it often
    touches several pieces at one cut vertex."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n // 2))
    y = draw(st.integers(min_value=0, max_value=n - 1))
    others = [v for v in range(n) if v != y]
    edges += [(y, w) for w in draw(st.sets(st.sampled_from(others)))]
    c = draw(st.sets(st.sampled_from(others), min_size=len(others) // 2))
    return new_graph(n, edges), draw(st.permutations(sorted(c))), y


@given(host_subset_candidate())
def test_online_block_forest_pieces_hit(case):
    # adding y merges the components of G[C] it touches into K'.  y splits
    # K' into one piece per touched component, and x in a touched K into
    # split(x) - h(x) + 1, h(x) = pieces of K - x holding a neighbor of y.
    # The forest's shape depends on the insertion order; h(x) must not.
    g, order, y = case
    c = frozenset(order)
    split = split_counts(g, c)
    forest = OnlineBlockForest(g)
    for v in order:
        forest.add(v)
    parts = induced_components(g, c)
    nbrs = [w for w in g.adj[y] if w in c]
    touched = {parts.ids[w] for w in nbrs}
    merged = {y}.union(*(parts.members[i] for i in touched))
    after = split_counts(g, merged)
    assert after[y] == len(touched)
    for i in touched:
        k = parts.members[i]
        k_nbrs = [w for w in nbrs if w in k]
        for x in k:
            pieces = induced_components(g, k - {x}).members
            h = sum(1 for piece in pieces if piece.intersection(k_nbrs))
            assert forest.pieces_hit(x, k_nbrs) == h
            if split[x] < 2:
                assert h == (1 if set(k_nbrs) - {x} else 0)
            assert after[x] == split[x] - h + 1


@st.composite
def host_and_insertion_order(draw):
    """A random tree plus a few chords, or any graph at all (often
    disconnected), and a random order in which a prefix of its vertices
    joins C."""
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if n > 1 and draw(st.booleans()):
        edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
        edges += draw(st.lists(st.sampled_from(pairs), max_size=n // 2))
    elif pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    else:
        edges = []
    order = draw(st.permutations(range(n)))
    return new_graph(n, edges), order[: draw(st.integers(min_value=1, max_value=n))]


# the cycle 0-1-2-3-6-5-4: vertex 3 links the tree {5, 6}, rooted at 5,
# through 6, so that tree must be re-rooted before vertex 4 closes the cycle
REROOT_CASE = (
    new_graph(7, [(0, 1), (1, 2), (2, 3), (3, 6), (6, 5), (5, 4), (4, 0)]),
    [5, 6, 0, 1, 2, 3, 4],
)


@example(REROOT_CASE)
@given(host_and_insertion_order())
def test_online_block_forest_matches_kernels(case):
    # after every insertion: the split counts, the components, the smallest
    # cut vertex and the cut vertices of each component agree with the
    # from-scratch kernels, and the cut vertices with networkx
    g, order = case
    forest = OnlineBlockForest(g)
    c: set[int] = set()
    for y in order:
        forest.add(y)
        c.add(y)
        split = split_counts(g, c)
        assert {v: forest.split[v] for v in c} == split
        parts = induced_components(g, c)
        assert forest.count == parts.count
        for v in c:
            assert frozenset(forest.component(v)) == parts.members[parts.ids[v]]
        cuts = sorted(v for v in c if split[v] >= 2)
        assert forest.smallest_cut() == (cuts[0] if cuts else None)
        by_comp: dict[int, set[int]] = {}
        for v in cuts:
            by_comp.setdefault(forest.comp[v], set()).add(v)
        assert forest.cuts == by_comp
        if nx is not None:
            h = nx.Graph()
            h.add_nodes_from(c)
            h.add_edges_from((u, w) for u, w in g.edges() if u in c and w in c)
            assert set(nx.articulation_points(h)) == set(cuts)
    built = OnlineBlockForest(g, order)
    assert built.split == forest.split and built.count == forest.count
    with pytest.raises(ValueError, match="already in C"):
        forest.add(order[0])


def _dfs_splits_reference(g, s, want_blocks):
    """The dict-based low-link pass the list kernel replaced, kept as its
    reference: split is a dict over s."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int] = {}
    split = dict.fromkeys(s, 0)
    comp_count = 0
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[int]] | None = [] if want_blocks else None

    def nbrs(v):
        return iter([w for w in g.adj[v] if w in s])

    for root in sorted(s):
        if root in disc:
            continue
        comp_count += 1
        disc[root] = low[root] = timer
        timer += 1
        isolated = True
        stack = [(root, nbrs(root))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u == root:
                        split[u] += 1
                    elif low[v] >= disc[u]:
                        split[u] += 1
                    if blocks is not None and low[v] >= disc[u]:
                        block = {u, v}
                        while edge_stack and edge_stack[-1] != (u, v):
                            a, b = edge_stack.pop()
                            block.add(a)
                            block.add(b)
                        if edge_stack:
                            edge_stack.pop()
                        blocks.append(frozenset(block))
                continue
            if w == parent.get(v):
                continue
            if w in disc:
                if disc[w] < disc[v]:
                    low[v] = min(low[v], disc[w])
                    if blocks is not None:
                        edge_stack.append((v, w))
            else:
                isolated = False
                disc[w] = low[w] = timer
                timer += 1
                parent[w] = v
                if blocks is not None:
                    edge_stack.append((v, w))
                stack.append((w, nbrs(w)))
        if isolated:
            split[root] = 0
            if blocks is not None:
                blocks.append(frozenset([root]))
    for v in s:
        if v in parent:
            split[v] += 1
    return split, comp_count, blocks


@st.composite
def host_and_subset(draw):
    """Any graph on up to 20 vertices, often disconnected and with isolated
    vertices, and any subset of its vertices, the empty one included."""
    n = draw(st.integers(min_value=1, max_value=20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    s = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return new_graph(n, edges), frozenset(s)


@pytest.mark.parametrize("want_blocks", [False, True])
# two triangles, a lone vertex outside s and a lone vertex inside it
@example(
    case=(
        new_graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        frozenset({0, 1, 2, 3, 4, 5, 7}),
    )
)
@example(case=(new_graph(3, [(0, 1), (1, 2)]), frozenset()))
@given(case=host_and_subset())
def test_dfs_splits_matches_reference(case, want_blocks):
    g, s = case
    split, comp_count, blocks = _dfs_splits(g, s, want_blocks)
    ref_split, ref_count, ref_blocks = _dfs_splits_reference(g, s, want_blocks)
    assert len(split) == g.n
    assert {v: split[v] for v in s} == ref_split
    assert all(split[v] == 0 for v in range(g.n) if v not in s)
    assert comp_count == ref_count
    assert blocks == ref_blocks


@example(REROOT_CASE)
@given(host_and_insertion_order())
def test_small_piece_touchers_hold_every_two_piece_vertex(case):
    # against the pieces of K - x from scratch: the search returns every
    # outside vertex with neighbors in two pieces, and only outside
    # neighbors of K - x; with fewer than two pieces it searches nothing
    g, order = case
    forest = OnlineBlockForest(g)
    for y in order:
        forest.add(y)
    c = set(order)
    parts = induced_components(g, c)
    for x in c:
        rest = parts.members[parts.ids[x]] - {x}
        pieces = induced_components(g, rest).members
        got = forest.small_piece_touchers(x)
        outside = [y for y in range(g.n) if y not in c]
        two = {y for y in outside if sum(1 for p in pieces if p.intersection(g.adj[y])) >= 2}
        assert two <= got <= {y for y in outside if rest.intersection(g.adj[y])}
        if len(pieces) < 2:
            assert got == set()
