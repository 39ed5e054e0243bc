import collections
import copy
import random

import pytest
from hypothesis import given, strategies as st

from cds_forge import (
    GenerationFailed,
    GenSpec,
    NotBiconnectedInputError,
    SolveConfig,
    closed_components,
    exact_min_cds,
    gain,
    generate,
    greedy_phase1,
    induced_components,
    is_biconnected,
    naive_snapshot,
    new_graph,
    ratio_report,
    restricted_shortest_path,
    snapshot,
    solve,
    split_counts,
    verify_certificate,
)
from cds_forge.graph import OnlineBlockForest
import cds_forge.solver
from cds_forge.solver import InfeasibleError, PotentialState, phase2_merge

from conftest import complete_edges, cycle_edges


def test_reference_run(p8):
    sol = solve(p8)
    assert sol.nodes == frozenset(range(7))
    assert sol.phase1_nodes == frozenset({0, 3, 4, 6})
    assert sol.t_phase1 == 3
    assert sol.phase1_under_dominated == 0
    assert sol.phase1_component_sizes == (1, 1, 2)  # sorted ascending
    assert not sol.phase1_all_components_biconnected
    assert sol.phase2_added == 3
    assert not sol.fallback_used
    assert sol.certificate.valid
    assert sol.certificate.min_outside_coverage == 2


def test_reference_trace(p8):
    sol = solve(p8)
    phase1 = [s for s in sol.trace if s.phase == 1]
    assert [s.chosen for s in phase1] == [(3,), (6,), (0,), (4,)]
    assert [s.f_after for s in phase1] == [11, 7, 5, 4]
    assert [s.gain.total for s in phase1] == [5, 4, 2, 1]
    # each recorded gain matches an independent recomputation
    c = set()
    for step in phase1:
        y = step.chosen[0]
        assert gain(p8, c, y) == step.gain
        c.add(y)
    phase2 = [s for s in sol.trace if s.phase == 2]
    assert [s.chosen for s in phase2] == [(1, 2), (5,)]
    assert phase2[0].note == "pair-merge 0+1"
    assert phase2[1].note.startswith("repair at")
    assert phase2[-1].f_after == 2


def test_trace_disabled(p8):
    sol = solve(p8, SolveConfig(record_trace=False))
    assert sol.trace == ()
    assert sol.nodes == frozenset(range(7))


def test_greedy_phase1_stall(p8):
    c, trace = greedy_phase1(p8)
    assert c == {0, 3, 4, 6}
    assert snapshot(p8, c).under_dominated == 0
    # stalls because no candidate strictly improves the potential
    outside = set(range(8)) - c
    assert all(gain(p8, c, y).total <= 0 for y in outside)


def test_triangle(triangle):
    sol = solve(triangle)
    assert sol.nodes == frozenset({0, 1, 2})
    assert sol.phase1_nodes == frozenset({0, 1})
    assert sol.t_phase1 == 1
    assert sol.phase2_added == 1
    assert not sol.fallback_used
    assert sol.certificate.valid
    assert sol.certificate.min_outside_coverage is None  # nothing outside


def test_square(c4):
    sol = solve(c4)
    assert sol.phase1_nodes == frozenset({0, 2})
    assert sol.nodes == frozenset(range(4))
    assert sol.phase2_added == 2
    assert not sol.fallback_used
    trace2 = [s for s in sol.trace if s.phase == 2]
    assert trace2[0].chosen == (1, 3)
    assert trace2[0].note == "pair-merge 0+1"


def test_complete_graph(k4):
    sol = solve(k4)
    assert sol.phase1_nodes == frozenset({0, 1})
    assert sol.t_phase1 == 1
    assert sol.nodes == frozenset({0, 1, 2})
    assert sol.phase2_added == 1
    assert len(sol.nodes) == exact_min_cds(k4).theta


def test_higher_fold(k5):
    sol = solve(k5, SolveConfig(m_fold=3))
    assert sol.nodes == frozenset({0, 1, 2})
    assert sol.m_fold == 3
    assert sol.certificate.m_fold == 3
    assert sol.certificate.valid
    notes = [s.note for s in sol.trace if s.phase == 2]
    assert notes.count("grow-small") == 2


def test_cycle_six(c6):
    sol = solve(c6)
    assert sol.phase1_nodes == frozenset({0, 2, 4})
    assert sol.nodes == frozenset(range(6))
    assert sol.fallback_used
    assert sol.certificate.valid
    assert len(sol.nodes) == exact_min_cds(c6).theta


WORST_KNOWN_EDGES = [
    (0, 1), (0, 2), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (1, 4), (1, 8), (2, 3), (2, 6),
    (3, 4), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (5, 6), (5, 8), (6, 8), (7, 8),
]


def test_worst_known_ratio_at_m_fold_2():
    # the largest greedy/theta ratio known at m_fold 2, found by a hill-climb
    # over edge flips: phase 1 stalls on three non-adjacent vertices and
    # phase 2 adds five more, while three vertices suffice
    g = new_graph(9, WORST_KNOWN_EDGES)
    sol = solve(g)
    assert sol.certificate.valid
    assert sol.phase1_nodes == {0, 3, 5}
    assert len(sol.nodes) == 8
    res = exact_min_cds(g)
    assert res.theta == 3
    assert res.optimum == {3, 6, 8}
    report = ratio_report(g.n, g.max_degree, len(sol.nodes), res.theta)
    assert g.max_degree == 6
    assert report.ratio == pytest.approx(8 / 3)
    assert report.bound_asymptotic == pytest.approx(5.079, abs=5e-4)


def test_wheel_ends_valid_after_phase1():
    # hub plus rim: the greedy reaches a biconnected dominating core on its
    # own and the second phase has nothing to do
    g = new_graph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    sol = solve(g)
    assert sol.nodes == frozenset({0, 1, 2, 3})
    assert sol.t_phase1 == 1
    assert sol.phase2_added == 0
    assert sol.phase1_all_components_biconnected
    assert sol.certificate.valid


def test_input_validation():
    with pytest.raises(NotBiconnectedInputError, match="fewer than 3"):
        solve(new_graph(2, [(0, 1)]))
    with pytest.raises(NotBiconnectedInputError, match="disconnected"):
        solve(new_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotBiconnectedInputError, match="cut vertex: 1"):
        solve(new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)]))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(m_fold=1)


def test_trace_f_values_strictly_decrease_in_phase1(p8, c6, k4):
    for g in (p8, c6, k4):
        sol = solve(g)
        values = [2 * g.n] + [s.f_after for s in sol.trace if s.phase == 1]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_budget_on_reference_solutions(p8, c4, k4, triangle):
    for g in (p8, c4, k4, triangle):
        sol = solve(g)
        if not sol.fallback_used:
            assert sol.phase2_added <= 2 * sol.t_phase1


def _sample_host(seed, n, radius):
    # a geometric host on every third seed, else hpath with a few chords
    if seed % 3 == 0:
        try:
            return generate(GenSpec(kind="geometric", n=n, seed=seed, radius=radius))
        except GenerationFailed:
            return generate(GenSpec(kind="hpath", n=n, seed=seed))
    return generate(GenSpec(kind="hpath", n=n, seed=seed, extra=seed % 4))


@given(st.integers(min_value=0, max_value=4000))
def test_solve_random_hosts(seed):
    # asserts only what the implementation guarantees: a valid certificate,
    # a genuine stall (no candidate strictly improves the potential), and
    # determinism.  Whether phase 1 also dominates everything or phase 2
    # stays under twice the component count are separate claims, measured in
    # the acceptance suite, and both have counterexamples.
    n = 5 + seed % 28
    kind = "geometric" if seed % 5 == 0 else "hpath"
    if kind == "geometric":
        try:
            g = generate(GenSpec(kind="geometric", n=max(n, 8), seed=seed, radius=0.55))
        except Exception:
            g = generate(GenSpec(kind="hpath", n=n, seed=seed))
    else:
        g = generate(GenSpec(kind="hpath", n=n, seed=seed, extra=seed % 4))
    sol = solve(g)
    assert sol.certificate.valid
    assert verify_certificate(g, sol.nodes).valid
    assert sol.phase1_nodes <= sol.nodes
    outside = set(range(g.n)) - sol.phase1_nodes
    assert all(gain(g, sol.phase1_nodes, y).total <= 0 for y in outside)
    again = solve(g, SolveConfig(record_trace=False))
    assert again.nodes == sol.nodes


def test_solution_certificate_round_trip(p8):
    sol = solve(p8)
    fresh = verify_certificate(p8, sol.nodes)
    assert fresh == sol.certificate


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=14),
    st.sampled_from([2, 3, 4]),
)
def test_phase1_steps_match_naive_argmax(seed, n, m_fold):
    # every phase-1 step takes the smallest id among the candidates with the
    # largest potential drop measured from the definitions, and the greedy
    # stops exactly when no candidate drops the potential
    _assert_steps_match_naive_argmax(_sample_host(seed, n, 0.6), m_fold)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=5, max_value=30),
    st.sampled_from([2, 3, 4]),
)
def test_phase1_summary_matches_definitions(seed, n, m_fold):
    # solve reads the phase-1 summary off the state before phase 2 grows it
    g = _sample_host(seed, n, 0.5)
    sol = solve(g, SolveConfig(m_fold=m_fold, record_trace=False))
    parts = induced_components(g, sol.phase1_nodes)
    assert sol.t_phase1 == parts.count
    assert sol.phase1_component_sizes == tuple(sorted(len(m) for m in parts.members))
    assert sol.phase1_under_dominated == snapshot(g, sol.phase1_nodes, m_fold).under_dominated
    assert sol.phase1_all_components_biconnected == all(
        is_biconnected(g, m) for m in parts.members
    )


def _assert_steps_match_naive_argmax(g, m_fold):
    chosen, trace = greedy_phase1(g, SolveConfig(m_fold=m_fold))
    c: set[int] = set()
    for step in trace + [None]:
        base = naive_snapshot(g, c, m_fold).total
        drops = {
            y: base - naive_snapshot(g, c | {y}, m_fold).total
            for y in range(g.n)
            if y not in c
        }
        best = max(drops.values(), default=0)
        if step is None:
            assert best <= 0
            break
        assert best > 0
        assert step.chosen == (min(y for y in drops if drops[y] == best),)
        assert step.gain.total == best
        c.add(step.chosen[0])
    assert c == chosen


@pytest.mark.parametrize("m_fold", [2, 3])
@pytest.mark.parametrize(
    "host",
    [f"grid-{r}x{k}" for r in range(3, 6) for k in range(r, 6)]
    + [f"ladder-{k}" for k in (3, 5, 8)]
    + [f"wheel-{n}" for n in range(9, 13)]
    + [f"cycle-{n}" for n in (5, 8, 11)],
)
def test_phase1_steps_match_naive_argmax_on_structured_hosts(host, m_fold):
    # regular hosts give many candidates the same drop, so the smallest-id
    # rule decides most steps
    kind, size = host.split("-")
    if kind == "grid":
        g = _grid_graph(*map(int, size.split("x")))
    elif kind == "ladder":
        g = _grid_graph(2, int(size))
    elif kind == "wheel":
        g = _wheel_graph(int(size))
    else:
        g = new_graph(int(size), cycle_edges(int(size)))
    _assert_steps_match_naive_argmax(g, m_fold)


def _random_graph(rng, n):
    # any simple graph, connected or not: the state and the repair search
    # make no assumption on the host
    density = rng.choice([0.2, 0.35, 0.5, 0.8])
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < density]
    return new_graph(n, edges)


def _partition(ids):
    """Blocks of a vertex -> block id map, as a set of frozensets."""
    blocks: dict = {}
    for v, k in ids.items():
        blocks.setdefault(k, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=16),
    st.sampled_from([2, 3, 4]),
)
def test_potential_state_matches_definitions(seed, n, m_fold):
    # arbitrary insertion orders, not only greedy ones: after every add the
    # forest's components, the parts, the coverage counts and every
    # candidate's local terms agree with the from-scratch kernels and the
    # naive potential, and the keys, the buckets and the touchers match the
    # terms
    rng = random.Random(seed)
    g = _random_graph(rng, n)
    state = PotentialState(g, m_fold)
    c: set[int] = set()
    for y in rng.sample(range(n), rng.randint(1, n)):
        state.add(y)
        c.add(y)
        outside = [u for u in range(n) if u not in c]
        for u in range(n):
            if u in c:
                assert state.key[u] is None
            else:
                assert state.key[u] == (
                    len(state.hits[u]) + len(state.label_counts[u]) - 1 + state.d_m[u]
                )
        for k, bucket in enumerate(state.buckets):
            assert bucket == {u for u in outside if state.key[u] == k}
        assert set(state.touchers) == set(state.forest.members)
        for k, ys in state.touchers.items():
            assert ys == {u for u in outside if k in state.hits[u]}
        comps = induced_components(g, c)
        assert _partition({v: state.forest.comp[v] for v in c}) == set(comps.members)
        assert state.forest.count == comps.count
        labels = {v: k for k, vs in state.label_members.items() for v in vs}
        assert _partition(labels) == set(closed_components(g, c).members)
        assert state.cnt == [sum(1 for w in g.adj[v] if w in c) for v in range(n)]
        base = naive_snapshot(g, c, m_fold)
        assert (state.closed_parts, state.under) == (base.closed_parts, base.under_dominated)
        for u in range(n):
            if u in c:
                assert state.hits[u] is None and state.label_counts[u] is None
                continue
            hits = state.hits[u]
            for k, nbrs in hits.items():
                assert sorted(nbrs) == sorted(set(g.adj[u]) & comps.members[comps.ids[nbrs[0]]])
            after = naive_snapshot(g, c | {u}, m_fold)
            assert (len(hits), len(state.label_counts[u]) - 1, state.d_m[u]) == (
                base.parts - after.parts + 1,
                base.closed_parts - after.closed_parts,
                base.under_dominated - after.under_dominated,
            )


def test_potential_state_repeated_add_changes_nothing(p8):
    state = PotentialState(p8, 2)
    for y in (0, 3, 4):
        state.add(y)
    before = copy.deepcopy(
        (state.cnt, state.key, state.buckets, state.touchers, state.forest.split)
    )
    with pytest.raises(ValueError, match="already in C"):
        state.add(3)
    assert (state.cnt, state.key, state.buckets, state.touchers, state.forest.split) == before


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=16),
    st.sampled_from([2, 3, 4]),
)
def test_candidates_off_the_small_pieces_gain_at_most_key_minus_one(seed, n, m_fold):
    # the lemma behind phase 1's first pass: with max split M >= 2 at x, a
    # candidate that small_piece_touchers(x) leaves out meets at most one
    # piece of (component of x) - x, so x still splits M ways and the exact
    # drop is at most key - 1; with M <= 1 that holds for every candidate.
    # A random tree plus chords gives G[C] many cut vertices.
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n // 2))]
    g = new_graph(n, edges)
    state = PotentialState(g, m_fold)
    c = set(rng.sample(range(n), rng.randint(1, n - 1)))
    for y in c:
        state.add(y)
    split = state.forest.split
    base = naive_snapshot(g, c, m_fold).total
    tops = [x for x in c if split[x] == max(split) >= 2]
    for looked in [state.forest.small_piece_touchers(x) for x in tops] or [set()]:
        for y in range(n):
            if y not in c and y not in looked:
                assert base - naive_snapshot(g, c | {y}, m_fold).total <= state.key[y] - 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda state: state.cnt.__setitem__(0, state.cnt[0] + 1),
        lambda state: setattr(state, "under", state.under - 1),
        lambda state: state.d_m.__setitem__(6, state.d_m[6] + 1),  # the next pick
    ],
    ids=["coverage-count", "under-dominated", "candidate-d_m"],
)
def test_phase1_cross_check_catches_a_corrupted_counter(p8, monkeypatch, corrupt):
    add = PotentialState.add

    def corrupted_add(state, y):
        add(state, y)
        if sum(state.in_c) == 1:
            corrupt(state)

    monkeypatch.setattr(PotentialState, "add", corrupted_add)
    with pytest.raises(RuntimeError, match="diverged"):
        greedy_phase1(p8)


def test_phase1_cross_check_catches_a_corrupted_forest(p8, monkeypatch):
    # the first vertex to gain a block gains one too many; the next
    # iteration's low-link pass must see it before any candidate reads it
    bump = OnlineBlockForest._bump

    def corrupted_bump(forest, v):
        bump(forest, v)
        if sum(forest.split) == 1:
            forest.split[v] += 1

    monkeypatch.setattr(OnlineBlockForest, "_bump", corrupted_bump)
    with pytest.raises(RuntimeError, match="block forest diverged"):
        greedy_phase1(p8)


def _repair_vertex_by_scan(g, c, pieces):
    # the definition: the smallest outside vertex with a neighbor in at
    # least two pieces, found by testing every piece
    for y in range(g.n):
        if y in c:
            continue
        touched = 0
        for piece in pieces.members:
            if any(w in piece for w in g.adj[y]):
                touched += 1
                if touched == 2:
                    return y
    return None


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=16))
def test_find_repair_vertex_matches_piece_scan(seed, n):
    rng = random.Random(seed)
    g = _random_graph(rng, n)
    c = set(rng.sample(range(n), rng.randint(1, n - 1)))
    split = split_counts(g, c)
    cuts = sorted(v for v in c if split[v] >= 2)
    x = rng.choice(cuts or sorted(c))
    parts = induced_components(g, c)
    pieces = induced_components(g, parts.members[parts.ids[x]] - {x})
    # phase 2's rule: the smallest small-piece toucher of x meeting two
    # pieces, which the forest names by climbing
    forest = OnlineBlockForest(g, c)
    k = forest.comp[x]
    by_forest = min(
        (
            y
            for y in forest.small_piece_touchers(x)
            if forest.pieces_hit(x, [w for w in g.adj[y] if forest.comp[w] == k]) >= 2
        ),
        default=None,
    )
    assert by_forest == _repair_vertex_by_scan(g, c, pieces)


def _corrupt_phase2_state(monkeypatch, corrupt):
    # corrupt the state phase2_merge builds from its starting set
    init = PotentialState.__init__

    def corrupted_init(state, g, m_fold, s=()):
        init(state, g, m_fold, s)
        if s:
            corrupt(state)

    monkeypatch.setattr(PotentialState, "__init__", corrupted_init)


def test_phase2_cross_check_catches_a_corrupted_split(p8, monkeypatch):
    # p8's phase-1 set has a two-vertex component; one of its ends losing a
    # block leaves every move as it was, and only the final check sees it
    def corrupt(state):
        split = state.forest.split
        split[max(range(p8.n), key=lambda u: (split[u] == 1, u))] -= 1

    c1, _ = greedy_phase1(p8)
    _corrupt_phase2_state(monkeypatch, corrupt)
    with pytest.raises(RuntimeError, match="block forest diverged"):
        phase2_merge(p8, c1)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda state: state.cnt.__setitem__(0, state.cnt[0] + 1),  # 0 is in C
        lambda state: setattr(state, "under", state.under + 1),
        lambda state: state.label_members.__setitem__(-1, []),  # one closed part more
    ],
    ids=["coverage-count", "under-dominated", "closed-parts"],
)
def test_phase2_cross_check_catches_a_corrupted_counter(p8, monkeypatch, corrupt):
    # no phase-2 rule reads these, so only the end check sees them
    c1, _ = greedy_phase1(p8)
    assert 0 in c1
    _corrupt_phase2_state(monkeypatch, corrupt)
    with pytest.raises(RuntimeError, match="diverged"):
        phase2_merge(p8, c1)


def test_repair_builds_no_components(monkeypatch):
    # phase 2 builds the components of G[c] only for the repair-path
    # fallback; every other rule reads the state, and solve adds no call
    calls = []
    kernel = cds_forge.solver.induced_components
    monkeypatch.setattr(
        cds_forge.solver, "induced_components", lambda g, s: calls.append(s) or kernel(g, s)
    )
    g = generate(GenSpec(kind="hpath", n=40, seed=1))
    _, steps, _ = phase2_merge(g, random.Random(1).sample(range(g.n), g.n // 3))
    kinds = collections.Counter(step.note.split()[0] for step in steps)
    assert all(kinds[k] > 0 for k in ("repair", "repair-path", "pair-merge", "path-connect", "dominate"))
    assert len(calls) == kinds["repair-path"]
    calls.clear()
    sol = solve(generate(GenSpec(kind="hpath", n=300, seed=1)))
    assert "repair" in {step.note.split()[0] for step in sol.trace if step.phase == 2}
    assert calls == []


def test_traced_solve_rebuilds_nothing_per_move_and_keeps_every_check(monkeypatch):
    # no snapshot at all, and exactly one low-link pass for the host check,
    # one for each phase-1 iteration after the first and one for phase 2's
    # end check
    calls = collections.Counter()
    for name in ("snapshot", "_dfs_splits"):
        kernel = getattr(cds_forge.solver, name)
        monkeypatch.setattr(
            cds_forge.solver,
            name,
            lambda *a, _k=kernel, _name=name, **kw: calls.update([_name]) or _k(*a, **kw),
        )
    sol = solve(generate(GenSpec(kind="hpath", n=300, seed=1)))
    assert sol.trace
    assert calls["snapshot"] == 0
    assert calls["_dfs_splits"] == 1 + len(sol.phase1_nodes) + 1


def _phase2_reference(g, c, m_fold):
    """Phase 2 as it was before the block forest: every round recomputes
    the components and the split counts of the whole set.  Returns (set,
    [(sorted added vertices, note)], [set after each move], fallback)."""
    c = set(c)
    n = g.n
    moves = []
    sets = []
    fallback = False

    def grow(added, note):
        c.update(added)
        moves.append((tuple(sorted(added)), note))
        sets.append(frozenset(c))

    for _ in range(n + 2):
        parts = induced_components(g, c)
        if parts.count == 1 and len(parts.members[0]) < 3:
            comp = parts.members[0]
            grow((min(w for v in comp for w in g.adj[v] if w not in c),), "grow-small")
            continue
        split = split_counts(g, c)
        cuts = sorted(v for v in c if split[v] >= 2)
        if cuts:
            x = cuts[0]
            comp = parts.members[parts.ids[x]]
            pieces = induced_components(g, comp - {x})
            y = _repair_vertex_by_scan(g, c, pieces)
            if y is not None:
                grow((y,), f"repair at {x}")
                continue
            path = restricted_shortest_path(
                g, pieces.members[0], comp - {x} - pieces.members[0], frozenset(range(n)) - comp
            )
            added = [v for v in path if v not in c]
            if not added:
                raise InfeasibleError(f"repair at {x} found no usable path")
            fallback = True
            grow(added, f"repair-path at {x}")
            continue
        if parts.count > 1:
            pair_candidates: dict = {}
            for y in range(n):
                if y in c:
                    continue
                touched = sorted({parts.ids[w] for w in g.adj[y] if w in c})
                for a in range(len(touched)):
                    for b in range(a + 1, len(touched)):
                        pair_candidates.setdefault((touched[a], touched[b]), []).append(y)
            pair = next((ij for ij in sorted(pair_candidates) if len(pair_candidates[ij]) >= 2), None)
            if pair is not None:
                grow(pair_candidates[pair][:2], f"pair-merge {pair[0]}+{pair[1]}")
                continue
            outside = frozenset(range(n)) - c
            best = None
            for i in range(parts.count):
                for j in range(i + 1, parts.count):
                    path = restricted_shortest_path(g, parts.members[i], parts.members[j], outside)
                    if path and (best is None or len(path) < len(best)):
                        best = path
            if best is None:
                best = restricted_shortest_path(
                    g,
                    parts.members[0],
                    parts.members[1],
                    frozenset(range(n)) - parts.members[0] - parts.members[1],
                )
            added = [v for v in best if v not in c]
            if not added:
                raise InfeasibleError("component connection added no vertices")
            fallback = True
            grow(added, "path-connect")
            continue
        deficient = [
            v for v in range(n) if v not in c and sum(1 for w in g.adj[v] if w in c) < m_fold
        ]
        if deficient:
            v = deficient[0]
            outside_nb = [w for w in g.adj[v] if w not in c]
            if outside_nb:
                grow((outside_nb[0],), f"dominate {v}")
            else:
                grow((v,), f"absorb {v}")
            continue
        break
    else:
        raise InfeasibleError("phase 2 exceeded its growth budget")
    return frozenset(c), moves, sets, fallback


def _assert_phase2_matches_reference(g, c, m_fold, from_phase1):
    # phase2_merge builds its state from c; solve's phase 2 continues on
    # phase 1's, whose component ids come from the greedy's order
    ref_nodes, ref_moves, ref_sets, ref_fallback = _phase2_reference(g, c, m_fold)
    cfg = SolveConfig(m_fold=m_fold)
    runs = [phase2_merge(g, c, cfg)]
    if from_phase1:
        sol = solve(g, cfg)
        runs.append((sol.nodes, [s for s in sol.trace if s.phase == 2], sol.fallback_used))
    for nodes, steps, fallback in runs:
        assert [(s.chosen, s.note) for s in steps] == ref_moves
        assert [s.f_after for s in steps] == [snapshot(g, s, m_fold).total for s in ref_sets]
        assert (nodes, fallback) == (ref_nodes, ref_fallback)


def _grid_graph(rows, cols):
    # numbered row by row: the checkerboard numbering on which phase 1
    # stalls into singleton components
    edges = [(r * cols + k, r * cols + k + 1) for r in range(rows) for k in range(cols - 1)]
    edges += [(r * cols + k, (r + 1) * cols + k) for r in range(rows - 1) for k in range(cols)]
    return new_graph(rows * cols, edges)


def _wheel_graph(n):
    return new_graph(n, [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)])


@pytest.mark.parametrize("m_fold", [2, 3])
@pytest.mark.parametrize(
    "host",
    ["grid-4x4", "grid-5x7", "grid-8x8", "ladder-12", "ladder-31", "wheel-9", "wheel-40"],
)
def test_phase2_moves_match_reference_on_structured_hosts(host, m_fold):
    kind, size = host.split("-")
    if kind == "grid":
        g = _grid_graph(*map(int, size.split("x")))
    elif kind == "ladder":
        g = _grid_graph(2, int(size))
    else:
        g = _wheel_graph(int(size))
    c1, _ = greedy_phase1(g, SolveConfig(m_fold=m_fold, record_trace=False))
    _assert_phase2_matches_reference(g, c1, m_fold, from_phase1=True)


@pytest.mark.parametrize("n, seed, extra", [(19, 94, 2), (33, 68, 0)])
def test_phase2_ranks_components_by_smallest_member(n, seed, extra):
    # phase 1's component ids follow the greedy's order, and on these hosts
    # ranking by id would change a pair-merge or path-connect move
    g = generate(GenSpec(kind="hpath", n=n, seed=seed, extra=extra))
    c1, _ = greedy_phase1(g, SolveConfig(record_trace=False))
    _assert_phase2_matches_reference(g, c1, 2, from_phase1=True)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=5, max_value=30),
    st.sampled_from([2, 3, 4]),
    st.booleans(),
)
def test_phase2_moves_match_reference(seed, n, m_fold, from_phase1):
    # from the phase-1 stall, or from any non-empty set, which reaches the
    # fallback moves far more often
    rng = random.Random(seed)
    g = _sample_host(seed, n, 0.5)
    if from_phase1:
        c, _ = greedy_phase1(g, SolveConfig(m_fold=m_fold, record_trace=False))
    else:
        c = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
    _assert_phase2_matches_reference(g, c, m_fold, from_phase1)
