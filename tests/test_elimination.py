import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim import elimination
from graphelim.elimination import (
    elimination_complexity,
    elimination_tree,
    landmark_first_ordering,
    load_ordering,
    min_degree_ordering,
    natural_ordering,
    optimal_ordering_bruteforce,
    save_ordering,
    scalar_mult_count,
    simulate_elimination,
    trace_to_csv,
)
from graphelim.graph import FactorGraph, Kind
from graphelim.simulate import (
    build_graph,
    default_config,
    simulate_trajectory,
    worst_case_graph,
)

from helpers import (
    ReferenceGraph,
    complete_graph,
    path_graph,
    random_block_graph,
    random_graph_and_ordering,
    random_ordering,
    random_scalar_graph,
    random_tree_graph,
    random_twin_graph,
    reference_min_degree_ordering,
    reference_optimal_ordering_bruteforce,
    reference_simulate_elimination,
    scalar_graph,
)


# -- simulate_elimination ----------------------------------------------------


def test_path_middle_first_induces_fill():
    g = path_graph(3)
    trace = simulate_elimination(g, [1, 0, 2])
    assert trace.steps[0].fill_added == ((0, 2),)
    assert [s.separator_dim for s in trace.steps] == [2, 1, 0]


def test_path_leaf_first_is_fill_free():
    g = path_graph(3)
    trace = simulate_elimination(g, [0, 1, 2])
    assert trace.total_fill_edges() == 0


def test_worst_case_2x2_landmark_first_trace():
    g = worst_case_graph(2, 2, 1, 1)
    trace = simulate_elimination(g, [2, 3, 0, 1])
    assert [s.separator_dim for s in trace.steps] == [2, 2, 1, 0]
    # the pose-pose edge already exists, so landmark elimination fills nothing
    assert trace.total_fill_edges() == 0


def test_rejects_non_permutation():
    g = path_graph(3)
    for fn in (simulate_elimination, elimination_tree, elimination_complexity):
        with pytest.raises(ValueError):
            fn(g, [0, 1])
        with pytest.raises(ValueError):
            fn(g, [0, 1, 1])


def test_trace_invariants_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_block_graph(rng, connected=False)
        order = random_ordering(rng, g.n_vars)
        trace = simulate_elimination(g, order)
        eliminated = set()
        seen_edges = {frozenset((u, v)) for u in range(g.n_vars) for v in g.neighbors(u)}
        for step in trace.steps:
            assert not (step.separator & eliminated)
            assert step.separator_dim == sum(g.dims[u] for u in step.separator)
            for u, v in step.fill_added:
                assert u not in eliminated and v not in eliminated
                assert frozenset((u, v)) not in seen_edges
                seen_edges.add(frozenset((u, v)))
            eliminated.add(step.var_id)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kernels_equal_pairwise_reference(rng):
    g, order = random_graph_and_ordering(rng)
    md = min_degree_ordering(g)
    assert md == reference_min_degree_ordering(g)
    for o in (order, md):
        assert simulate_elimination(g, o) == reference_simulate_elimination(g, o)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_min_degree_equals_reference_on_twin_rich_graphs(rng):
    g = random_twin_graph(rng)
    assert min_degree_ordering(g) == reference_min_degree_ordering(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_min_degree_equals_reference_on_large_mixed_dim_graphs(seed):
    # scalar bits of mixed dims cross byte boundaries, and the small chunk
    # puts a few rows in each chunk of the initial bitsets; the graph comes
    # from a drawn seed, since drawing its tens of thousands of pair choices
    # one by one is too large an example for hypothesis
    rng = random.Random(seed)
    g = random_block_graph(rng, 130, 300, density=rng.uniform(0.005, 0.04))
    with mock.patch.object(elimination, "_CHUNK", 1 << 12):
        assert min_degree_ordering(g) == reference_min_degree_ordering(g)


def test_kernels_equal_pairwise_reference_on_desk_and_worst_case():
    graphs = [worst_case_graph(n, 2 * n) for n in (120, 300, 400)]
    for seed in (1, 2, 3):
        cfg = default_config(seed=seed)
        log = simulate_trajectory(cfg)
        graphs += [
            build_graph(log.prefix(t), d_x=cfg.d_x, d_l=cfg.d_l)
            for t in [*range(0, cfg.n_frames, 15), cfg.n_frames - 1]
        ]
    for g in graphs:
        md = min_degree_ordering(g)
        assert md == reference_min_degree_ordering(g)
        assert simulate_elimination(g, md) == reference_simulate_elimination(g, md)


# -- elimination_tree ------------------------------------------------------------


def test_elimination_tree_path_middle_first():
    parent, separator, separator_dim = elimination_tree(path_graph(3), [1, 0, 2])
    assert separator == [frozenset({2}), frozenset({0, 2}), frozenset()]
    assert separator_dim == [1, 2, 0]
    assert parent == [2, 0, None]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_tree_separators_match_fill_simulation(rng):
    g, order = random_graph_and_ordering(rng)
    _, separator, _ = elimination_tree(g, order)
    for step in simulate_elimination(g, order).steps:
        assert separator[step.var_id] == step.separator


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_tree_parent_is_earliest_separator_member(rng):
    g, order = random_graph_and_ordering(rng)
    parent, separator, _ = elimination_tree(g, order)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        if separator[v]:
            assert parent[v] == min(separator[v], key=pos.__getitem__)
        else:
            assert parent[v] is None


def test_filled_graph_is_chordal_and_ordering_is_perfect():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for _ in range(100):
        g, order = random_graph_and_ordering(rng)
        _, separator, _ = elimination_tree(g, order)
        filled = nx.Graph()
        filled.add_nodes_from(range(g.n_vars))
        filled.add_edges_from((u, w) for u in range(g.n_vars) for w in g.neighbors(u))
        filled.add_edges_from((v, u) for v in range(g.n_vars) for u in separator[v])
        assert nx.is_chordal(filled)
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = {u for u in filled.neighbors(v) if pos[u] > pos[v]}
            assert later == separator[v]
            for a, b in itertools.combinations(separator[v], 2):
                assert filled.has_edge(a, b)


# -- elimination_complexity ----------------------------------------------------


def test_single_variable_cost_is_dim_cubed():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 3)
    g = g.build()
    assert elimination_complexity(g, [0]) == 27


def test_scalar_path_cost():
    assert elimination_complexity(path_graph(3), [0, 1, 2]) == 9
    assert elimination_complexity(path_graph(3), [1, 0, 2]) == 14


def test_complete_graph_cost_closed_form():
    for n in (2, 3, 4, 6):
        g = complete_graph(n)
        expect = n * (n + 1) * (2 * n + 1) // 6
        for order in ([*range(n)], [*reversed(range(n))]):
            assert elimination_complexity(g, order) == expect


def test_scalar_cost_identity_with_mult_count():
    # exact bookkeeping on scalar graphs: cost = 2*mults + n - (edges + fill)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 30)
        g = random_scalar_graph(rng, n, rng.uniform(0.05, 0.6))
        order = random_ordering(rng, n)
        trace = simulate_elimination(g, order)
        ec = elimination_complexity(g, order)
        smc = scalar_mult_count(g, order)
        assert ec == 2 * smc + n - (g.edge_count() + trace.total_fill_edges())
        assert ec > smc


def test_lemma_edge_addition_never_decreases_cost_small():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 15)
        g = random_scalar_graph(rng, n, rng.uniform(0.0, 0.5))
        order = random_ordering(rng, n)
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n
        g_plus = ReferenceGraph()
        for var in g.variables:
            g_plus.add_variable(var.kind, var.dim)
        for f in g.factors:
            g_plus.add_factor(f.vars)
        g_plus.add_factor((u, v))
        g_plus = g_plus.build()
        assert elimination_complexity(g, order) <= elimination_complexity(g_plus, order)


def test_tree_leaf_first_fill_free():
    rng = random.Random(3)
    for _ in range(50):
        g = random_tree_graph(rng, rng.randint(2, 40))
        order = min_degree_ordering(g)
        assert simulate_elimination(g, order).total_fill_edges() == 0


# -- scalar_mult_count ---------------------------------------------------------


def test_mult_count_examples():
    assert scalar_mult_count(path_graph(3), [0, 1, 2]) == 4
    assert scalar_mult_count(complete_graph(3), [0, 1, 2]) == 7
    assert scalar_mult_count(scalar_graph(1, []), [0]) == 0


def test_mult_count_rejects_blocks():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 2)
    g = g.build()
    with pytest.raises(ValueError):
        scalar_mult_count(g, [0])


# -- orderings -------------------------------------------------------------


def test_min_degree_eliminates_landmarks_first_on_worst_case():
    g = worst_case_graph(3, 4, 1, 1)
    order = min_degree_ordering(g)
    assert all(v >= 3 for v in order[:4])


def test_min_degree_star_leaves_first():
    g = ReferenceGraph()
    for _ in range(4):
        g.add_variable(Kind.POSE, 1)
    for leaf in (0, 1, 2):
        g.add_factor((leaf, 3))
    g = g.build()
    assert min_degree_ordering(g) == [0, 1, 2, 3]


def test_min_degree_tie_breaks_to_lowest_id():
    assert min_degree_ordering(complete_graph(3)) == [0, 1, 2]


def _block_graph(kinds: str, dims, factors) -> FactorGraph:
    g = ReferenceGraph()
    for kind, dim in zip(kinds, dims):
        g.add_variable(Kind.LANDMARK if kind == "L" else Kind.POSE, dim)
    for f in factors:
        g.add_factor(f)
    return g.build()


def test_min_degree_orders_twin_members_by_exact_key():
    # one supervariable of six: members leave largest dim first, landmark
    # before pose, then lowest id
    pairs = itertools.combinations(range(6), 2)
    clique = _block_graph("PLPLLP", (3, 3, 6, 1, 6, 1), pairs)
    assert min_degree_ordering(clique) == [4, 2, 1, 0, 3, 5]


def test_min_degree_eliminates_one_member_at_a_time():
    # after the centre goes, 0, 2 and 3 are twins; each still leaves at its
    # own key, so 3 (a landmark) ties with 0 at degree 1 and goes first
    star = _block_graph("PLPL", (1, 6, 3, 1), [(0, 1), (1, 2), (1, 3)])
    assert min_degree_ordering(star) == [1, 2, 3, 0]


def test_min_degree_requires_nonempty():
    with pytest.raises(ValueError):
        min_degree_ordering(FactorGraph())


def test_min_degree_peak_memory_on_worst_case():
    # the bitsets are built a row chunk at a time: peaks of 0.69 and 1.11 MiB
    # on Python 3.11 with numpy 2.4; 300x600 is the bench's graph
    for n_x, bound_mib in ((120, 1), (300, 3)):
        g = worst_case_graph(n_x, 2 * n_x)
        tracemalloc.start()
        try:
            min_degree_ordering(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (n_x, peak)


def test_landmark_first_ordering():
    g = worst_case_graph(2, 2)
    assert landmark_first_ordering(g) == [2, 3, 0, 1]
    poses_only = path_graph(4)
    assert landmark_first_ordering(poses_only) == [0, 1, 2, 3]
    lms = ReferenceGraph()
    for _ in range(3):
        lms.add_variable(Kind.LANDMARK, 3)
    lms = lms.build()
    assert landmark_first_ordering(lms) == [0, 1, 2]
    assert natural_ordering(g) == [0, 1, 2, 3]


# -- brute force -------------------------------------------------------------


def test_bruteforce_path():
    order, ec = optimal_ordering_bruteforce(path_graph(3))
    assert ec == 9
    assert elimination_complexity(path_graph(3), order) == 9


def test_bruteforce_complete_graph():
    _, ec = optimal_ordering_bruteforce(complete_graph(3))
    assert ec == 14


def test_bruteforce_matches_landmark_first_on_worst_case_2x2():
    g = worst_case_graph(2, 2, 1, 1)
    _, ec = optimal_ordering_bruteforce(g)
    assert ec == elimination_complexity(g, landmark_first_ordering(g))


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        optimal_ordering_bruteforce(complete_graph(11))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bruteforce_equals_permutation_reference(rng):
    g = random_block_graph(
        rng,
        n_min=1,
        n_max=8,
        density=rng.uniform(0.0, 0.8),
        connected=rng.random() < 0.5,
    )
    assert optimal_ordering_bruteforce(g) == reference_optimal_ordering_bruteforce(g)


def test_bruteforce_dominates_heuristics_and_isomorphism_invariant():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_block_graph(rng, n_min=n, n_max=n, dims=(1, 2, 3), connected=False)
        order, best = optimal_ordering_bruteforce(g)
        assert elimination_complexity(g, order) == best
        assert best <= elimination_complexity(g, min_degree_ordering(g))
        assert best <= elimination_complexity(g, landmark_first_ordering(g))
        assert best <= elimination_complexity(g, natural_ordering(g))
        # relabel and re-minimize: optimum is invariant under isomorphism
        perm = random_ordering(rng, n)
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        relabeled = ReferenceGraph()
        for new_id in range(n):
            old = inverse[new_id]
            relabeled.add_variable(g.variables[old].kind, g.variables[old].dim)
        for f in g.factors:
            relabeled.add_factor(tuple(perm[v] for v in f.vars))
        relabeled = relabeled.build()
        _, best_relabeled = optimal_ordering_bruteforce(relabeled)
        assert best_relabeled == best


# -- file exports --------------------------------------------------------------


def test_ordering_roundtrip(tmp_path):
    path = tmp_path / "ordering.txt"
    save_ordering([2, 0, 1], path)
    assert load_ordering(path) == [2, 0, 1]


def test_trace_csv_shape():
    g = path_graph(3)
    csv_text = trace_to_csv(simulate_elimination(g, [1, 0, 2]))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "step,var_id,d_f,d_s,fill_added"
    assert lines[1] == "0,1,1,2,1"
