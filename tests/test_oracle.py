import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim.cliquetree import build_clique_tree
from graphelim.elimination import (
    elimination_tree,
    min_degree_ordering,
    scalar_mult_count,
    simulate_elimination,
)
from graphelim.graph import FactorGraph, Kind
from graphelim.oracle import (
    _PANEL,
    _STACK,
    FactorCheckError,
    NotPositiveDefiniteError,
    SparseSystem,
    _fronts,
    check_factor,
    cholesky_count,
    pearson_correlation,
    scalar_permutation,
    synthesize_system,
)
from graphelim.simulate import (
    build_graph,
    default_config,
    simulate_trajectory,
    worst_case_graph,
)

from helpers import (
    ReferenceGraph,
    complete_graph,
    dense,
    dense_factor,
    path_graph,
    random_block_graph,
    random_graph_and_ordering,
    random_ordering,
    random_scalar_graph,
    reference_cholesky_count,
    scalar_pattern,
    with_diagonal,
)


def permuted(system, count):
    p = count.scalar_order
    return dense(system)[np.ix_(p, p)]


# -- synthesize_system ---------------------------------------------------------


def test_pattern_tridiagonal_for_scalar_path():
    system = synthesize_system(path_graph(3), seed=0)
    expect = np.array(
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool
    )
    assert ((dense(system) != 0) == expect).all()


def test_no_landmark_landmark_block():
    g = worst_case_graph(2, 2, 1, 1)
    a = dense(synthesize_system(g, seed=3))
    assert ((a != 0) == scalar_pattern(g)).all()
    assert a[2, 3] == 0.0 and a[3, 2] == 0.0


def test_same_seed_same_matrix():
    g = random_block_graph(random.Random(4))
    a = dense(synthesize_system(g, seed=9))
    assert (dense(synthesize_system(g, seed=9)) == a).all()
    assert (dense(synthesize_system(g, seed=10)) != a).any()


def test_synthesized_system_bytes_pinned():
    # digest of the stored rows, concatenated in variable order, as the
    # keyed splitmix64 draw makes them
    system = synthesize_system(worst_case_graph(4, 5), seed=7)
    rows = np.concatenate([r.ravel() for r in system.rows])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "a9f04db9589d63f31578713bbc7db84fa8d0769fb51fab00a306415fef77c12d"
    )
    # and of where the matrix is nonzero: the graph's block pattern
    assert hashlib.sha256((dense(system) != 0).tobytes()).hexdigest() == (
        "ecab873b40145bb650417f4dfd4ee98e483fcaab9f7476e0ace58e0fe83c5570"
    )


def _splitmix64(seed, k):
    # the k-th output of a splitmix64 stream seeded with `seed`, one at a time
    mask = 2**64 - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_off_diagonal_entries_are_keyed_draws():
    g = worst_case_graph(3, 4)
    a = dense(synthesize_system(g, seed=11))
    n = a.shape[0]
    for i, j in zip(*np.nonzero(a)):
        if i != j:
            k = min(i, j) * n + max(i, j)
            assert a[i, j] == ((_splitmix64(11, int(k)) >> 12) + 0.5) / 2.0**51 - 1.0
    off = a - np.diag(np.diag(a))
    # each diagonal entry is its row's absolute off-diagonal sum plus 1, up
    # to the order of summation
    np.testing.assert_allclose(np.diag(a), np.abs(off).sum(axis=1) + 1.0, rtol=1e-15)


def test_synthesize_system_peak_memory_on_desk_final_frame():
    # the 1140-scalar system stores 290,916 values (2.2 MiB) and its columns'
    # 71,445 scalar ids (0.6 MiB), draws 16,384 entries at a time, and reads
    # its columns off the graph once to draw and once more to store: this
    # peaks at 3.76 MiB (Python 3.11.7, numpy 2.4.6)
    log = simulate_trajectory(default_config(seed=1, n_frames=150, landmark_count=80))
    g = build_graph(log.prefix(149))
    tracemalloc.start()
    try:
        synthesize_system(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2**20


def test_synthesized_matrix_is_spd():
    rng = random.Random(17)
    for k in range(20):
        g = random_block_graph(rng)
        system = synthesize_system(g, seed=k)
        eigvals = np.linalg.eigvalsh(dense(system))
        assert eigvals.min() > 0


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_store_is_symmetric_spd_on_the_block_pattern(rng):
    g = random_block_graph(rng)
    a = dense(synthesize_system(g, seed=rng.randrange(2**32)))
    assert (a == a.T).all()
    assert ((a != 0) == scalar_pattern(g)).all()
    assert np.linalg.eigvalsh(a).min() > 0


# -- cholesky_count -------------------------------------------------------------


def test_counts_match_examples():
    assert cholesky_count(synthesize_system(path_graph(3), 0), [0, 1, 2]).mult_count == 4
    assert cholesky_count(synthesize_system(complete_graph(3), 1), [0, 1, 2]).mult_count == 7
    dense = cholesky_count(synthesize_system(complete_graph(4), 2), [0, 1, 2, 3])
    assert dense.mult_count == 16
    counts = (dense.mult_count, dense.div_count, dense.fill_count)
    assert [type(c) for c in counts] == [int, int, int]


def test_exact_count_theorem_sample():
    rng = random.Random(100)
    for k in range(60):
        n = rng.randint(2, 40)
        g = random_scalar_graph(rng, n, rng.uniform(0.05, 0.5))
        order = random_ordering(rng, n)
        count = cholesky_count(synthesize_system(g, seed=k), order)
        assert count.mult_count == scalar_mult_count(g, order)
        assert count.div_count == n


def test_fill_matches_symbolic_elimination():
    rng = random.Random(200)
    for k in range(40):
        g = random_scalar_graph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.5))
        order = random_ordering(rng, g.n_vars)
        count = cholesky_count(synthesize_system(g, seed=k), order)
        trace = simulate_elimination(g, order)
        assert count.fill_count == trace.total_fill_edges()


def test_block_fill_scales_by_block_areas():
    rng = random.Random(300)
    for k in range(20):
        g = random_block_graph(rng)
        order = random_ordering(rng, g.n_vars)
        count = cholesky_count(synthesize_system(g, seed=k), order)
        trace = simulate_elimination(g, order)
        expect = sum(g.dims[u] * g.dims[v] for u, v in trace.fill_edges())
        assert count.fill_count == expect


def test_factor_reproduces_matrix():
    rng = random.Random(400)
    for k in range(15):
        g = random_block_graph(rng)
        system = synthesize_system(g, seed=k)
        count = cholesky_count(system, random_ordering(rng, g.n_vars))
        target = permuted(system, count)
        r = dense_factor(count)
        resid = np.linalg.norm(r.T @ r - target)
        assert resid / np.linalg.norm(target) <= 1e-9


def test_block_counts_within_constant_factor_of_block_cost():
    from graphelim.elimination import elimination_complexity

    rng = random.Random(600)
    worst = 0.0
    for k in range(150):
        g = random_block_graph(rng)
        order = random_ordering(rng, g.n_vars)
        ec = elimination_complexity(g, order)
        mult = cholesky_count(synthesize_system(g, seed=k), order).mult_count
        worst = max(worst, ec / mult, mult / ec)
    print(f"largest cost/multiplication discrepancy factor: {worst:.3f}")
    assert worst <= 4.0


def test_non_spd_names_pivot():
    bad = with_diagonal(synthesize_system(path_graph(3), seed=0), 1, -5.0)
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_count(bad, [0, 1, 2])
    assert "index 1" in str(err.value)


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
def test_system_dims_must_match_matrix(dims):
    # a block must be its variable's dim by its closed neighbourhood's dims
    graph = FactorGraph([Kind.POSE, Kind.POSE], dims, [0, 1], [0, 2])
    rows = synthesize_system(graph).rows
    with pytest.raises(ValueError, match=(
        rf"^variable 1's rows are \(3, 3\), but its dim and closed neighbourhood"
        rf" make them \({dims[1]}, {sum(dims)}\)$"
    )):
        SparseSystem((rows[0], 2 * np.eye(3)), graph)
    with pytest.raises(ValueError, match="^the graph has 2 variables, but the system 1 row blocks$"):
        SparseSystem(rows[:1], graph)


def _random_system_and_ordering(rng):
    g, order = random_graph_and_ordering(rng)
    return synthesize_system(g, seed=rng.randrange(2**32)), order


def _assert_matches_reference(got, ref):
    assert (got.mult_count, got.div_count, got.fill_count) == (
        ref.mult_count, ref.div_count, ref.fill_count,
    )
    assert (got.scalar_order == ref.scalar_order).all()
    r, r_ref = dense_factor(got), dense_factor(ref)
    assert np.linalg.norm(r - r_ref) <= 1e-12 * np.linalg.norm(r_ref)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blocked_kernel_matches_scalar_reference(rng):
    system, order = _random_system_and_ordering(rng)
    _assert_matches_reference(
        cholesky_count(system, order), reference_cholesky_count(system, order)
    )


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_front_dims_equal_clique_tree(rng):
    g, order = random_graph_and_ordering(rng)
    count = cholesky_count(synthesize_system(g, seed=rng.randrange(2**32)), order)
    tree = build_clique_tree(g, order)
    assert count.front_dims == tuple(
        (c.frontal_dim, c.separator_dim) for c in tree.cliques
    )


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_front_index_sets_are_separators(rng):
    # a front's index set is its first variable's scalars and those of that
    # variable's separator in the elimination tree, as permuted positions
    g, order = random_graph_and_ordering(rng)
    separator = elimination_tree(g, order)[1]
    position = np.argsort(scalar_permutation(synthesize_system(g), order))
    first = dict(zip(itertools.accumulate((g.dims[v] for v in order), initial=0), order))
    starts = list(itertools.accumulate(g.dims, initial=0))
    fronts = _fronts(g, order)
    assert sum(p for _, p in fronts) == sum(g.dims)
    for index, _ in fronts:
        v = first[int(index[0])]
        scalars = [s for u in {v, *separator[v]} for s in range(starts[u], starts[u + 1])]
        assert index.tolist() == sorted(position[scalars].tolist())


def _peak_memory_of_cholesky_count(system, order):
    tracemalloc.start()
    try:
        cholesky_count(system, order)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_on_desk_frame_50():
    # min-degree eliminates most landmarks first, toward few parent poses.
    # Each front gathers only its pivot rows from the variable store, and
    # descendants' factor rows wait as views of the factor: frame 50 peaks at
    # 1.74 MiB, the final frame at 3.13 MiB (Python 3.11.7, numpy 2.4.6),
    # most of it the root front's stack and product
    log = simulate_trajectory(default_config(seed=1, n_frames=150, landmark_count=80))
    for frame, bound in [(50, 2), (149, 3.5)]:
        g = build_graph(log.prefix(frame))
        system = synthesize_system(g, seed=0)
        peak = _peak_memory_of_cholesky_count(system, min_degree_ordering(g))
        assert peak < bound * 2**20, frame


def test_peak_memory_on_worst_case_120x240():
    # the 723-pivot root front takes the factor rows of 239 childless 3-pivot
    # fronts, stacked _STACK rows at a time, and holds only its pivot rows:
    # this peaks at 15.07 MiB (Python 3.11.7, numpy 2.4.6)
    g = worst_case_graph(120, 240)
    peak = _peak_memory_of_cholesky_count(synthesize_system(g), min_degree_ordering(g))
    assert peak < 17 * 2**20


def test_peak_memory_at_four_times_desk_scale():
    # the 600x320 desk final frame: 4560 scalars. Synthesis and oracle
    # together peak at 3.0 times the factor's 10.0 MiB (Python 3.11.7,
    # numpy 2.4.6)
    log = simulate_trajectory(default_config(seed=1, n_frames=600, landmark_count=320))
    g = build_graph(log.prefix(599))
    order = min_degree_ordering(g)
    tracemalloc.start()
    try:
        count = cholesky_count(synthesize_system(g, seed=0), order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count.mult_count, count.fill_count) == (177_920_579, 372_402)
    assert peak < 3.5 * sum(rows.nbytes for _, rows in count.factor)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blocked_kernel_fails_at_reference_index(rng):
    system, order = _random_system_and_ordering(rng)
    i = rng.randrange(system.n)
    bad = with_diagonal(system, i, -rng.uniform(0.0, 2.0))
    with pytest.raises(NotPositiveDefiniteError) as got:
        cholesky_count(bad, order)
    with pytest.raises(NotPositiveDefiniteError) as ref:
        reference_cholesky_count(bad, order)
    assert str(got.value) == str(ref.value)
    position = int(np.flatnonzero(scalar_permutation(bad, order) == i)[0])
    assert str(got.value).endswith(f"elimination index {position}")


@pytest.mark.parametrize(
    "n_x, order, var, scalar, position, pivots",
    [
        # poses 0-2 (dim 6) and landmark 6 merge into a 21-pivot root front
        # from position 9; pose 1's third scalar is pivot 17, inside it
        (3, [3, 4, 5, 0, 1, 2, 6], 1, 2, 17, 21),
        # poses 0-10 and landmark 14: a 69-pivot root front, factored as
        # panels of 64 and 5; pose 10's last scalar is pivot 74, in the second
        (11, [11, 12, 13, *range(11), 14], 10, 5, 74, 69),
    ],
    ids=["one_panel", "second_panel"],
)
def test_failing_pivot_inside_merged_front_matches_reference(
    n_x, order, var, scalar, position, pivots
):
    system = synthesize_system(worst_case_graph(n_x, 4), seed=5)
    count = cholesky_count(system, order)
    assert count.front_dims[-1] == (pivots, 0) and count.factor[-1][0][0] == 9
    _assert_matches_reference(count, reference_cholesky_count(system, order))
    i = sum(system.graph.dims[:var]) + scalar
    assert count.scalar_order[position] == i
    bad = with_diagonal(system, i, -0.5)
    with pytest.raises(NotPositiveDefiniteError) as got:
        cholesky_count(bad, order)
    with pytest.raises(NotPositiveDefiniteError) as ref:
        reference_cholesky_count(bad, order)
    assert str(got.value) == str(ref.value)
    assert str(got.value).endswith(f"elimination index {position}")


def _owner(fronts):
    return np.repeat(np.arange(len(fronts)), [p for _, p in fronts])


def _children(fronts):
    # a front's parent owns the first index of its update set
    owner = _owner(fronts)
    kids = [[] for _ in fronts]
    for i, (index, p) in enumerate(fronts):
        if index.size > p:
            kids[owner[index[p]]].append(i)
    return kids


def _star():
    # two poses and more landmark rows than one stack holds; every landmark is
    # tied to pose 0, and the first half to pose 1 too, so a later stack's
    # rows cover fewer columns than the first stack's rows did
    n_l = _STACK // 3 + 1
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 6)
    g.add_variable(Kind.POSE, 6)
    for _ in range(n_l):
        g.add_variable(Kind.LANDMARK, 3)
    g.add_factor((0, 1))
    for lm in range(2, n_l + 2):
        g.add_factor((0, lm))
        if lm < n_l // 2 + 2:
            g.add_factor((1, lm))
    return g.build(), [*range(2, n_l + 2), 0, 1]


def _chain():
    # a band: each variable is tied to the next two, so every front's update
    # set reaches past its parent, to the front after it
    g = ReferenceGraph()
    for v in range(12):
        g.add_variable(Kind.LANDMARK if v % 3 else Kind.POSE, 3 if v % 3 else 6)
    for v in range(11):
        g.add_factor((v, v + 1))
        if v < 10:
            g.add_factor((v, v + 2))
    return g.build(), list(range(12))


def _panels():
    # landmarks 11-13 first, then poses 0-10 and landmark 14: a 69-pivot root
    return worst_case_graph(11, 4), [11, 12, 13, *range(11), 14]


def _star_shape(fronts, kids):
    # the root takes more childless children's rows than one stack, over
    # update sets of two sizes
    rows = sum(fronts[c][1] for c in kids[-1])
    sizes = {fronts[c][0].size - fronts[c][1] for c in kids[-1]}
    return rows > _STACK and len(sizes) == 2 and not any(kids[c] for c in kids[-1])


def _chain_shape(fronts, kids):
    # each front's one child has children of its own, and some front takes
    # factor rows from a descendant that is not its child
    owner = _owner(fronts)
    deeper = any(
        len(set(owner[index[p:]].tolist())) > 1 for index, p in fronts if index.size > p
    )
    chain = all(kids[i] == [i - 1] for i in range(1, len(fronts)))
    return len(fronts) > 3 and chain and deeper


def _panels_shape(fronts, kids):
    # a root of several panels whose children are all childless
    return fronts[-1][1] > _PANEL and kids[-1] and not any(kids[c] for c in kids[-1])


@pytest.mark.parametrize(
    "build, shape",
    [(_star, _star_shape), (_chain, _chain_shape), (_panels, _panels_shape)],
    ids=["star", "chain", "panels"],
)
def test_front_shapes_match_reference(build, shape):
    g, order = build()
    system = synthesize_system(g, seed=3)
    perm = scalar_permutation(system, order)
    fronts = _fronts(g, order)
    assert shape(fronts, _children(fronts))
    _assert_matches_reference(
        cholesky_count(system, order), reference_cholesky_count(system, order)
    )
    for position in (system.n // 2, system.n - 1):
        bad = with_diagonal(system, int(perm[position]), -0.5)
        with pytest.raises(NotPositiveDefiniteError) as got:
            cholesky_count(bad, order)
        with pytest.raises(NotPositiveDefiniteError) as ref:
            reference_cholesky_count(bad, order)
        assert str(got.value) == str(ref.value)


def test_factor_check_flags_one_corrupted_entry():
    g = worst_case_graph(5, 8)
    system = synthesize_system(g, seed=2)
    count = cholesky_count(system, min_degree_ordering(g))
    assert check_factor(count, system) <= 1e-14
    count.factor[0][1][0, -1] += 1e-6
    with pytest.raises(FactorCheckError, match=r"^factor check failed: .* exceeds 1e-10$"):
        check_factor(count, system)


@pytest.mark.parametrize("at", [0.0, 0.5, 1.0], ids=["first", "middle", "last"])
def test_factor_check_reads_the_system_not_the_factorization(at):
    # a factor checked against a system that differs in one diagonal entry
    # fails, so the check's A x comes from the system it is given
    g = worst_case_graph(5, 8)
    system = synthesize_system(g, seed=2)
    count = cholesky_count(system, min_degree_ordering(g))
    i = round(at * (system.n - 1))
    other = with_diagonal(system, i, 1.25 * dense(system)[i, i])
    with pytest.raises(FactorCheckError, match=r"^factor check failed: .* exceeds 1e-10$"):
        check_factor(count, other)


def test_tuple_ordering_counts_as_a_list():
    g = worst_case_graph(3, 4)
    system = synthesize_system(g, seed=0)
    order = min_degree_ordering(g)
    got, want = cholesky_count(system, tuple(order)), cholesky_count(system, order)
    assert (got.mult_count, got.fill_count, got.front_dims) == (
        want.mult_count, want.fill_count, want.front_dims,
    )


def test_empty_system_counts_nothing():
    count = cholesky_count(SparseSystem((), FactorGraph()), [])
    assert (count.mult_count, count.div_count, count.fill_count) == (0, 0, 0)
    assert count.factor == () and count.scalar_order.size == 0
    assert count.front_dims == ()


@pytest.mark.parametrize("order", [[4, 5, 6, 0, 1, 2, 3], [0, 1]], ids=["scalar", "short"])
def test_non_variable_ordering_rejected(order):
    system = synthesize_system(worst_case_graph(2, 1, 2, 3), seed=0)
    with pytest.raises(ValueError, match="^ordering is not a permutation of the 3 variable ids$"):
        cholesky_count(system, order)


# -- pearson --------------------------------------------------------------------


def test_pearson_exact_lines():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson_correlation(xs, [2 * x for x in xs]) == pytest.approx(1.0)
    assert pearson_correlation(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

