"""Forest behavior: normalization constants, determinism, separation, serialization.

The c(n) reference values below were computed before this module was
written, from the same published formula evaluated in isolation.
"""

import json
import math
import warnings
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsift import iforest
from tripsift.iforest import (
    IForestModel,
    average_path_length,
    fit,
    load_model,
    save_model,
    score_from_mean_path,
    score_vectors,
)

C_2 = 0.15443132979999996
C_256 = 10.244770920116851


def test_average_path_length_oracles():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == pytest.approx(C_2, abs=1e-12)
    assert average_path_length(2) == pytest.approx(0.15443, abs=1e-5)
    assert average_path_length(256) == pytest.approx(C_256, abs=1e-6)


def test_average_path_length_monotone():
    values = [average_path_length(n) for n in range(2, 2000)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_score_midpoint_exact():
    for c in (C_2, C_256, 3.7):
        assert score_from_mean_path(c, c) == pytest.approx(0.5, abs=1e-12)
    assert score_from_mean_path(0.0, C_256) == 1.0
    assert score_from_mean_path(100 * C_256, C_256) < 1e-9


def blob(n, d, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, d)) + offset


def test_fit_model_shape():
    X = blob(200, 5, seed=1)
    model = fit(X, n_trees=20, subsample_size=256, rng_seed=3)
    assert model.psi == 200                       # clamped to N
    assert model.max_depth == math.ceil(math.log2(200))
    assert model.c_psi == pytest.approx(average_path_length(200))
    assert model.n_features == 5
    assert len(model.trees) == 20
    scores = score_vectors(model, X)
    assert scores.shape == (200,)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_fit_deterministic_in_seed():
    X = blob(100, 3, seed=2)
    s1 = score_vectors(fit(X, n_trees=10, rng_seed=7), X)
    s2 = score_vectors(fit(X, n_trees=10, rng_seed=7), X)
    s3 = score_vectors(fit(X, n_trees=10, rng_seed=8), X)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_fit_validations():
    with pytest.raises(ValueError, match="2-D"):
        fit(np.zeros(5))
    with pytest.raises(ValueError, match="at least 2"):
        fit(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        fit(np.array([[0.0, np.nan], [1.0, 2.0]]))
    X = blob(10, 2, seed=0)
    with pytest.raises(ValueError, match="n_trees"):
        fit(X, n_trees=0)
    with pytest.raises(ValueError, match="subsample_size"):
        fit(X, subsample_size=1)
    with pytest.raises(ValueError, match="rng_seed"):
        fit(X, rng_seed=-1)


def test_no_variance_warns_and_scores_half():
    X = np.ones((30, 4))
    with pytest.warns(RuntimeWarning, match="no variance"):
        model = fit(X, n_trees=10)
    scores = score_vectors(model, X)
    # every tree stops at the root, so E[h] = c(psi) up to summation rounding
    np.testing.assert_allclose(scores, 0.5, rtol=0, atol=1e-12)
    assert scores.max() == scores.min()


def walk_tree(nodes):
    """Yield (node, depth) over a tree, verifying reachability."""
    stack = [(0, 0)]
    visited = set()
    while stack:
        idx, depth = stack.pop()
        assert idx not in visited
        visited.add(idx)
        node = nodes[idx]
        yield node, depth
        if node[0] >= 0:
            stack.append((int(node[2]), depth + 1))
            stack.append((int(node[3]), depth + 1))
    assert len(visited) == len(nodes)


def test_tree_structure_invariants():
    X = blob(300, 4, seed=5)
    model = fit(X, n_trees=5, subsample_size=64, rng_seed=1)
    assert model.psi == 64
    for nodes in model.trees:
        external_total = 0
        for node, depth in walk_tree(nodes):
            if node[0] < 0:
                assert node[0] == -1
                assert len(node) == 3
                assert node[2] == depth        # stored depth matches position
                assert depth <= model.max_depth
                external_total += node[1]
            else:
                assert len(node) == 4
                assert 0 <= node[0] < model.n_features
        assert external_total == model.psi


def test_outliers_score_higher():
    inliers = blob(200, 2, seed=11)
    outliers = blob(10, 2, seed=12, offset=15.0)
    X = np.vstack([inliers, outliers])
    model = fit(X, rng_seed=1)
    scores = score_vectors(model, X)
    assert scores[200:].min() > scores[:200].max()


def test_score_vectors_validations():
    model = fit(blob(50, 3, seed=4), n_trees=5)
    with pytest.raises(ValueError, match="expected 3 features"):
        score_vectors(model, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        score_vectors(model, np.array([[np.inf, 0.0, 0.0]]))
    single = score_vectors(model, np.array([0.5, 0.5, 0.5]))
    assert single.shape == (1,)
    assert np.array_equal(single, oracle_scores(model, [[0.5, 0.5, 0.5]]))
    assert score_vectors(model, np.empty((0, 3))).shape == (0,)


def test_save_load_roundtrip(tmp_path):
    X = blob(80, 4, seed=9)
    model = fit(X, n_trees=8, subsample_size=32, rng_seed=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert np.array_equal(score_vectors(loaded, X), score_vectors(model, X))


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "m.json"
    for doc in ({"version": 99}, []):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported model version"):
            load_model(path)
    path.write_text(json.dumps({"version": 1, "params": {}}))
    with pytest.raises(ValueError, match="malformed model document"):
        load_model(path)

    # documents that would hang, misscore or crash at scoring time
    save_model(fit(blob(20, 3, seed=1), n_trees=2, subsample_size=8), path)
    good = json.loads(path.read_text())
    leaf = [-1, 1, 1]
    for change in (
        {"trees": [[[0, 0.5, 0, 0]]] * 2},                  # child loops back: endless walk
        {"params": {**good["params"], "n_trees": 100}},     # fewer trees than n_trees
        {"trees": [[[99, 0.5, 1, 2], leaf, leaf]] * 2},     # split on a missing dimension
        {"trees": [[[0, 0.5, 1, 3], leaf, leaf]] * 2},      # child outside the tree
        {"trees": [[[-1, -1, 0]]] * 2},                     # negative leaf size
        {"trees": [[[-1, 1, -1]]] * 2},                     # negative leaf depth
        {"trees": [[[-1, 1, 10**400]]] * 2},                # leaf depth beyond float range
        {"trees": [[]] * 2},                                # empty tree
        {"trees": [[[0, "abc", 1, 2], leaf, leaf]] * 2},    # non-numeric split: ufunc error
        {"trees": [[[0, None, 1, 2], leaf, leaf]] * 2},     # null split: TypeError
        {"trees": [[[True, 0.5, 1, 2], leaf, leaf]] * 2},   # boolean dimension: read as dim 1
        {"c_psi": 0.0},
    ):
        path.write_text(json.dumps({**good, **change}))
        with pytest.raises(ValueError, match="malformed model document"):
            load_model(path)


def oracle_scores(model, X):
    """Reference scores: each row walks each tree alone, path lengths summed in tree order."""
    scores = []
    for x in np.asarray(X, dtype=float).reshape(-1, model.n_features):
        total = 0.0
        for nodes in model.trees:
            node = nodes[0]
            while node[0] >= 0:
                node = nodes[node[2] if x[int(node[0])] < node[1] else node[3]]
            total += node[2] + average_path_length(node[1])
        scores.append(score_from_mean_path(total / model.n_trees, model.c_psi))
    return np.array(scores, dtype=float)


@st.composite
def forest_cases(draw):
    """A fitted forest plus a matrix to score.

    Values come from a few levels per column, so rows repeat values, and
    some columns are constant; the query rows reach outside the fit range.
    """
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 50))
    X = rng.integers(0, levels, size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    constant = rng.uniform(size=d) < 0.25
    X[:, constant] = 1.5
    Q = rng.integers(-2, levels + 2, size=(draw(st.integers(1, 300)), d)) * 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # all-constant X warns
        model = fit(X, n_trees=draw(st.integers(1, 12)),
                    subsample_size=draw(st.integers(2, 300)),
                    rng_seed=draw(st.integers(0, 2**20)))
    return model, X, Q


@settings(max_examples=60, deadline=None)
@given(case=forest_cases(), random=st.randoms(use_true_random=False))
def test_random_forest_scores_match_scalar_walk(case, random, tmp_path_factory):
    model, X, Q = case
    for data in (X, Q):
        scores = score_vectors(model, data)
        assert np.array_equal(scores, oracle_scores(model, data))
        assert np.all((scores > 0.0) & (scores < 1.0))
        perm = np.array(random.sample(range(len(data)), len(data)))
        assert np.array_equal(score_vectors(model, data[perm]), scores[perm])

    path = tmp_path_factory.mktemp("forest") / "model.json"
    save_model(model, path)
    assert np.array_equal(score_vectors(load_model(path), Q), score_vectors(model, Q))


def test_walk_ignores_stated_max_depth(tmp_path):
    """Scoring follows the tree to its leaves; max_depth is not checked by load_model."""
    leaf = [-1, 1, 3]
    nodes = [[0, 0.5, 1, 2], [-1, 2, 1], [1, 0.5, 3, 4], [-1, 1, 2],
             [0, 0.75, 5, 6], leaf, leaf]
    doc = {"version": 1, "params": {"n_trees": 2, "subsample_size": 8, "rng_seed": 0},
           "n_features": 2, "psi": 8, "max_depth": 1, "c_psi": average_path_length(8),
           "trees": [nodes, [[1, 0.25, 1, 2], [-1, 3, 1], [-1, 5, 1]]]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    X = np.array([[0.2, 0.9], [0.6, 0.1], [0.6, 0.9], [0.9, 0.9], [0.7, 0.6]])
    assert np.array_equal(score_vectors(model, X), oracle_scores(model, X))


@settings(max_examples=30, deadline=None)
@given(case=forest_cases(), workers=st.integers(2, 4))
def test_fit_in_processes_equals_one_process(case, workers):
    model, X, _ = case
    with mock.patch.object(iforest, "process_count", lambda w: w), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        split = fit(X, n_trees=model.n_trees, subsample_size=model.subsample_size,
                    rng_seed=model.rng_seed, workers=workers)
    assert split == model
    assert json.dumps(split.trees) == json.dumps(model.trees)


def reference_tree(X, psi, max_depth, rng_seed, forest, i):
    """Tree i of a forest grown one node at a time, in heap order, from the
    documented draws: the subsample, then (u_dim, u_split) per splitting node."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed,
                                                                      spawn_key=(forest, i))))
    nodes = [None]
    queue = deque([(0, X[rng.choice(len(X), size=psi, replace=False)], 0)])
    while queue:
        idx, rows, depth = queue.popleft()
        lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
        dims = [k for k in range(X.shape[1]) if math.nextafter(lo[k], hi[k]) < hi[k]]
        if depth >= max_depth or not dims:
            nodes[idx] = [-1, len(rows), depth]
            continue
        u_dim, u_split = rng.random(2).tolist()
        dim = dims[int(u_dim * len(dims))]
        a, b = lo[dim], hi[dim]
        split = a * (1.0 - u_split) + b * u_split
        if split <= a:
            split = math.nextafter(a, b)
        elif split >= b:
            split = math.nextafter(b, a)
        below = rows[:, dim] < split
        left = len(nodes)
        nodes[idx] = [dim, split, left, left + 1]
        nodes += [None, None]
        queue += [(left, rows[below], depth + 1), (left + 1, rows[~below], depth + 1)]
    return nodes


@st.composite
def growth_cases(draw):
    """A matrix whose columns hold ties, constants, signed zeros and ranges one
    or two ulps wide, where only the nextafter clamps can place a split."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["levels", "constant", "zeros", "ulps",
                                               "uniform"]), min_size=1, max_size=5)):
        if kind == "levels":
            values = np.arange(draw(st.integers(1, 5))) * rng.uniform(0.1, 10.0)
        elif kind == "constant":
            values = np.array([rng.uniform(-5.0, 5.0)])
        elif kind == "zeros":
            values = np.array([-0.0, 0.0, 5e-324, -5e-324])[:draw(st.integers(2, 4))]
        elif kind == "ulps":
            base = rng.uniform(-100.0, 100.0)
            values = np.array([base, np.nextafter(base, np.inf),
                               np.nextafter(np.nextafter(base, np.inf), np.inf)])
            values = values[:draw(st.integers(2, 3))]
        else:
            values = rng.uniform(-1.0, 1.0, size=n)
        columns.append(rng.choice(values, size=n))
    return np.column_stack(columns)


@settings(max_examples=80, deadline=None)
@given(X=growth_cases(), data=st.data())
def test_level_grown_trees_equal_per_node_reference(X, data):
    n_trees = data.draw(st.integers(1, 12))
    subsample_size = data.draw(st.integers(2, len(X) + 3))
    rng_seed = data.draw(st.integers(0, 2**32))
    forest = data.draw(st.integers(0, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # an all-constant X warns
        model = fit(X, n_trees=n_trees, subsample_size=subsample_size, rng_seed=rng_seed,
                    forest=forest)
    assert model.psi == min(subsample_size, len(X))
    assert model.trees == [reference_tree(X, model.psi, model.max_depth, rng_seed, forest, i)
                           for i in range(n_trees)]


def test_seeds_grow_distinct_forests():
    """No two of the seeds 0-7 grow the same multiset of trees."""
    X = blob(64, 3, seed=6)
    forests = {tuple(sorted(json.dumps(tree) for tree in
                            fit(X, n_trees=4, subsample_size=16, rng_seed=seed).trees))
               for seed in range(8)}
    assert len(forests) == 8
