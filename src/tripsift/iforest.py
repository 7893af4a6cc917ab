"""Isolation forest, built from first principles.

Each tree partitions a subsample with uniformly random axis-aligned
splits until every part is a single row, holds only equal rows or lies at
the depth cap; anomalous points need fewer splits to isolate, so
short expected path lengths mean high anomaly scores. The score of a
point x is

    s(x) = 2 ** (-E[h(x)] / c(psi))

where h(x) is the path depth plus c(size) at the external node reached,
psi is the subsample size, and c(n) = 2 H(n-1) - 2 (n-1)/n with
H(i) = ln(i) + Euler-Mascheroni is the average path length of an
unsuccessful binary search tree lookup, used to normalize.

Trees are arrays of nodes: internal nodes are [dim, split, left, right]
(indices into the array), external nodes are [-1, size, depth]. These
node lists are the model's only stored form and the model.json format.
Children come after their parent; fit writes each tree's nodes in level
order, left to right within a level.

Tree i of forest f draws from its own stream,
PCG64(SeedSequence(rng_seed, spawn_key=(f, i))), where f is fit's
`forest` argument: 0 for a forest on all features and g + 1 for the
forest of feature group g (see scoring.score_trips). From it the tree
draws its subsample first, then one block of uniforms per depth level, a
pair for each of its nodes that splits there, in heap order. So a tree
depends on its own stream only: not on the other trees, the build order,
nor on how many processes grow the forest, and it draws in proportion to
the nodes it grows.

fit grows the trees each process holds together, one depth level at a
time: the rows of every node of the level sit node after node in one
array, each node's min and max per dim come from one reduceat, and the
rows of each splitting node are reordered into its two children by one
stable sort on the child index.

Scoring walks all rows through one tree at a time: each call turns a
tree's node list into parallel arrays and moves every row down one level
per step until all rows sit on leaves.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forked import process_count, run_parts

EULER_GAMMA = 0.5772156649

MODEL_FORMAT_VERSION = 1


def average_path_length(n: float) -> float:
    """c(n): expected path length to isolate one of n points; 0 for n <= 1."""
    if n <= 1:
        return 0.0
    return 2.0 * (math.log(n - 1.0) + EULER_GAMMA) - 2.0 * (n - 1.0) / n


def score_from_mean_path(mean_path_length: float, c_psi: float) -> float:
    """Map an expected path length to an anomaly score in (0, 1)."""
    return 2.0 ** (-mean_path_length / c_psi)


@dataclass
class IForestModel:
    n_trees: int
    subsample_size: int      # requested; psi is the effective value
    rng_seed: int
    n_features: int
    psi: int
    max_depth: int
    c_psi: float
    trees: list[list[list[float]]]


def _grow_trees(X: np.ndarray, first: int, stop: int, psi: int, rng_seed: int, forest: int,
                max_depth: int) -> list[list[list[float]]]:
    """Trees first..stop-1 of forest `forest`, grown together one depth level at a time.

    With (u_dim, u_split) its pair of uniforms from its tree's stream, a
    node splits on the floor(u_dim * k)-th of its k splittable dims, at
    lo * (1 - u_split) + hi * u_split moved strictly inside (lo, hi).
    """
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed,
                                                                      spawn_key=(forest, i))))
            for i in range(first, stop)]
    sample = np.concatenate([rng.choice(X.shape[0], size=psi, replace=False) for rng in rngs])
    # one row per dim, so each min and max reduces contiguous memory; the level's nodes are
    # in tree, then heap order, and `cols` holds their rows node after node (np.take gathers
    # columns about twice as fast as fancy indexing)
    cols = np.take(X.T, sample, axis=1)
    tree = np.arange(len(rngs))
    size = np.full(len(rngs), psi)
    levels = []          # per level: tree, size, dim (-1 at a leaf), split, left child, depth
    n_before = 0         # nodes in the levels above, counted level-major
    for depth in range(max_depth + 1):
        n_nodes = len(tree)
        dim = np.full(n_nodes, -1)
        split = np.zeros(n_nodes)
        left = np.full(n_nodes, -1)
        levels.append((tree, size, dim, split, left, np.full(n_nodes, depth)))
        if depth == max_depth:
            break
        starts = np.cumsum(size) - size
        lo = np.minimum.reduceat(cols, starts, axis=1)
        hi = np.maximum.reduceat(cols, starts, axis=1)
        # a dim is splittable only if some float lies strictly between min and max
        splittable = np.nextafter(lo, hi) < hi
        count = splittable.sum(axis=0)
        splits = np.flatnonzero(count)
        if not splits.size:
            break
        per_tree = np.bincount(tree[splits], minlength=len(rngs)).tolist()
        u = np.concatenate([rng.random((k, 2)) for rng, k in zip(rngs, per_tree) if k])
        pick = (u[:, 0] * count[splits]).astype(np.intp)
        d = np.argmax(np.cumsum(splittable[:, splits], axis=0) > pick, axis=0)
        a = lo[d, splits]
        b = hi[d, splits]
        s = a * (1.0 - u[:, 1]) + b * u[:, 1]
        # rounding can put the split on either end when the range is very narrow
        s = np.where(s <= a, np.nextafter(a, b), np.where(s >= b, np.nextafter(b, a), s))
        dim[splits] = d
        split[splits] = s
        left[splits] = n_before + n_nodes + 2 * np.arange(splits.size)
        n_before += n_nodes

        # each splitting node's rows go to its left child (below the split), then its right
        slot = np.full(n_nodes, -1)
        slot[splits] = np.arange(splits.size)
        row_slot = np.repeat(slot, size)
        kept = np.flatnonzero(row_slot >= 0)
        row_slot = row_slot[kept]
        child = 2 * row_slot + (cols[d[row_slot], kept] >= s[row_slot])
        # a stable sort on keys of at most 16 bits is a radix sort
        cols = np.take(cols, kept[np.argsort(child.astype(np.min_scalar_type(2 * splits.size)),
                                             kind="stable")], axis=1)
        size = np.bincount(child, minlength=2 * splits.size)
        tree = np.repeat(tree[splits], 2)

    tree, size, dim, split, left, depth = (np.concatenate(col) for col in zip(*levels))
    order = np.argsort(tree, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(tree, minlength=len(rngs)))))
    left = np.where(dim >= 0, position[left] - bounds[tree], -1)
    nodes = [[d, s, lc, lc + 1] if d >= 0 else [-1, n, h] for d, s, lc, n, h in
             zip(*(col[order].tolist() for col in (dim, split, left, size, depth)))]
    bounds = bounds.tolist()
    return [nodes[a:b] for a, b in zip(bounds, bounds[1:])]


def fit(
    X: np.ndarray,
    n_trees: int = 100,
    subsample_size: int = 256,
    rng_seed: int = 0,
    workers: int = 1,
    forest: int = 0,
) -> IForestModel:
    """Fit a forest on an (N, d) matrix of feature vectors.

    The subsample size is clamped to N; each tree gets an independent
    uniform subsample without replacement and a depth cap of
    ceil(log2(psi)). Tree i draws from the stream keyed (forest, i)
    under rng_seed, so forests fitted with the same rng_seed but another
    `forest` index draw independently. With workers above 1 the trees
    are grown in up to that many runs of consecutive trees (no more than
    the usable CPUs), the first here and the others in forked processes;
    the model is the same for any workers.

    Raises:
        ValueError: fewer than 2 vectors, non-finite values, bad params.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D array of shape (N, d)")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 vectors to fit")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if subsample_size < 2:
        raise ValueError("subsample_size must be >= 2")
    if rng_seed < 0:
        raise ValueError("rng_seed must be non-negative")

    if np.all(X.max(axis=0) == X.min(axis=0)):
        warnings.warn("no variance: all vectors identical, every score will be equal",
                      RuntimeWarning, stacklevel=2)

    psi = min(subsample_size, n)
    max_depth = math.ceil(math.log2(psi))
    n_parts = min(process_count(workers), n_trees)
    bounds = [k * n_trees // n_parts for k in range(n_parts + 1)]
    parts = run_parts(_grow_trees, [(X, first, stop, psi, rng_seed, forest, max_depth)
                                    for first, stop in zip(bounds, bounds[1:])])
    trees = [tree for part in parts for tree in part]
    return IForestModel(
        n_trees=n_trees,
        subsample_size=subsample_size,
        rng_seed=rng_seed,
        n_features=d,
        psi=psi,
        max_depth=max_depth,
        c_psi=average_path_length(psi),
        trees=trees,
    )


def _tree_arrays(nodes: list[list[float]]) -> tuple[np.ndarray, ...]:
    """Parallel node arrays of one tree: feature, threshold, left, right, leaf, leaf value.

    A leaf is its own left and right child, so a walk that reaches it stays
    there; its leaf value is depth + c(size).
    """
    table = []
    leaf_value = []
    for i, node in enumerate(nodes):
        if node[0] < 0:
            table.append((0, 0.0, i, i))
            leaf_value.append(node[2] + average_path_length(node[1]))
        else:
            table.append(node)
            leaf_value.append(0.0)
    table = np.array(table, dtype=float)
    feature, left, right = table[:, [0, 2, 3]].astype(np.intp).T
    is_leaf = left == np.arange(len(nodes))
    return feature, table[:, 1], left, right, is_leaf, np.array(leaf_value)


def score_vectors(model: IForestModel, X: np.ndarray) -> np.ndarray:
    """Anomaly scores in (0, 1) for each row of X.

    All rows walk one tree at a time, one level per step, until every row
    sits on a leaf. Path lengths are summed in tree order and each mean is
    mapped by score_from_mean_path, so a row's score does not depend on
    which other rows are scored with it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    values = X.ravel()
    row_start = np.arange(X.shape[0]) * X.shape[1]
    total = np.zeros(X.shape[0])
    for nodes in model.trees:
        feature, threshold, left, right, is_leaf, leaf_value = _tree_arrays(nodes)
        idx = np.zeros(X.shape[0], dtype=np.intp)
        while not is_leaf[idx].all():
            goes_left = values[row_start + feature[idx]] < threshold[idx]
            idx = np.where(goes_left, left[idx], right[idx])
        total += leaf_value[idx]
    mean_paths = (total / model.n_trees).tolist()
    return np.array([score_from_mean_path(m, model.c_psi) for m in mean_paths], dtype=float)


def save_model(model: IForestModel, path: str | Path) -> None:
    """Serialize a fitted model to versioned JSON."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "params": {
            "n_trees": model.n_trees,
            "subsample_size": model.subsample_size,
            "rng_seed": model.rng_seed,
        },
        "n_features": model.n_features,
        "psi": model.psi,
        "max_depth": model.max_depth,
        "c_psi": model.c_psi,
        "trees": model.trees,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float, not a bool; OverflowError for an int beyond float range."""
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _check_tree(nodes: list, n_features: int) -> None:
    """Raise ValueError unless nodes is a tree score_vectors can walk to a leaf.

    Children must sit after their parent, so every walk ends. Splits, leaf
    sizes and leaf depths must be finite numbers: fit only draws splits
    between finite data values, and scoring converts all three to floats.
    """
    if not isinstance(nodes, list) or not nodes:
        raise ValueError("tree is not a non-empty list of nodes")
    for idx, node in enumerate(nodes):
        if node[0] < 0:
            if len(node) != 3 or not all(_is_real(v) and v >= 0 for v in node[1:]):
                raise ValueError(f"node {idx}: leaf needs [-1, size >= 0, depth >= 0]")
        elif len(node) != 4 or not (_is_int(node[0]) and node[0] < n_features):
            raise ValueError(f"node {idx}: internal node needs [int dim < {n_features}, split, "
                             "left, right]")
        elif not _is_real(node[1]):
            raise ValueError(f"node {idx}: split {node[1]!r} is not a finite number")
        elif not all(_is_int(c) and idx < c < len(nodes) for c in node[2:]):
            raise ValueError(f"node {idx}: children must lie after it and inside the tree")


def load_model(path: str | Path) -> IForestModel:
    """Load a model serialized by save_model, checking that it can score.

    Raises:
        ValueError: unknown format version or malformed document (missing
            keys, a tree count other than n_trees, a non-positive c_psi,
            or a tree with a split dimension that is not an int below
            n_features, a split, leaf size or leaf depth that is not a
            finite number, a negative leaf size or depth, or an
            out-of-range child index).
    """
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model version {version!r}, expected {MODEL_FORMAT_VERSION}")
    try:
        params = doc["params"]
        model = IForestModel(
            n_trees=int(params["n_trees"]),
            subsample_size=int(params["subsample_size"]),
            rng_seed=int(params["rng_seed"]),
            n_features=int(doc["n_features"]),
            psi=int(doc["psi"]),
            max_depth=int(doc["max_depth"]),
            c_psi=float(doc["c_psi"]),
            trees=doc["trees"],
        )
    except KeyError as exc:
        raise ValueError(f"malformed model document: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if not isinstance(model.trees, list) or model.n_trees < 1 or len(model.trees) != model.n_trees:
        raise ValueError("malformed model document: trees must list n_trees >= 1 trees")
    if not model.c_psi > 0.0:
        raise ValueError(f"malformed model document: c_psi {model.c_psi} is not positive")
    for i, nodes in enumerate(model.trees):
        try:
            _check_tree(nodes, model.n_features)
        except (ValueError, TypeError, IndexError, KeyError, OverflowError) as exc:
            raise ValueError(f"malformed model document: tree {i}: {exc}") from None
    return model
