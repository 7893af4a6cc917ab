"""The isolation forest on a 2-D point cloud you can reason about.

200 points are drawn from a unit square; 10 more are planted far away.
Short average isolation paths mean high anomaly scores, so the planted
points should occupy the top of the ranking.

Run: python3 demos/05_isolation_forest.py
"""

import numpy as np

from tripsift.iforest import fit, score_vectors

N_INLIERS = 200
N_OUTLIERS = 10


def main() -> None:
    rng = np.random.default_rng(1)
    inliers = rng.uniform(0.0, 1.0, size=(N_INLIERS, 2))
    outliers = rng.uniform(0.0, 1.0, size=(N_OUTLIERS, 2)) + 12.0
    X = np.vstack([inliers, outliers])

    model = fit(X, rng_seed=1)
    scores = score_vectors(model, X)
    print(f"forest: {len(model.trees)} trees, subsample {model.psi}, "
          f"depth cap {model.max_depth}")
    print(f"score range: [{scores.min():.3f}, {scores.max():.3f}]")
    print()

    order = np.argsort(scores)[::-1]
    print("rank  index  score   planted?")
    for rank, idx in enumerate(order[:12], start=1):
        planted = "yes" if idx >= N_INLIERS else ""
        print(f"{rank:4d} {idx:6d} {scores[idx]:6.3f}   {planted}")


if __name__ == "__main__":
    main()
