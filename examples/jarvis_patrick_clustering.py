"""Jarvis-Patrick clustering on top of the AkNN primitive.

The paper cites Jarvis-Patrick (shared-near-neighbor) clustering as a
direct consumer of AkNN: points belong to the same cluster when they
appear in each other's k-nearest-neighbour lists and share at least
``j`` common neighbours.  The expensive step — computing every point's
kNN list — is exactly one AkNN self-join, served here by the MBA
algorithm over an MBRQT.

Run:  python examples/jarvis_patrick_clustering.py
"""

import numpy as np

from repro import JoinConfig, aknn_join


def jarvis_patrick(points: np.ndarray, k: int = 12, shared_min: int = 5) -> np.ndarray:
    """Cluster ``points`` with the Jarvis-Patrick criterion.

    Two points are linked when each lists the other among its k nearest
    neighbours and their neighbour lists share >= ``shared_min`` entries;
    clusters are the connected components of that link graph.
    """
    result, stats = aknn_join(points, config=JoinConfig(k=k))
    print(f"AkNN join: {stats.distance_evaluations:,} distance evaluations, "
          f"{stats.page_misses:,} page misses")

    neighbor_sets = {
        r_id: {s_id for __, s_id in result.neighbors_of(r_id)} for r_id in range(len(points))
    }

    # Union-find over the shared-near-neighbor links.
    parent = np.arange(len(points))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, nbrs in neighbor_sets.items():
        for b in nbrs:
            if a < b and a in neighbor_sets[b]:
                if len(nbrs & neighbor_sets[b]) >= shared_min:
                    parent[find(a)] = find(b)

    return np.array([find(i) for i in range(len(points))])


def main() -> None:
    rng = np.random.default_rng(11)
    # Two crescents plus background noise — a shape k-means gets wrong but
    # shared-near-neighbor clustering handles.
    t = rng.random(400) * np.pi
    upper = np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0, 0.08, (400, 2))
    lower = np.column_stack([1 - np.cos(t), 0.4 - np.sin(t)]) + rng.normal(0, 0.08, (400, 2))
    noise = rng.uniform([-1.5, -1.2], [2.5, 1.6], size=(40, 2))
    points = np.vstack([upper, lower, noise])

    labels = jarvis_patrick(points, k=12, shared_min=5)
    sizes = np.sort(np.bincount(labels))[::-1]
    big = sizes[sizes >= 50]
    print(f"clusters >= 50 points: {len(big)} with sizes {big.tolist()}")
    assert len(big) == 2, "expected the two crescents as dominant clusters"

    # The two dominant clusters should separate upper from lower crescent.
    top_labels = [lbl for lbl, size in enumerate(np.bincount(labels)) if size >= 50]
    upper_label = np.bincount(labels[:400]).argmax()
    lower_label = np.bincount(labels[400:800]).argmax()
    assert upper_label != lower_label
    assert upper_label in top_labels and lower_label in top_labels
    print("crescents separated correctly")


if __name__ == "__main__":
    main()
