"""Quickstart: the All-Nearest-Neighbor query in five lines.

Builds MBRQT indexes over two point sets, runs the paper's MBA algorithm
(DF-BI traversal with NXNDIST pruning), and prints a few neighbour pairs
plus the cost counters.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import JoinConfig, all_nearest_neighbors

rng = np.random.default_rng(0)
restaurants = rng.random((2_000, 2)) * 100.0   # query set R
hotels = rng.random((1_500, 2)) * 100.0        # target set S

result, stats = all_nearest_neighbors(restaurants, hotels)

print("Nearest hotel for the first five restaurants:")
for r_id in range(5):
    dist, s_id = result.nn_of(r_id)
    print(f"  restaurant {r_id} -> hotel {s_id}  ({dist:.2f} units away)")

print(f"\nanswered {len(result)} queries")
print(f"distance evaluations : {stats.distance_evaluations:,}")
print(f"index node expansions: {stats.node_expansions:,}")
print(f"page misses          : {stats.page_misses:,}")
print(f"simulated I/O time   : {stats.io_time_s:.3f}s")

# The same call answers All-k-Nearest-Neighbor queries:
result5, __ = all_nearest_neighbors(restaurants, hotels, config=JoinConfig(k=5))
print(f"\n5 nearest hotels of restaurant 0: {result5.neighbors_of(0)}")

# ... and self-joins (each point's nearest *other* point), the form used
# by clustering algorithms:
self_nn, __ = all_nearest_neighbors(restaurants)
dist, other = self_nn.nn_of(0)
print(f"nearest other restaurant to restaurant 0: {other} at {dist:.2f}")
