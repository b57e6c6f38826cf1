"""Closed forms against oracles: concurrence and scalar curvature.

Each circuit family has a closed-form concurrence in its own parameters, and
its per-circuit scalar curvature is the single universal curve

    R(C) = 2 (6 C^2 - 5) / (C^2 - 1)

evaluated at that concurrence: positive (up to +10) for weakly entangled
states, diverging to -infinity as C -> 1. The numeric tensor-calculus engine
independently confirms the curve from the base metric.

Run:  python demos/03_concurrence_curvature_closed_forms.py
"""
import numpy as np

from pqcgeo import ansatz, geometry

rng = np.random.default_rng(2)

print("closed-form concurrence vs brute-force 2|ad - bc| (200 random draws each):")
for kind in ansatz.ANSATZE:
    thetas = rng.uniform(0, 2 * np.pi, size=(200, ansatz.param_count(kind)))
    closed = ansatz.concurrence_closed(kind, thetas)
    brute = geometry.concurrence(ansatz.prepare_state(kind, thetas))
    print(f"  {kind:>8s}: max deviation {np.abs(closed - brute).max():.2e}")

print("\nuniversal curvature curve at a few concurrences:")
for c in (0.0, 0.5, 1 / np.sqrt(2), np.sqrt(5 / 6), 0.95, 0.999):
    print(f"  C = {c:.4f}  ->  R = {geometry.ricci_closed(c):+10.3f}")

print("\nnumeric engine on the base metric (should match the curve):")
metric = lambda x: geometry.mfs_metric(x[0], x[1], x[2], x[3])
for c in (0.2, 0.5, 0.8):
    numeric = geometry.scalar_curvature_numeric(metric, np.array([c, 0.7, 1.1, 1.3]))
    print(f"  C = {c:.1f}: numeric {numeric:+.6f}  closed {geometry.ricci_closed(c):+.6f}")

conv, devs = geometry.resolve_chart_convention()
print(f"\nchart convention consistent with the curve: {conv}")
print("  max |numeric - closed| per convention:",
      {k: f"{v:.2e}" for k, v in devs.items()})
