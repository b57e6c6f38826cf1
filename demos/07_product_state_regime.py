"""Second regime: the ground state is a product state |10>.

Optimizations that start entangled (negative curvature) must climb back to the
positive-curvature hill at C = 0 where the product target lives; the traces
end near R = +10.

Run:  python demos/07_product_state_regime.py
"""
import numpy as np

from pqcgeo import ansatz, harness, optimize, vqe

ham = vqe.load_bundled("product")
gt = vqe.exact_ground(ham)
print(f"ground energy {gt.energy:.6f} Ha, ground concurrence {gt.concurrence:.2e}")
print(f"ground amplitudes: {np.round(np.abs(gt.state) ** 2, 8)}\n")

cfg = optimize.OptConfig(optimizer="qng", metric_mode="block", seed=23)
traces = optimize.run_trials(ansatz.LDCA, ham, cfg, 20)
start_c = np.mean([t.concurrence[0] for t in traces])
end_c = np.mean([t.concurrence[-1] for t in traces])
end_r = np.mean([t.ricci[-1] for t in traces])
reached = round(harness.summarize(traces, cfg)["reached_fraction"] * 20)
print(f"ldca + qng(block), 20 trials: {reached}/20 reach 1e-3 Ha")
print(f"mean concurrence {start_c:.3f} (start) -> {end_c:.5f} (end)")
print(f"mean final curvature {end_r:+.3f} (hill top is +10)")

print("\none trace, decimated:")
trace = optimize.run_optimization(ansatz.LDCA, ham,
                                  optimize.initial_parameters(ansatz.LDCA, cfg, 4), cfg)
for t in range(0, len(trace), max(1, len(trace) // 8)):
    print(f"  step {t:3d}: error {trace.energy_error[t]:9.2e}  C {trace.concurrence[t]:.4f}  "
          f"R {trace.ricci[t]:+8.2f}")
