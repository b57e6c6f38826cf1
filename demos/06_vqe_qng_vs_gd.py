"""Natural gradient vs plain gradient descent on the entangled-regime
two-qubit Hamiltonian, with the scalar curvature tracked along the way.

The target ground state is 0.47|01> + 0.53|10> (probabilities), concurrence
0.998, i.e. deep inside the negative-curvature region. Circuits that find
negative curvature early converge fast; the original qgan block cannot enter
that region at all, and appending four local rotations fixes it even though
local gates cannot change concurrence at fixed core parameters.

Run:  python demos/06_vqe_qng_vs_gd.py        (about 2 s)
"""
import numpy as np

from pqcgeo import ansatz, harness, optimize, vqe

TRIALS = 20
ham = vqe.load_bundled("entangled")
gt = vqe.exact_ground(ham)
print(f"target energy {gt.energy:.6f} Ha, target concurrence {gt.concurrence:.4f}\n")

print(f"{'circuit':>9s} {'optimizer':>10s}  reached  median-steps  final-C  final-R")
for kind in (ansatz.LDCA, ansatz.HEA, ansatz.SHEA, ansatz.QGAN, ansatz.QGAN_AUG):
    for opt, mode in (("qng", "block"), ("gd", "block")):
        cfg = optimize.OptConfig(optimizer=opt, metric_mode=mode, seed=17)
        traces = optimize.run_trials(kind, ham, cfg, TRIALS)
        summary = harness.summarize(traces, cfg)
        reached = round(summary["reached_fraction"] * TRIALS)
        med = summary["median_steps_to_threshold"]
        final_c = np.mean([t.concurrence[-1] for t in traces])
        final_r = np.mean([t.ricci[-1] for t in traces])
        print(f"{kind:>9s} {opt + '-' + mode:>10s}  {reached:3d}/{TRIALS:<3d} "
              f"{float('nan') if med is None else med:10.1f}  "
              f"{final_c:8.3f} {final_r:+9.1f}")

print("\ncurvature along one ldca natural-gradient path:")
cfg = optimize.OptConfig(optimizer="qng", metric_mode="block", seed=17)
trace = optimize.run_optimization(ansatz.LDCA, ham,
                                  optimize.initial_parameters(ansatz.LDCA, cfg, 0), cfg)
for t in range(0, len(trace), max(1, len(trace) // 10)):
    print(f"  step {t:3d}: error {trace.energy_error[t]:9.2e}  C {trace.concurrence[t]:.4f}  "
          f"R {trace.ricci[t]:+10.1f}")
