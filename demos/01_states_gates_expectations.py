"""Statevector basics: gates, expectation values, ray equality.

Run:  python demos/01_states_gates_expectations.py
"""
import numpy as np

from pqcgeo import simulator as sim

# start from |00> and rotate qubit 1
psi = sim.basis_state("00")
psi = sim.apply_gate(psi, sim.rotation("Y", np.pi / 3, qubit=1))
print("R_Y(pi/3) on qubit 1 of |00>:")
for label, amp in zip(sim.BASIS_LABELS, psi):
    print(f"  |{label}>  {amp:+.4f}")

# entangle with the variable-angle iSWAP^dag gate
psi = sim.apply_gate(psi, sim.iswap_dag(np.pi / 5))
print(f"\nafter iSWAP(pi/5)^dag the norm is still {np.linalg.norm(psi):.12f}")

# expectation values of a few Pauli words
for label in ("Z1", "Z2", "X1X2", "Y1Y2"):
    print(f"<{label}> = {sim.expectation(psi, sim.parse_pauli_label(label)):+.6f}")

# states are rays: a global phase changes nothing physical
phased = np.exp(1j * 0.83) * psi
print(f"\nfidelity with its own phase-shifted copy: "
      f"{sim.fidelity_up_to_phase(psi, phased):.12f}")
bell = (sim.basis_state("00") + sim.basis_state("11")) / np.sqrt(2)
print(f"overlap of |00> with the Bell state:       "
      f"{sim.fidelity_up_to_phase(sim.basis_state('00'), bell):.12f}  (1/sqrt 2)")
