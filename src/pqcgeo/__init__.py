"""Geometry of two-qubit parameterized circuits.

Statevector simulation, five closed-form circuit families, Hopf-fibration
coordinates, concurrence and scalar curvature, quantum geometric tensors with
block/diagonal approximations, and (natural-)gradient VQE experiments.
Each name is imported from the module that owns it, e.g.
``from pqcgeo import ansatz`` or ``from pqcgeo.geometry import SingularityError``.
"""
__version__ = "0.1.0"
