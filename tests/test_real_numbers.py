"""One rule for real-number input, fed the same values at every site that reads one.

A value is a real number when it is numbers.Real and not bool, and it is read as its
float; an integer beyond the float range reads as the infinity of its sign. Each site
keeps its own range check and its own message for values that are not real numbers.
"""
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pqcgeo import geometry, harness, optimize, qgt, simulator as sim, vqe

_H = vqe.load_bundled("entangled")

# site -> (the float it read from v, or what it computed from it; its refusal message)
SITES = {
    "parameter": (lambda v: float(optimize.run_optimization(
        "hea", _H, [0.1, v, 0.2, 0.3], optimize.OptConfig(max_steps=1)).theta[0, 1]),
        r"^parameters must be (numbers, not text or bool: got |real numbers: got |finite)"),
    "gate angle": (lambda v: sim.rotation("X", v, 1).angle,
                   r"^gate angle must be (finite|a number, not bool)$"),
    "learning_rate": (lambda v: optimize.OptConfig(learning_rate=v).learning_rate,
                      r"^learning_rate must be positive and finite, got "),
    "tol": (lambda v: optimize.OptConfig(tol=v).tol, r"^tol must be positive, got "),
    "rcond": (lambda v: qgt.PseudoInverse(v).rcond, r"^rcond must be positive and finite, got "),
    "epsilon": (lambda v: qgt.Tikhonov(v).epsilon, r"^epsilon must be positive and finite, got "),
    "clip bound": (lambda v: harness.scan_landscape("hea", (0, 1), resolution=2,
                                                    clip=(v, 20))[2]["clip"][0],
                   r"^clip bounds (must be two real numbers|must be finite with lo < hi), got "),
    "hamiltonian": (lambda v: vqe.Hamiltonian(nu=(v, 0, 0, 0, 0, 0)).nu[0],
                    r"^Hamiltonian coefficients must be (real numbers|finite)$"),
    "pauli": (lambda v: float(sim.PauliObservable(((v, "I"),)).matrix()[0, 0].real),
              r"^Pauli coefficients must be finite real numbers, got "),
    "concurrence": (lambda v: geometry.ricci_closed(v),
                    r"^concurrence must be a real number, got "),
}

NOT_REAL = {"True": True, "np.False_": np.False_, "text": "0.5", "bytes": b"1", "1j": 1j,
            "np.complex128": np.complex128(0.5), "Decimal": Decimal("0.5"), "None": None,
            "0-d array": np.array(0.5)}
BEYOND = {"nan": math.nan, "10**400": 10**400, "-10**400": -10**400}
REAL = {"Fraction": Fraction(1, 2), "np.float32": np.float32(0.5), "np.int64(3)": np.int64(3),
        "np.longdouble": np.longdouble(0.5)}


def _read(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning or any other warning fails
        return SITES[site][0](value)


def _cases(values, sites=SITES, skip=()):
    return [pytest.param(s, v, id=f"{s}-{k}") for s in sites for k, v in values.items()
            if (s, k) not in skip]


# R(C) takes arrays of concurrences, so a 0-d array is an array of one there
@pytest.mark.parametrize("site,value", _cases(NOT_REAL, skip=[("concurrence", "0-d array")]))
def test_every_site_refuses_a_value_that_is_not_a_real_number(site, value):
    with pytest.raises(ValueError, match=SITES[site][1]) as exc:
        _read(site, value)
    assert type(exc.value) is ValueError


# R(C) refuses NaN, and +-inf as on its pole (SingularityError)
@pytest.mark.parametrize("site,value", _cases(BEYOND, [s for s in SITES if s != "concurrence"])
                         + _cases({"nan": math.nan}, ["concurrence"]))
def test_every_site_refuses_nan_and_integers_beyond_the_float_range(site, value):
    if site == "tol" and value == 10**400:  # read as inf, like tol = inf
        assert _read(site, value) == math.inf
        return
    with pytest.raises(ValueError, match=SITES[site][1]):
        _read(site, value)


# np.int64(3) is beyond the C = 1 pole of R(C), so the curvature site reads np.int64(0)
@pytest.mark.parametrize("site,value", _cases(REAL, skip=[("concurrence", "np.int64(3)")])
                         + _cases({"np.int64(0)": np.int64(0)}, ["concurrence"]))
def test_every_site_reads_a_real_number_as_its_float(site, value):
    got = _read(site, value)
    assert type(got) is float and got == _read(site, float(value))
