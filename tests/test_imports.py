import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("ansatz", "cli", "geometry", "harness", "optimize", "qgt", "simulator", "vqe")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter per module, so that an import cycle cannot hide behind
    # a module that happened to be imported first; find_spec locates the package
    # without importing it
    package_dir = importlib.util.find_spec("pqcgeo").submodule_search_locations[0]
    path = [str(Path(package_dir).parent), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", f"import pqcgeo.{module}"],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
