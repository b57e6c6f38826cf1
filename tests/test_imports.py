import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("ansatz", "cli", "geometry", "harness", "optimize", "qgt", "simulator", "vqe")


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so that nothing imported by this test session counts;
    # find_spec locates the package without importing it
    package_dir = importlib.util.find_spec("pqcgeo").submodule_search_locations[0]
    path = [str(Path(package_dir).parent), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # one interpreter per module, so that an import cycle cannot hide behind
    # a module that happened to be imported first
    done = _fresh_python(f"import pqcgeo.{module}")
    assert done.returncode == 0, done.stderr


def test_package_root_loads_no_module_and_exports_only_its_version():
    # each name is imported from the module that owns it; the root re-exports nothing
    done = _fresh_python(
        "import json, sys, pqcgeo; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('pqcgeo.')), "
        "sorted(n for n in vars(pqcgeo) if not n.startswith('_')), pqcgeo.__version__]))")
    assert done.returncode == 0, done.stderr
    loaded, public, version = json.loads(done.stdout)
    assert loaded == [] and public == []
    assert isinstance(version, str) and version
