"""The import boundary: only the dual route loads SciPy, and only ``scipy.linalg``.

Each case runs in a fresh interpreter, since the test modules import SciPy
themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import otgeo

SRC = str(Path(otgeo.__file__).resolve().parent.parent)

# prints the exit code of ``otgeo.cli.main`` on the arguments (if any) and the
# SciPy modules loaded
CHILD = """
import json, sys
import otgeo{extra}
code = otgeo.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def loaded_scipy(*args, extra=".cli"):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", CHILD.format(extra=extra), *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def run_args(tmp_path, method, command="run", dim=1):
    cfg = {"grid": {"dim": dim, "n_space": 32 if dim == 1 else 8, "n_time": 16, "horizon": 1.0},
           "marginals": {"family": "bump_pair", "width": 0.15},
           "solver": {"method": method, "eps": 0.1, "eps_list": [0.2, 0.1]},
           "diagnostics": {"checks": ["energy", "duality", "heat_bound"]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return command, str(path), "--out", str(tmp_path / "out")


def test_import_loads_no_scipy():
    assert loaded_scipy(extra="") == [None, []]
    assert loaded_scipy() == [None, []]


def test_prox_run_loads_no_scipy(tmp_path):
    assert loaded_scipy(*run_args(tmp_path, "prox")) == [0, []]


def test_both_run_loads_no_optimizer(tmp_path):
    # the dual route factors its Hessian's band with scipy.linalg alone
    code, modules = loaded_scipy(*run_args(tmp_path, "both"))
    assert code == 0
    assert "scipy.linalg" in modules
    assert not any(m.startswith(("scipy.sparse", "scipy.optimize")) for m in modules)


def test_torus_w2_oracle_loads_no_scipy(tmp_path):
    # the 2-D W2 oracle and midpoint are sums and products of circle oracles
    assert loaded_scipy(*run_args(tmp_path, "prox", command="sweep", dim=2)) == [0, []]
