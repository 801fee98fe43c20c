"""A fresh process imports what its command runs, and nothing else.

Each check runs in a new interpreter, because an import is a one-way
door inside one: ``import repro`` resolves its names on first access
and loads no submodule; ``import repro.cli`` and a whole ``repro run``
load the simulator and the run-description registries, but neither the
study catalogue (``repro.experiments``, ``repro.resilience``) nor the
pools with their sockets, TLS and HTTP.  A verb that needs those
imports them itself (DESIGN.md section 10, "Start-up").  The shipped
task kinds still reach every process that runs tasks: an ``Executor``
in a fresh interpreter runs points inline and on forked workers.

The checks run as a script -- ``python tests/test_startup_imports.py``
exits 1 if any fails -- and pytest runs that same script body once.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules a plain run never needs
OFF_THE_RUN_PATH = (
    "repro.experiments", "repro.resilience",
    "repro.orchestrator.campaign", "repro.orchestrator.fabric",
    "repro.orchestrator.pool", "repro.orchestrator.serve",
    "repro.orchestrator.wire", "ssl", "http.server")

#: shipped entries of the six run-description registries (the names
#: are pinned by tests/test_registry.py)
SHIPPED = {"topology": 6, "scheme": 5, "policy": 4, "pattern": 7,
           "arrival": 4, "engine": 3}

_OFF_PATH = f"""
loaded = sorted(set({OFF_THE_RUN_PATH!r}) & set(sys.modules))
assert not loaded, f"loaded off the run path: {{loaded}}"
"""

#: check name -> program run by a fresh interpreter; it fails by
#: raising, so a nonzero exit status carries the traceback
CHECKS = {
    "import repro loads no submodule": """
import sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
assert not loaded, loaded
""",
    "import repro.cli loads the run path only": "import sys\n"
    "import repro.cli\n" + _OFF_PATH + f"""
from repro.routing.policies import POLICIES
from repro.routing.schemes import SCHEMES
from repro.sim.engines import ENGINES
from repro.topology import TOPOLOGIES
from repro.traffic.registry import ARRIVALS, PATTERNS
counts = {{"topology": len(TOPOLOGIES), "scheme": len(SCHEMES),
          "policy": len(POLICIES), "pattern": len(PATTERNS),
          "arrival": len(ARRIVALS), "engine": len(ENGINES)}}
assert counts == {SHIPPED!r}, counts
""",
    "repro run loads the run path only": """
import runpy
import sys
sys.argv = ["repro", "run", "--rows", "4", "--cols", "4",
            "--hosts-per-switch", "2", "--warmup-ns", "20000",
            "--measure-ns", "60000"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as e:
    assert not e.code, e.code
""" + _OFF_PATH,
    "repro run --links loads the run path only": """
import runpy
import sys
sys.argv = ["repro", "run", "--rows", "4", "--cols", "4",
            "--hosts-per-switch", "2", "--warmup-ns", "20000",
            "--measure-ns", "60000", "--links"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as e:
    assert not e.code, e.code
""" + _OFF_PATH,
    "every exported name resolves": """
import repro
import repro.orchestrator
for package in (repro, repro.orchestrator):
    for name in package.__all__:
        getattr(package, name)
    assert set(package.__all__) <= set(dir(package))
""",
    "the resilience package sees the whole catalogue": """
from repro.resilience import run_resilience
from repro.experiments.registry import EXPERIMENTS
from repro.orchestrator.lease import TASKS
assert len(EXPERIMENTS) == 25, EXPERIMENTS.names()
assert TASKS.names() == ("point", "saturation"), TASKS.names()
""",
    "a fresh Executor runs points forked and inline": """
from repro import Executor, SimConfig
cfgs = [SimConfig(topology="torus",
                  topology_kwargs={"rows": 4, "cols": 4,
                                   "hosts_per_switch": 2},
                  injection_rate=0.01, warmup_ps=20_000_000,
                  measure_ps=60_000_000, seed=seed) for seed in (1, 2)]
# forked workers first, so the parent has imported no task kind yet
for workers in (2, 1):
    for summary in Executor(workers=workers).run_configs(cfgs):
        assert summary.messages_delivered > 0, summary
""",
}


def run_check(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", CHECKS[name]],
                          capture_output=True, text=True, env=env)


def test_shipped_counts_match_test_registry():
    from tests.test_registry import AXES
    assert SHIPPED == {axis: len(AXES[axis].shipped) for axis in SHIPPED}


def test_fresh_processes():
    assert main() == 0


def main() -> int:
    failed = 0
    for name in CHECKS:
        res = run_check(name)
        print(f"{'ok  ' if res.returncode == 0 else 'FAIL'} {name}")
        if res.returncode:
            failed += 1
            print(res.stderr, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
