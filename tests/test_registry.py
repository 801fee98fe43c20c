"""One contract for all eight name -> spec registries.

Every pluggable axis (topology, routing scheme, selection policy,
traffic pattern, arrival process, engine, experiment, task kind) is a
:class:`repro.registry.Registry`, and everything that consumes names --
``SimConfig.validate``, the CLI's ``choices=`` lists, listing verbs,
``repro run`` and the orchestrator's workers -- only reads it.  So a
throwaway entry registered at runtime must be visible everywhere with
no other edit, and gone again after ``unregister``.  The expected
shipped-name sets live here (CI iterates the registries without
re-typing names).
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, FrozenSet, List, Optional

import pytest

import repro
from repro.cli import _config_from, build_parser, main
from repro.experiments import registry as experiments_registry
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.orchestrator import CampaignError, Executor
from repro.orchestrator.lease import TASKS
from repro.registry import REQUIRED, Kwarg, Registry
from repro.routing.policies import POLICIES, PolicySpec, SinglePathPolicy
from repro.routing.schemes import SCHEMES, Scheme, build_updown_tables
from repro.sim.engines import ENGINES
from repro.topology import TOPOLOGIES, Topology, build_torus
from repro.traffic import ConstantArrivals, UniformTraffic
from repro.traffic.registry import (ARRIVALS, PATTERNS, ArrivalSpec,
                                    PatternSpec)
from tests.conftest import BareNetwork, small_config

NAME = "tmp-entry"
DESCRIPTION = "throwaway registered by test_registry"

#: a fast `repro run` on the 16-switch irregular network
RUN = ["run", "--rate", "0.01", "--warmup-ns", "20000",
       "--measure-ns", "60000"]


class _NullNetwork(BareNetwork):
    """Delivers every packet the instant it is injected."""


def _tmp_ring(hosts_per_switch: int = 2):
    return build_torus(rows=1, cols=4, hosts_per_switch=hosts_per_switch)


def _tmp_task(payload):
    """Echoes its payload (throwaway registered by test_registry)."""
    return {"echo": payload}


@dataclass(frozen=True)
class Axis:
    registry: Registry
    #: a fresh throwaway spec named ``NAME``
    make: Callable[[], Any]
    #: the ``SimConfig`` field / ``repro run`` flag naming this axis
    #: (None: experiments and task kinds are not part of a run
    #: description)
    field: Optional[str]
    #: CLI verb whose output lists the axis (None: task kinds are named
    #: by code, never by a user)
    listing: Optional[List[str]]
    #: text the listing must show for the throwaway entry
    shown: str
    shipped: FrozenSet[str]

    def register(self) -> None:
        spec = self.make()
        # an engine's spec is its class: registered under an explicit name
        self.registry.register(spec, NAME)


AXES = {
    "topology": Axis(
        TOPOLOGIES,
        lambda: Topology(NAME, DESCRIPTION, _tmp_ring, (
            Kwarg("hosts_per_switch", int, 2, "hosts per switch"),)),
        "topology", ["info", NAME], DESCRIPTION,
        frozenset({"torus", "torus-express", "cplant", "irregular",
                   "mesh", "mutated"})),
    "scheme": Axis(
        SCHEMES,
        lambda: Scheme(name=NAME, description=DESCRIPTION,
                       label=lambda policy: "TMP",
                       build=build_updown_tables, multipath=False),
        "routing", ["schemes"], DESCRIPTION,
        frozenset({"updown", "itb", "updown-opt", "outflank", "dor"})),
    "policy": Axis(
        POLICIES,
        lambda: PolicySpec(NAME, DESCRIPTION,
                           lambda seed: SinglePathPolicy()),
        "policy", ["info", "irregular"], DESCRIPTION,
        frozenset({"sp", "rr", "random", "adaptive"})),
    "pattern": Axis(
        PATTERNS,
        lambda: PatternSpec(NAME, DESCRIPTION, UniformTraffic),
        "traffic", ["traffic"], DESCRIPTION,
        frozenset({"uniform", "bit-reversal", "complement", "transpose",
                   "hotspot", "local", "incast"})),
    "arrival": Axis(
        ARRIVALS,
        lambda: ArrivalSpec(NAME, DESCRIPTION, ConstantArrivals),
        "arrival", ["traffic"], DESCRIPTION,
        frozenset({"constant", "poisson", "onoff", "adversarial"})),
    "engine": Axis(
        ENGINES,
        lambda: _NullNetwork,
        "engine", ["info", "irregular"], f"engine {NAME}",
        frozenset({"packet", "flit", "array"})),
    "experiment": Axis(
        EXPERIMENTS,
        lambda: Experiment(
            NAME, "tmp-kind", DESCRIPTION,
            fn=lambda profile, executor=None: profile.measure_ps,
            render=lambda result: f"measured for {result} ps"),
        None, ["list"], DESCRIPTION,
        frozenset({"fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10a",
                   "fig10b", "fig11", "fig12a", "fig12b", "fig12c",
                   "table1", "table2", "table3", "irregular", "mesh-dor",
                   "itb-overhead", "route-cap", "root-placement",
                   "msglen", "adaptive", "link-failure",
                   "resilience", "recovery", "tournament"})),
    "task": Axis(
        TASKS, lambda: _tmp_task, None, None, "",
        frozenset({"point", "saturation"})),
}


def _run_choices(flag: str):
    """``choices`` of ``repro run``'s ``--<flag>`` as the parser built
    right now sees them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in sub.choices["run"]._actions
                if a.dest == flag)


@pytest.fixture(params=sorted(AXES))
def axis(request) -> Axis:
    return AXES[request.param]


class TestEveryRegistry:
    def test_shipped_entries_self_describe(self, axis):
        assert set(axis.registry.names()) == axis.shipped
        assert list(axis.registry.names()) == sorted(axis.shipped)
        for name, spec in axis.registry.items():
            assert name in axis.registry
            assert axis.registry.get(name) is spec
            # an engine's spec is its class, a task kind's its function
            text = getattr(spec, "description", spec.__doc__)
            assert text and text.strip()

    def test_runtime_entry_is_visible_everywhere(self, axis, capsys):
        reg = axis.registry
        axis.register()
        try:
            assert NAME in reg.names() and NAME in reg
            with pytest.raises(ValueError, match="already registered"):
                axis.register()
            with pytest.raises(ValueError) as err:
                reg.get("no-such-entry")
            assert f"unknown {reg.kind} 'no-such-entry'" in str(err.value)
            assert NAME in str(err.value).split("available:")[1]

            if axis.listing is not None:
                assert main(axis.listing) == 0
                assert axis.shown in capsys.readouterr().out

            if reg is TASKS:
                # task kinds: what a worker will run, by name
                assert Executor().run_tasks(NAME, [{"x": 1}]) == \
                    [{"echo": {"x": 1}}]
            elif axis.field is None:
                # experiments: runnable and rendered by id
                assert main(["experiment", NAME, "--profile", "test",
                             "--no-cache"]) == 0
                assert "measured for" in capsys.readouterr().out
            else:
                small_config(**{axis.field: NAME}).validate()
                assert NAME in _run_choices(axis.field)
                argv = RUN + [f"--{axis.field}", NAME]
                if axis.field != "topology":
                    argv += ["--topology", "irregular"]
                assert main(argv) == 0
                assert "delivered" in capsys.readouterr().out
        finally:
            reg.unregister(NAME)
        assert NAME not in reg.names() and NAME not in reg
        if reg is TASKS:
            with pytest.raises(CampaignError, match="unknown task kind"):
                Executor().run_tasks(NAME, [{"x": 1}])
        if axis.field is not None:
            assert NAME not in _run_choices(axis.field)
            with pytest.raises(ValueError, match=f"unknown {reg.kind}"):
                small_config(**{axis.field: NAME}).validate()
        assert set(reg.names()) == axis.shipped  # built-ins untouched


class TestTopologyKwargs:
    def test_declarations_match_builder_signatures(self):
        for name, spec in TOPOLOGIES.items():
            params = inspect.signature(spec.build).parameters
            assert [k.name for k in spec.kwargs] == list(params), name
            for k in spec.kwargs:
                default = params[k.name].default
                if default is inspect.Parameter.empty:
                    assert k.default is REQUIRED, (name, k.name)
                else:
                    assert k.default == default, (name, k.name)

    def test_size_flags_reach_whichever_topology_declares_them(self):
        flags = ["--rows", "3", "--cols", "5", "--hosts-per-switch", "2"]
        wanted = {"torus": {"rows": 3, "cols": 5, "hosts_per_switch": 2},
                  "mesh": {"rows": 3, "cols": 5, "hosts_per_switch": 2},
                  "cplant": {"hosts_per_switch": 2},
                  "irregular": {"hosts_per_switch": 2}}
        for topology, kwargs in wanted.items():
            args = build_parser().parse_args(
                ["run", "--topology", topology] + flags)
            assert _config_from(args, 0.01).topology_kwargs == kwargs
        args = build_parser().parse_args(["run", "--topology", "cplant"])
        assert _config_from(args, 0.01).topology_kwargs == {}

    def test_flagless_topologies_only_on_the_command_line(self):
        # "mutated" needs a base topology: SimConfig-only
        assert "mutated" in TOPOLOGIES
        assert "mutated" not in _run_choices("topology")


class TestExperimentDeclarations:
    """An artefact is declared once, beside its code, and reached
    through the registry."""

    def test_kwargs_match_function_signatures(self):
        """``fn(profile, executor=None, <the declared kwargs>)``: name,
        type and default, for every registered id."""
        for exp_id, exp in EXPERIMENTS.items():
            profile, executor, *rest = inspect.signature(
                exp.fn).parameters.values()
            assert profile.name == "profile", exp_id
            assert (executor.name, executor.default) == ("executor", None)
            assert [(p.name, p.annotation, p.default) for p in rest] == \
                [(k.name, k.type.__name__, k.default)
                 for k in exp.kwargs], exp_id

    def test_import_repro_alone_registers_every_experiment(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import repro; print(' '.join(repro.EXPERIMENTS.names()))"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert set(res.stdout.split()) == AXES["experiment"].shipped
        assert len(AXES["experiment"].shipped) == 25

    def test_the_index_imports_no_study_module(self):
        """``experiments/registry.py`` is what the study modules
        import; a sibling imported there is the central list growing
        back."""
        tree = ast.parse(Path(experiments_registry.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.level, node.module))
                assert node.module is not None, "from . import <sibling>"
            elif isinstance(node, ast.Import):
                imported.update((0, a.name) for a in node.names)
        assert imported == {(0, "__future__"), (0, "dataclasses"),
                            (0, "typing"), (2, "registry"),
                            (1, "profiles")}
        assert not re.search(r"_register\(|_RENDERERS|_CLAIMS",
                             Path(experiments_registry.__file__).read_text())

    def test_design_section_4_lists_every_id(self):
        design = (Path(repro.__file__).resolve().parents[2]
                  / "DESIGN.md").read_text()
        section = design.split("\n## 4.")[1].split("\n## 5.")[0]
        listed = set(re.findall(r"^\| `([a-z0-9-]+)`", section, re.M))
        assert listed == AXES["experiment"].shipped


class TestKwargDeclarations:
    REG: Registry = Registry("widget")
    REG.register(PatternSpec("w", "a widget", UniformTraffic, kwargs=(
        Kwarg("n", int, 3, "count"), Kwarg("path", str, help="file"),
        Kwarg("on", bool, False))))

    def test_check(self):
        self.REG.check_kwargs("w", {"path": "x", "n": 2})
        with pytest.raises(ValueError, match="widget 'w' requires kwarg"):
            self.REG.check_kwargs("w", {})
        with pytest.raises(ValueError, match="unknown kwargs"):
            self.REG.check_kwargs("w", {"path": "x", "m": 1})
        with pytest.raises(ValueError, match="wants int"):
            self.REG.check_kwargs("w", {"path": "x", "n": True})

    def test_parse(self):
        assert self.REG.parse_kwargs("w", ["n=4", "on=yes", "path=a=b"]) \
            == {"n": 4, "on": True, "path": "a=b"}
        with pytest.raises(ValueError, match="key=value"):
            self.REG.parse_kwargs("w", ["n"])
        with pytest.raises(ValueError, match="declares no kwarg"):
            self.REG.parse_kwargs("w", ["m=1"])
        with pytest.raises(ValueError, match="not a valid int"):
            self.REG.parse_kwargs("w", ["n=x"])

    def test_describe(self):
        assert [k.describe() for k in self.REG.get("w").kwargs] == [
            "n:int=3", "path:str=<required>", "on:bool=False"]
