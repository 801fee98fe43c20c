"""Experiment index: the one description of an artefact and the one
door to it.

Every artefact -- the paper's figures and tables, the ablations, the
studies -- is one :class:`Experiment` registered in :data:`EXPERIMENTS`
by the module that defines it, beside its function: id, kind, title,
function, renderer, claims and declared parameters, each written once.
``run_experiment("fig7a", profile)`` regenerates one;
``run_experiment("fig12a", profile, radius=4)`` with a declared
parameter changed.  The CLI (``repro experiment <id> --arg k=v``,
``repro list``), ``tests/test_paper_claims.py`` and `examples/` read
the registry and nothing else, so this module imports none of the
modules that register with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..registry import Kwarg, Registry
from .profiles import BENCH, Profile

#: one claim checked against a result: (statement quoting the measured
#: values, whether it holds)
Claim = Tuple[str, bool]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact."""

    name: str  # the id: ``fig7a``, ``table1``, ``tournament``
    kind: str  # what sort of result ``fn`` returns, e.g. "latency-panel"
    description: str
    #: ``fn(profile, executor=None, **kwargs)`` -> the result
    fn: Callable[..., Any]
    #: text report of ``fn``'s result
    render: Callable[[Any], str]
    #: ASCII plot of the result (``--plot``); None when it has no curves
    plot: Optional[Callable[[Any], str]] = None
    #: what the paper (or, for an extension, the study) concludes from
    #: the result, as checks on it; None when nothing is claimed
    claims: Optional[Callable[[Any], List[Claim]]] = None
    #: ``fn``'s keyword parameters after ``executor``, with its defaults
    #: (comma lists are ``str``: ``--arg ks=1,2``)
    kwargs: Tuple[Kwarg, ...] = ()
    #: JSON-safe form of the result (``--json``); None when it has none
    to_json: Optional[Callable[[Any], Dict[str, Any]]] = None


EXPERIMENTS: Registry[Experiment] = Registry("experiment")


def run_experiment(exp_id: str, profile: Profile, executor: Any = None,
                   **kwargs: Any) -> Any:
    """Run one registered experiment under ``profile``.

    Every simulation point of the artefact runs through ``executor``
    (a :class:`repro.orchestrator.Executor`: its workers, its result
    store); ``None`` is :func:`~.sweep.resolve_executor`'s plain one.
    ``kwargs`` must be declared by the experiment.
    """
    EXPERIMENTS.check_kwargs(exp_id, kwargs)
    return EXPERIMENTS.get(exp_id).fn(profile, executor=executor, **kwargs)


def render_claims(exp: Experiment, result: Any,
                  profile: Profile) -> Optional[str]:
    """The verdict section of ``exp``'s report, or None.

    Claims are statements about saturation behaviour, calibrated at
    the bench profile; under shorter windows (the test profile) a knee
    is mostly noise and no verdict is given.
    """
    if exp.claims is None or profile.measure_ps < BENCH.measure_ps:
        return None
    verdicts = exp.claims(result)
    lines = [f"-- claims ({sum(ok for _, ok in verdicts)} of "
             f"{len(verdicts)} hold)"]
    lines += [f"   {'holds' if ok else 'FAILS'}  {statement}"
              for statement, ok in verdicts]
    return "\n".join(lines)
