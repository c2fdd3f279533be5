"""Seeded inputs: the generated core records, the layer built from them,
the designer walks of the serving workloads and the churn core.

Everything here is a pure function of the seed, so the same seed always
yields the same layer and the same walks.  The records are plain tuples
kept by the benchmark; the oracles (``oracles.py``) aggregate them
directly and never ask the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LAYER_NAME = "explore50k"
LIBRARY_NAME = "generated"
ROOT = "Design"
FAMILIES = tuple(f"f{i}" for i in range(8))
#: The three non-generalized issues of every family, with their options.
ISSUES: Dict[str, Tuple[int, ...]] = {
    "Pipeline": (1, 2, 4, 8),
    "Unroll": (1, 2, 4, 8),
    "Banks": (1, 2),
}
WIDTHS = (8, 16, 32, 64, 128)
#: ``Width >= 16`` is the requirement of the exploration problem.
EXPLORE_WIDTH = 16
#: The Width values the serving walks require (4 values x 8 families x
#: 75 decision subsets give the ~2.4k deep states of the walks).
WALK_WIDTHS = (16, 32, 64, 128)
METRICS = ("area", "latency_ns")
#: Merit noise above the per-family area/latency trade-off line; it sets
#: the frontier size (~48 cores of the ~5k cores of ``f0``).
NOISE = 150
#: What a second memory bank costs.  Large enough that the optimistic
#: bound of every ``Banks=2`` branch is strictly dominated by the
#: ``Banks=1`` frontier, so branch-and-bound cuts half the leaves.
BANK_AREA = 300.0
BANK_LATENCY = 150.0


@dataclass(frozen=True)
class CoreRecord:
    """One generated core, as the benchmark keeps it."""

    name: str
    family: str
    pipeline: int
    unroll: int
    banks: int
    width: int
    area: float
    latency_ns: float


def generate_records(seed: int, count: int) -> List[CoreRecord]:
    """``count`` cores round-robin over the 8 families.

    Family ``fk`` is offset by ``700 k`` in area and ``50 k`` in latency
    (the dominance gradient branch-and-bound exploits).  Within a family
    the cores sit on a stratified area/latency trade-off line plus
    integer noise, so the Pareto front has a near-constant size across
    seeds and integer merits produce real ties.
    """
    rng = random.Random(seed)
    per_family = -(-count // len(FAMILIES))
    records = []
    for i in range(count):
        family = i % len(FAMILIES)
        t = (i // len(FAMILIES) + rng.random()) / per_family
        banks = rng.choice(ISSUES["Banks"])
        records.append(CoreRecord(
            name=f"core{i}",
            family=FAMILIES[family],
            pipeline=rng.choice(ISSUES["Pipeline"]),
            unroll=rng.choice(ISSUES["Unroll"]),
            banks=banks,
            width=rng.choice(WIDTHS),
            area=(100.0 + 700.0 * family + BANK_AREA * (banks - 1)
                  + int(480 * t) + rng.randrange(NOISE)),
            latency_ns=(1.0 + 50.0 * family + BANK_LATENCY * (banks - 1)
                        + int(280 * (1 - t)) + rng.randrange(NOISE))))
    return records


def churn_record(seed: int, records: Sequence[CoreRecord]) -> CoreRecord:
    """The distinctive core the workloads add and remove: in family
    ``f0`` (the one branch-and-bound explores, so adding it does not
    change how much of the tree an explore call visits), in a cell placed
    by the seed, with an area below every generated core's."""
    rng = random.Random(f"churn:{seed}")
    return CoreRecord(
        name="churn-core",
        family=FAMILIES[0],
        pipeline=rng.choice(ISSUES["Pipeline"]),
        unroll=rng.choice(ISSUES["Unroll"]),
        banks=rng.choice(ISSUES["Banks"]),
        width=rng.choice(WALK_WIDTHS),
        area=min(r.area for r in records) - 50.0,
        latency_ns=float(rng.randrange(1, 400)))


def design_object(record: CoreRecord):
    """The :class:`~repro.core.DesignObject` for one record."""
    from repro.core import DesignObject
    return DesignObject(
        record.name, f"{ROOT}.{record.family}",
        {"Pipeline": record.pipeline, "Unroll": record.unroll,
         "Banks": record.banks, "Width": record.width},
        {"area": record.area, "latency_ns": record.latency_ns})


def build_layer(records: Sequence[CoreRecord]):
    """The layer of the records, built through the public API only."""
    from repro.core import (
        ClassOfDesignObjects,
        DesignIssue,
        DesignSpaceLayer,
        EnumDomain,
        IntRange,
        Requirement,
        RequirementSense,
        ReuseLibrary,
    )
    layer = DesignSpaceLayer(LAYER_NAME, f"{len(records)} generated cores")
    root = ClassOfDesignObjects(ROOT, "generated design family")
    root.add_property(Requirement(
        "Width", IntRange(1), "datapath width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(DesignIssue(
        "Family", EnumDomain(list(FAMILIES)), "family split",
        generalized=True))
    layer.add_root(root)
    for family in FAMILIES:
        child = root.specialize(family)
        for issue, options in ISSUES.items():
            child.add_property(DesignIssue(issue, EnumDomain(list(options)),
                                           issue.lower()))
    library = ReuseLibrary(LIBRARY_NAME, "generated cores")
    for record in records:
        library.add(design_object(record))
    layer.attach_library(library)
    layer.validate()
    return layer


@dataclass(frozen=True)
class Walk:
    """One designer walk of the serving workloads."""

    width: int
    family: str
    #: 1-3 of Pipeline/Unroll/Banks with their options, in decision order.
    decisions: Tuple[Tuple[str, int], ...]
    #: The issue whose options the walk asks for.
    options_issue: str


def walks(seed: int, client: int) -> Iterator[Walk]:
    """The endless walk stream of one client thread."""
    rng = random.Random(f"walks:{seed}:{client}")
    names = tuple(ISSUES)
    while True:
        chosen = rng.sample(names, rng.randint(1, 3))
        yield Walk(width=rng.choice(WALK_WIDTHS),
                   family=rng.choice(FAMILIES),
                   decisions=tuple((name, rng.choice(ISSUES[name]))
                                   for name in chosen),
                   options_issue=rng.choice(names))


def walk_steps(walk: Walk) -> List[Tuple[str, Dict[str, object],
                                         Optional[Dict[str, object]]]]:
    """The walk's requests after ``session/open``: ``(verb, params,
    filters)``, where ``filters`` is the state the response reports on
    (``None`` for verbs without a report).  The token is added by the
    caller."""
    steps: List[Tuple[str, Dict[str, object], Optional[Dict[str, object]]]]
    state: Dict[str, object] = {"width": walk.width}
    steps = [("session/require", {"name": "Width", "value": walk.width},
              dict(state))]
    state["family"] = walk.family
    steps.append(("session/decide", {"issue": "Family",
                                     "option": walk.family}, dict(state)))
    for issue, option in walk.decisions:
        state[issue] = option
        steps.append(("session/decide", {"issue": issue, "option": option},
                      dict(state)))
    steps.append(("session/options", {"issue": walk.options_issue},
                  dict(state)))
    steps.append(("session/report", {}, dict(state)))
    steps.append(("session/close", {}, None))
    return steps
