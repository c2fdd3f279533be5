"""Tests of the benchmark itself.

* Each oracle accepts the program's answer and rejects a deliberately
  perturbed one.
* Smoke mode: every workload, untraced and traced, runs at a reduced
  core count in seconds with the oracles on, and prints every metric
  with its unit plus the attempted and failed counts.
* Without the program's sources the benchmark exits non-zero and prints
  no result.

Run from the repository root: ``python3 -m pytest dslbench -q``.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from inputs import (
    EXPLORE_WIDTH,
    LAYER_NAME,
    LIBRARY_NAME,
    METRICS,
    ROOT,
    CoreRecord,
    build_layer,
    churn_record,
    design_object,
    generate_records,
    walk_steps,
    walks,
)
from oracles import CellTable, check_frontier, check_step, pareto_front

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SMOKE_CORES = 2000
SMOKE_SECONDS = "2"


@pytest.fixture(scope="module")
def records():
    return generate_records(7, SMOKE_CORES)


@pytest.fixture(scope="module")
def layer(records):
    return build_layer(records)


def brute_front(records, min_width):
    points = [r for r in records if r.width >= min_width]
    return sorted(
        p.name for p in points
        if not any(q.area <= p.area and q.latency_ns <= p.latency_ns
                   and (q.area, q.latency_ns) != (p.area, p.latency_ns)
                   for q in points))


def test_pareto_sweep_matches_brute_force_with_ties():
    rng = random.Random(3)
    for _ in range(20):
        records = [CoreRecord(f"c{i}", "f0", 1, 1, 1, rng.choice((8, 16)),
                              float(rng.randrange(8)),
                              float(rng.randrange(8)))
                   for i in range(60)]
        assert pareto_front(records, 16) == brute_front(records, 16)


def test_frontier_oracle_rejects_perturbed_frontier(records, layer):
    from repro.core import ExplorationProblem
    from repro.core.explore import explore
    problem = ExplorationProblem(start=ROOT, metrics=METRICS,
                                 requirements={"Width": EXPLORE_WIDTH},
                                 layer=layer)
    names = [o.core for o in explore(problem, strategy="bnb")
             .frontier.outcomes()]
    expected = pareto_front(records, EXPLORE_WIDTH)
    assert check_frontier(names, expected) is None
    assert check_frontier(names[1:], expected) is not None
    worst = max((r for r in records if r.width >= EXPLORE_WIDTH),
                key=lambda r: r.area + r.latency_ns)
    assert check_frontier(names + [worst.name], expected) is not None


def served_walk(service, walk):
    """``(verb, params, filters, payload)`` of one walk, in process."""
    status, opened = service.handle("session/open",
                                    {"layer": LAYER_NAME, "start": ROOT})
    assert status == 200, opened
    answers = [("session/open", {}, {}, opened)]
    for verb, params, filters in walk_steps(walk):
        status, payload = service.handle(
            verb, dict(params, token=opened["token"]))
        assert status == 200, payload
        answers.append((verb, params, filters, payload))
    return answers


def perturbations(verb, payload):
    """Copies of ``payload``, each with one number made wrong."""
    def report_of(answer):
        return answer if verb == "session/report" else answer.get("report")

    def copy():
        return json.loads(json.dumps(payload))

    out = []
    if report_of(payload) is not None:
        wrong = copy()
        report_of(wrong)["survivors"] += 1
        out.append(wrong)
        wrong = copy()
        if report_of(wrong)["ranges"]:
            report_of(wrong)["ranges"]["area"][0] -= 1.0
            out.append(wrong)
    if verb == "session/decide":
        wrong = copy()
        wrong["decided"]["survivors_before"] += 1
        out.append(wrong)
    if verb == "session/options":
        wrong = copy()
        wrong["options"][0]["candidates"] += 1
        out.append(wrong)
    return out


def test_walk_oracles_reject_perturbed_reports(records, layer):
    from repro.serve import DesignSpaceService
    table = CellTable(records)
    service = DesignSpaceService(layers={LAYER_NAME: layer},
                                 default_layer=LAYER_NAME)
    checked = set()
    try:
        for walk in [w for w, _ in zip(walks(7, 0), range(6))]:
            for verb, params, filters, payload in served_walk(service, walk):
                assert check_step(verb, payload, table, filters,
                                  params) is None, (verb, payload)
                for wrong in perturbations(verb, payload):
                    assert check_step(verb, wrong, table, filters,
                                      params) is not None, (verb, wrong)
                    checked.add(verb)
    finally:
        service.close()
    assert checked == {"session/open", "session/require", "session/decide",
                       "session/options", "session/report"}


def test_churn_oracle_rejects_reports_that_miss_the_mutation(records):
    from repro.serve import DesignSpaceService
    layer = build_layer(records)
    extra = churn_record(7, records)
    table = CellTable(records, extra)
    library = layer.libraries.library(LIBRARY_NAME)
    service = DesignSpaceService(layers={LAYER_NAME: layer},
                                 default_layer=LAYER_NAME)
    params = {"layer": LAYER_NAME, "start": ROOT}
    try:
        before = service.handle("session/open", params)[1]
        library.add(design_object(extra))
        added = service.handle("session/open", params)[1]
        library.remove(extra.name)
        removed = service.handle("session/open", params)[1]
    finally:
        service.close()
    assert added["report"]["survivors"] == len(records) + 1
    assert added["report"]["ranges"]["area"][0] == extra.area
    for payload, present in ((before, False), (added, True),
                             (removed, False)):
        assert check_step("session/open", payload, table, {}, {},
                          present) is None
        # The same answer read as if the mutation had not happened (or
        # had) is wrong.
        assert check_step("session/open", payload, table, {}, {},
                          not present) is not None


def run_bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "dslbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    from run import END_TO_END_UNITS
    from tracing import PER_LAYER
    data = spec()
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} \
        == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] \
        == [(name, unit, better)
            for name, (unit, better) in PER_LAYER.items()]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         ["explore-50k", "serve-fresh", "serve-churn"])
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     SMOKE_SECONDS, "--trace", trace, "--cores",
                     str(SMOKE_CORES))
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    detail = json.loads(lines[-2])["detail"]
    profile = subprocess.run(
        [sys.executable, "-m", "repro", "profile",
         os.path.join(REPO, detail["trace"]), "--json"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
    assert profile.returncode == 0, profile.stderr[-2000:]
    assert json.loads(profile.stdout)["spans"] == detail["spans"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "dslbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "explore-50k", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
