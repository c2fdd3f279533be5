"""The three workloads: set-up, a measured closed loop, and write probes.

* ``explore-50k`` — one thread repeats serial branch-and-bound
  ``explore()`` over the generated layer with ``Width >= 16`` required.
* ``serve-fresh`` — the same layer behind a ``DesignSpaceServer`` on an
  ephemeral port; two client threads run seeded designer walks.
* ``serve-churn`` — the same walks in rounds; before each round, with no
  request in flight, the churn core is added to or removed from the
  reuse library.

Answers are logged during the measured phase and checked against the
oracles after it, so checking costs no measured time.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import ExplorationProblem
from repro.core.explore import explore
from repro.serve import DesignSpaceServer, DesignSpaceService, ServiceClient

from inputs import (
    EXPLORE_WIDTH,
    LAYER_NAME,
    LIBRARY_NAME,
    METRICS,
    ROOT,
    churn_record,
    design_object,
    build_layer,
    generate_records,
    walk_steps,
    walks,
)
from oracles import CellTable, check_frontier, check_step, pareto_front

#: Client threads of the serving workloads (the host has 2 CPUs).
CLIENTS = 2
#: Walks each client runs per churn round.
WALKS_PER_ROUND = 2

clock = time.perf_counter


@dataclass
class Phase:
    """What one measured phase observed."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Oracle mismatches (each also counted in ``failed``).
    mismatches: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: Mutation -> first completed operation, seconds.
    write_to_read: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, reason: str, mismatch: bool = False) -> None:
        self.failed += 1
        if mismatch:
            self.mismatches.append(reason)


class Workload:
    """Common shape: ``setup`` (timed by the caller), ``measure`` for a
    number of seconds, and ``teardown``."""

    name = ""
    #: Span name of one operation in the traced run.
    op_span = ""
    #: Write-probe pairs run before and again after the measured phase
    #: of the workloads that do not mutate while measuring.  Probing
    #: outside the phase keeps it free of rebuilds and cold caches;
    #: probing on both sides of it samples two moments of a host whose
    #: speed drifts.
    probe_pairs = 2

    def __init__(self, seed: int, cores: int) -> None:
        self.seed = seed
        self.records = generate_records(seed, cores)
        self.extra = churn_record(seed, self.records)
        self.layer = None
        #: Whether the churn core is in the library right now.
        self.extra_present = False
        #: Wrong answers seen outside measured phases (warm-up).
        self.setup_mismatches: List[str] = []

    @property
    def library(self):
        return self.layer.libraries.library(LIBRARY_NAME)

    def mutate(self) -> None:
        """Add the churn core, or remove it when it is present."""
        if self.extra_present:
            self.library.remove(self.extra.name)
        else:
            self.library.add(design_object(self.extra))
        self.extra_present = not self.extra_present

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        self.layer = None
        self.extra_present = False

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Run the closed loop for ``seconds``; ``tracer`` (the traced
        run) wraps each operation in a root span where the workload's
        own calls are not already wrapped."""
        raise NotImplementedError

    def write_probes(self, phase: Phase) -> None:
        """:attr:`probe_pairs` times: add the churn core and time the
        first operation after it, then remove it and time again, so the
        library ends as it began.  Probe operations are checked but are
        not latency samples.

        Each probe starts after a full, untimed garbage collection, so
        whether the collector's full pass over the heap (~0.1 s) falls
        inside a probe does not depend on the garbage earlier probes
        left behind."""
        raise NotImplementedError

    def invalidations(self) -> int:
        return 0


class ExploreWorkload(Workload):
    name = "explore-50k"
    op_span = "op.explore"

    def __init__(self, seed: int, cores: int) -> None:
        super().__init__(seed, cores)
        self.expected = pareto_front(self.records, EXPLORE_WIDTH)
        self.expected_extra = pareto_front(self.records + [self.extra],
                                           EXPLORE_WIDTH)
        self.problem = None

    def setup(self) -> None:
        self.layer = build_layer(self.records)
        self.layer.libraries.index()
        self.problem = ExplorationProblem(
            start=ROOT, metrics=METRICS,
            requirements={"Width": EXPLORE_WIDTH}, layer=self.layer)
        wrong = self.check(self.operation())
        if wrong:
            self.setup_mismatches.append(wrong)

    def teardown(self) -> None:
        super().teardown()
        self.problem = None

    def operation(self):
        return explore(self.problem, strategy="bnb")

    def check(self, result) -> Optional[str]:
        expected = self.expected_extra if self.extra_present \
            else self.expected
        return check_frontier([o.core for o in result.frontier.outcomes()],
                              expected)

    def _timed(self, phase: Phase, op: Callable, sample: bool = True
               ) -> float:
        """One explore call, checked; returns its completion time.
        ``sample`` adds its latency to the phase's latency samples."""
        phase.attempted += 1
        started = clock()
        try:
            result = op()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            phase.fail(f"explore raised {exc!r}")
            return clock()
        done = clock()
        if sample:
            phase.latencies.append(done - started)
        wrong = self.check(result)
        if wrong:
            phase.fail(wrong, mismatch=True)
        return done

    def measure(self, seconds: float, tracer=None) -> Phase:
        op = self.operation
        if tracer is not None:
            op = tracer.traced(self.op_span, op)
        phase = Phase()
        start = clock()
        deadline = start + seconds
        while self._timed(phase, op) < deadline:
            pass
        phase.elapsed = clock() - start
        return phase

    def write_probes(self, phase: Phase) -> None:
        for _ in range(2 * self.probe_pairs):
            gc.collect()
            mutated = clock()
            self.mutate()
            phase.write_to_read.append(
                self._timed(phase, self.operation, sample=False) - mutated)


@dataclass
class Answer:
    """One logged request of a walk, checked after the phase."""

    verb: str
    params: Dict[str, object]
    filters: Optional[Dict[str, object]]
    with_extra: bool
    status: Optional[int]
    body: bytes
    sent: float
    done: float


class ServeWorkload(Workload):
    name = "serve-fresh"
    op_span = "serve.http.request"
    #: Served probes varied about twice as much as explore probes, so
    #: their median takes twice the samples.
    probe_pairs = 4

    def __init__(self, seed: int, cores: int) -> None:
        super().__init__(seed, cores)
        self.table = CellTable(self.records, self.extra)
        self.streams = [walks(seed, client) for client in range(CLIENTS)]
        self.service = None
        self.server = None
        self.thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------
    def setup(self) -> None:
        self.layer = build_layer(self.records)
        self.layer.libraries.index()
        # Served under its own name: a layer served under another key
        # loses every session verb after session/open (see README.md).
        self.service = DesignSpaceService(layers={LAYER_NAME: self.layer},
                                          default_layer=LAYER_NAME)
        self.server = DesignSpaceServer(("127.0.0.1", 0), self.service,
                                        quiet=True)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="dslbench-server")
        self.thread.start()
        log: List[Answer] = []
        self.run_walk(ServiceClient(self.server.url),
                      next(walks(self.seed, -1)), log)
        self.setup_mismatches.extend(
            wrong for wrong in map(self.check, log) if wrong)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.service.close()
            self.thread.join()
        self.service = self.server = self.thread = None
        super().teardown()

    def invalidations(self) -> int:
        return self.service.manager(LAYER_NAME).generation

    # -- one walk -----------------------------------------------------
    def _request(self, client, verb: str, params: Dict[str, object],
                 filters: Optional[Dict[str, object]],
                 log: List[Answer]) -> Optional[Dict[str, object]]:
        sent = clock()
        try:
            status, body = client.request(verb, params)
        except OSError as exc:
            status, body = None, repr(exc).encode()
        log.append(Answer(verb, params, filters, self.extra_present,
                          status, body, sent, clock()))
        if status != 200:
            return None
        return {} if verb != "session/open" else json.loads(body)

    def run_walk(self, client, walk, log: List[Answer]) -> None:
        """open, require, decide Family, 1-3 decisions, options, report,
        close; stops at the first request that fails."""
        opened = self._request(client, "session/open",
                               {"layer": LAYER_NAME, "start": ROOT}, {}, log)
        if opened is None:
            return
        token = opened["token"]
        for verb, params, filters in walk_steps(walk):
            if self._request(client, verb, dict(params, token=token),
                             filters, log) is None:
                return

    def check(self, answer: Answer) -> Optional[str]:
        if answer.status != 200:
            return f"{answer.verb} -> {answer.status}: {answer.body[:200]!r}"
        return check_step(answer.verb, json.loads(answer.body), self.table,
                          answer.filters, answer.params, answer.with_extra)

    def _score(self, phase: Phase, log: List[Answer],
               sample: bool = True) -> None:
        """Oracle verdicts (and, with ``sample``, latencies) of a phase's
        answers."""
        for answer in log:
            phase.attempted += 1
            if sample:
                phase.latencies.append(answer.done - answer.sent)
            wrong = self.check(answer)
            if wrong:
                phase.fail(wrong, mismatch=answer.status == 200)

    # -- measured phase -----------------------------------------------
    def _client(self):
        return ServiceClient(self.server.url)

    def measure(self, seconds: float, tracer=None) -> Phase:
        clients = [self._client() for _ in range(CLIENTS)]
        logs: List[List[Answer]] = [[] for _ in range(CLIENTS)]
        go = threading.Barrier(CLIENTS + 1)
        deadline = [0.0]

        def loop(index: int) -> None:
            go.wait()
            while clock() < deadline[0]:
                self.run_walk(clients[index], next(self.streams[index]),
                              logs[index])

        threads = [threading.Thread(target=loop, args=(i,),
                                    name=f"dslbench-client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        start = clock()
        deadline[0] = start + seconds
        go.wait()
        for thread in threads:
            thread.join()
        phase = Phase(elapsed=clock() - start)
        for log in logs:
            self._score(phase, log)
        return phase

    def write_probes(self, phase: Phase) -> None:
        """The probe operation is a ``session/open`` (closed again)."""
        client = self._client()
        log: List[Answer] = []
        for _ in range(2 * self.probe_pairs):
            gc.collect()
            mutated = clock()
            self.mutate()
            opened = self._request(client, "session/open",
                                   {"layer": LAYER_NAME, "start": ROOT},
                                   {}, log)
            phase.write_to_read.append(log[-1].done - mutated)
            if opened is not None:
                self._request(client, "session/close",
                              {"token": opened["token"]}, None, log)
        self._score(phase, log, sample=False)


class ChurnWorkload(ServeWorkload):
    name = "serve-churn"

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Rounds until ``seconds`` have passed; every round samples
        ``write_to_read_ms``."""
        clients = [self._client() for _ in range(CLIENTS)]
        logs: List[List[Answer]] = [[] for _ in range(CLIENTS)]
        gate = threading.Barrier(CLIENTS + 1)
        stop = [False]

        def loop(index: int) -> None:
            while True:
                gate.wait()
                if stop[0]:
                    return
                for _ in range(WALKS_PER_ROUND):
                    self.run_walk(clients[index], next(self.streams[index]),
                                  logs[index])
                gate.wait()

        threads = [threading.Thread(target=loop, args=(i,),
                                    name=f"dslbench-client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        write_to_read = []
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            marks = [len(log) for log in logs]
            mutated = clock()
            self.mutate()
            gate.wait()
            gate.wait()
            firsts = [log[mark].done for log, mark in zip(logs, marks)
                      if len(log) > mark]
            if firsts:
                write_to_read.append(min(firsts) - mutated)
        elapsed = clock() - start
        stop[0] = True
        gate.wait()
        for thread in threads:
            thread.join()
        phase = Phase(elapsed=elapsed, write_to_read=write_to_read)
        for log in logs:
            self._score(phase, log)
        return phase

    def write_probes(self, phase: Phase) -> None:
        """Every round already samples ``write_to_read_ms``."""


WORKLOADS = {cls.name: cls for cls in
             (ExploreWorkload, ServeWorkload, ChurnWorkload)}
