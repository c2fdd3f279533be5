"""Independent oracles: expected answers computed from the generated
records alone.

Nothing here imports the program under test.  The Pareto oracle is a
sort-and-sweep over ``(area, latency)`` pairs; the walk oracle keeps one
aggregate per ``(family, Pipeline, Unroll, Banks, Width)`` cell and sums
cells, so a check costs a few hundred additions instead of a pass over
50k records.  Every ``check_*`` function returns ``None`` when the
answer is right and a one-line description of the first difference
otherwise.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from inputs import ISSUES, CoreRecord

Filters = Mapping[str, object]
#: count, area min, area max, latency min, latency max
Aggregate = Tuple[int, float, float, float, float]


def pareto_front(records: Iterable[CoreRecord], min_width: int) -> List[str]:
    """Sorted names of the cores with ``width >= min_width`` that no
    other such core strictly dominates on (area, latency).  Cores with
    equal merits are all kept (ties)."""
    points = sorted((r.area, r.latency_ns, r.name) for r in records
                    if r.width >= min_width)
    front: List[str] = []
    best_smaller_area = float("inf")
    for _, group in groupby(points, key=lambda p: p[0]):
        members = list(group)
        lowest = members[0][1]
        if lowest < best_smaller_area:
            front.extend(name for _, latency, name in members
                         if latency == lowest)
            best_smaller_area = lowest
    return sorted(front)


def check_frontier(names: Sequence[str], expected: Sequence[str]
                   ) -> Optional[str]:
    got = sorted(names)
    if got == list(expected):
        return None
    missing = sorted(set(expected) - set(got))[:3]
    extra = sorted(set(got) - set(expected))[:3]
    return (f"frontier has {len(got)} cores, oracle {len(expected)} "
            f"(missing {missing}, extra {extra})")


def _cell_key(record: CoreRecord) -> Tuple[str, int, int, int, int]:
    return (record.family, record.pipeline, record.unroll, record.banks,
            record.width)


def _merge(a: Optional[Aggregate], b: Aggregate) -> Aggregate:
    if a is None:
        return b
    return (a[0] + b[0], min(a[1], b[1]), max(a[2], b[2]),
            min(a[3], b[3]), max(a[4], b[4]))


class CellTable:
    """Per-cell aggregates of a record set, plus an optional extra core
    (the churn core) that callers switch in and out per query."""

    def __init__(self, records: Iterable[CoreRecord],
                 extra: Optional[CoreRecord] = None) -> None:
        self.cells: Dict[Tuple[str, int, int, int, int], Aggregate] = {}
        for record in records:
            key = _cell_key(record)
            self.cells[key] = _merge(self.cells.get(key), (
                1, record.area, record.area, record.latency_ns,
                record.latency_ns))
        self.extra = extra
        self._memo: Dict[tuple, Optional[Aggregate]] = {}

    @staticmethod
    def _matches(key: Tuple[str, int, int, int, int],
                 filters: Filters) -> bool:
        family, pipeline, unroll, banks, width = key
        if width < int(filters.get("width", 0)):  # type: ignore[arg-type]
            return False
        if "family" in filters and family != filters["family"]:
            return False
        values = {"Pipeline": pipeline, "Unroll": unroll, "Banks": banks}
        return all(values[issue] == filters[issue]
                   for issue in ISSUES if issue in filters)

    def aggregate(self, filters: Filters, with_extra: bool = False
                  ) -> Optional[Aggregate]:
        """Aggregate of the cores matching ``filters`` (``None`` when no
        core matches); memoized, since walks revisit states."""
        key = (tuple(sorted(filters.items())), with_extra)
        if key not in self._memo:
            self._memo[key] = self._aggregate(filters, with_extra)
        return self._memo[key]

    def _aggregate(self, filters: Filters, with_extra: bool
                   ) -> Optional[Aggregate]:
        total: Optional[Aggregate] = None
        for key, agg in self.cells.items():
            if self._matches(key, filters):
                total = _merge(total, agg)
        if with_extra and self.extra is not None \
                and self._matches(_cell_key(self.extra), filters):
            e = self.extra
            total = _merge(total, (1, e.area, e.area, e.latency_ns,
                                   e.latency_ns))
        return total

    def count(self, filters: Filters, with_extra: bool = False) -> int:
        agg = self.aggregate(filters, with_extra)
        return agg[0] if agg is not None else 0


def _expected_ranges(agg: Optional[Aggregate]) -> Dict[str, List[float]]:
    if agg is None:
        return {}
    return {"area": [agg[1], agg[2]], "latency_ns": [agg[3], agg[4]]}


def check_report(report: Mapping[str, object], table: CellTable,
                 filters: Filters, with_extra: bool = False
                 ) -> Optional[str]:
    """A served report: survivor count and area/latency ranges."""
    agg = table.aggregate(filters, with_extra)
    count = agg[0] if agg is not None else 0
    if report.get("survivors") != count:
        return (f"report survivors {report.get('survivors')} != oracle "
                f"{count} at {dict(filters)}")
    ranges = _expected_ranges(agg)
    if report.get("ranges") != ranges:
        return (f"report ranges {report.get('ranges')} != oracle {ranges} "
                f"at {dict(filters)}")
    return None


def _before(filters: Filters, issue: str) -> Dict[str, object]:
    before = dict(filters)
    before.pop("family" if issue == "Family" else issue, None)
    return before


def check_decide(payload: Mapping[str, object], table: CellTable,
                 filters: Filters, issue: str, with_extra: bool = False
                 ) -> Optional[str]:
    """A ``session/decide`` response: before/after counts and report."""
    decided = payload.get("decided") or {}
    before = table.count(_before(filters, issue), with_extra)
    after = table.count(filters, with_extra)
    got = (decided.get("survivors_before"), decided.get("survivors_after"),
           decided.get("eliminated"))
    if got != (before, after, before - after):
        return (f"decide {issue}: before/after/eliminated {got} != oracle "
                f"{(before, after, before - after)}")
    return check_report(payload.get("report") or {}, table, filters,
                        with_extra)


def check_options(payload: Mapping[str, object], table: CellTable,
                  filters: Filters, issue: str, with_extra: bool = False
                  ) -> Optional[str]:
    """A ``session/options`` response: one entry per option, with its
    candidate count and ranges given every other decision in force."""
    base = _before(filters, issue)
    options = payload.get("options") or []
    got_options = [entry.get("option") for entry in options]
    if got_options != list(ISSUES[issue]):
        return f"options of {issue}: {got_options} != {list(ISSUES[issue])}"
    for entry in options:
        state = dict(base, **{issue: entry["option"]})
        agg = table.aggregate(state, with_extra)
        count = agg[0] if agg is not None else 0
        if entry.get("eliminated") or entry.get("candidates") != count:
            return (f"option {issue}={entry['option']}: candidates "
                    f"{entry.get('candidates')} != oracle {count}")
        if entry.get("ranges") != _expected_ranges(agg):
            return (f"option {issue}={entry['option']}: ranges "
                    f"{entry.get('ranges')} != oracle "
                    f"{_expected_ranges(agg)}")
    return None


def check_step(verb: str, payload: Mapping[str, object], table: CellTable,
               filters: Optional[Filters], params: Mapping[str, object],
               with_extra: bool = False) -> Optional[str]:
    """Dispatch one walk response to its oracle."""
    if verb == "session/open":
        return check_report(payload.get("report") or {}, table, {},
                            with_extra)
    if verb == "session/require":
        return check_report(payload.get("report") or {}, table,
                            filters or {}, with_extra)
    if verb == "session/decide":
        return check_decide(payload, table, filters or {},
                            str(params["issue"]), with_extra)
    if verb == "session/options":
        return check_options(payload, table, filters or {},
                             str(params["issue"]), with_extra)
    if verb == "session/report":
        return check_report(payload, table, filters or {}, with_extra)
    if verb == "session/close":
        return None if payload.get("closed") is True else \
            f"close answered {payload}"
    return f"unexpected verb {verb}"

