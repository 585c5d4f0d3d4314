"""Timeline tracing: record spans per lane, compute utilization and bubbles.

The pipeline figures of the paper (Fig. 2, Fig. 3) are timeline diagrams;
this module is their machine-readable counterpart. Each pipeline stage /
link / GPU gets a *lane*, processes record ``(start, end, label)`` spans,
and the analysis helpers answer the questions the paper asks of the
schedules: how big are the bubbles, what fraction of the makespan is each
stage busy, do two spans on one lane ever overlap (which would indicate a
broken schedule).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import repeat

__all__ = ["Span", "Timeline"]


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """A half-open interval ``[start, end)`` of activity on one lane.

    Slotted: a full-detail serving timeline holds one per decode step.
    """

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("span ends before it starts")

    @property
    def duration(self) -> float:
        """Length of the span."""
        return self.end - self.start


class Timeline:
    """Spans grouped by lane, kept sorted by start time."""

    def __init__(self) -> None:
        self._lanes: dict[str, list[Span]] = {}
        self._instants: dict[str, list[tuple[float, str]]] = {}

    def record(self, lane: str, start: float, end: float, label: str = "") -> Span:
        """Add a span to ``lane`` and return it."""
        span = Span(start, end, label)
        spans = self._lanes.setdefault(lane, [])
        # Simulators append in time order; skip insort's O(log n)
        # dataclass comparisons (equivalent to insort at the end).
        if not spans or not span < spans[-1]:
            spans.append(span)
        else:
            insort(spans, span)
        return span

    def record_run(self, lane: str, start: float, ends: list[float],
                   label: str = "") -> None:
        """Add back-to-back spans ``[start, ends[0])``, ``[ends[0],
        ends[1])``, ... to ``lane``, all labelled ``label`` — the same
        spans, in the same order, as one :meth:`record` per step.

        A decode stretch recorded at full detail is such a run; one call
        skips the per-step lookup and ordering checks.
        """
        if not ends:
            return
        starts = [start]
        starts += ends[:-1]
        run = list(map(Span, starts, ends, repeat(label)))
        spans = self._lanes.setdefault(lane, [])
        # Back-to-back spans are already sorted, so a run that starts at
        # or after the lane's last span appends whole.
        if spans and run[0] < spans[-1]:
            for span in run:
                insort(spans, span)
        else:
            spans += run

    def record_instant(self, lane: str, t: float, label: str = "") -> None:
        """Mark a point event on ``lane`` (a scheduler decision, an
        arrival) — exported as a Chrome *instant* event, not a span, so
        it never affects busy time or overlap checks."""
        item = (t, label)
        instants = self._instants.setdefault(lane, [])
        if not instants or not item < instants[-1]:
            instants.append(item)
        else:
            insort(instants, item)

    def instants(self, lane: str) -> list[tuple[float, str]]:
        """Point events of one lane, ordered by time."""
        return list(self._instants.get(lane, []))

    def merge(self, other: "Timeline", *, prefix: str = "") -> "Timeline":
        """Copy every span and instant of ``other`` into this timeline,
        prefixing its lane names with ``prefix``.

        Builds multi-server views: the fleet layer merges one timeline
        per replica under ``replica{i}/`` prefixes into a single
        chrome-trace export. Returns ``self`` for chaining.
        """
        # A new lane takes the source's already-sorted items in one
        # extend (spans are immutable, so sharing them is safe); only a
        # lane that already holds items needs the ordered inserts.
        for lane, spans in other._lanes.items():
            dest = self._lanes.setdefault(prefix + lane, [])
            if dest:
                for s in spans:
                    self.record(prefix + lane, s.start, s.end, s.label)
            else:
                dest.extend(spans)
        for lane, instants in other._instants.items():
            dest = self._instants.setdefault(prefix + lane, [])
            if dest:
                for t, label in instants:
                    self.record_instant(prefix + lane, t, label)
            else:
                dest.extend(instants)
        return self

    def lanes(self) -> list[str]:
        """Lane names in insertion-independent (sorted) order."""
        return sorted(self._lanes)

    def spans(self, lane: str) -> list[Span]:
        """Spans of one lane, ordered by start."""
        return list(self._lanes.get(lane, []))

    def makespan(self) -> float:
        """End of the last span across all lanes (0.0 when empty)."""
        ends = [s.end for spans in self._lanes.values() for s in spans]
        return max(ends, default=0.0)

    def busy_time(self, lane: str) -> float:
        """Total busy time of a lane, merging any overlapping spans."""
        spans = self._lanes.get(lane, [])
        total = 0.0
        cur_start = cur_end = None
        for s in spans:
            if cur_end is None or s.start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = s.start, s.end
            else:
                cur_end = max(cur_end, s.end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def utilization(self, lane: str, horizon: float | None = None) -> float:
        """Busy fraction of ``lane`` over ``horizon`` (default: makespan)."""
        horizon = self.makespan() if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time(lane) / horizon)

    def bubble_time(self, lane: str, horizon: float | None = None) -> float:
        """Idle time of ``lane`` within the horizon — the pipeline bubble."""
        horizon = self.makespan() if horizon is None else horizon
        return max(0.0, horizon - self.busy_time(lane))

    def has_overlap(self, lane: str) -> bool:
        """True if two spans on ``lane`` overlap (schedule validity check)."""
        spans = self._lanes.get(lane, [])
        for a, b in zip(spans, spans[1:]):
            if b.start < a.end - 1e-15:
                return True
        return False

    def to_rows(self) -> list[tuple[str, float, float, str]]:
        """Flatten to (lane, start, end, label) rows for reporting."""
        return [
            (lane, s.start, s.end, s.label)
            for lane in self.lanes()
            for s in self._lanes[lane]
        ]

    def to_chrome_trace(self, *, time_unit: float = 1e-6) -> list[dict]:
        """Export as Chrome ``chrome://tracing`` / Perfetto JSON events.

        ``time_unit`` converts simulated seconds to trace microseconds
        (default: seconds -> us). Load the JSON list under a
        ``{"traceEvents": [...]}`` wrapper.
        """
        if time_unit <= 0:
            raise ValueError("time_unit must be positive")
        events = []
        lane_order = sorted(set(self._lanes) | set(self._instants))
        for pid, lane in enumerate(lane_order):
            for s in self._lanes.get(lane, []):
                events.append(
                    {
                        "name": s.label or lane,
                        "cat": "sim",
                        "ph": "X",  # complete event
                        "ts": s.start / time_unit,
                        "dur": s.duration / time_unit,
                        "pid": 0,
                        "tid": pid,
                        "args": {"lane": lane},
                    }
                )
            for t, label in self._instants.get(lane, []):
                events.append(
                    {
                        "name": label or lane,
                        "cat": "sim",
                        "ph": "i",  # instant event
                        "ts": t / time_unit,
                        "s": "t",  # thread-scoped marker
                        "pid": 0,
                        "tid": pid,
                        "args": {"lane": lane},
                    }
                )
        return events
