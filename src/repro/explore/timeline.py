"""Phase timelines: where, in virtual time, a run's named phases live.

The exploration machinery needs to know *when* a checkpoint write or a
ULFM repair step happens before it can aim a fault at it. That timing
is a property of one exact configuration (app, scale, FTI level,
stride, design), so we measure it: a **probe run** executes the
configuration with no new faults while a :class:`PhaseRecorder` —
riding the runtime's phase-hook protocol — collects every
``enter``/``exit`` pair and runtime-level ``span`` as a
:class:`PhaseSpan`. :meth:`PhaseTimeline.build` then clusters the
per-rank spans of each anchor into :class:`PhaseWindow` occurrences
(cluster-by-overlap, the same episode logic ULFM accounting uses) and
numbers them in time order, giving schedules a stable coordinate
system: *"the second L1 checkpoint-write window"* is
``("ckpt.L1.write", 1)`` regardless of which ranks participated or how
long it lasted.

Probe runs are deterministic, so the timeline is too — it can be
serialized, diffed, and (crucially) re-derived bit-identically when a
frozen schedule is replayed from its run key.

Timelines can also be probed *with a fault prefix*: to anchor a second
fault inside the recovery triggered by a first, the probe replays the
first fault (as exact-time events) and records the recovery phases it
provokes, exposing ``ulfm.shrink`` or ``restart.redeploy`` windows that
a fault-free run does not have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass(frozen=True)
class PhaseSpan:
    """One rank's stay inside one phase (raw recorder output)."""

    anchor: str
    rank: int
    start: float
    end: float
    epoch: int = 0


@dataclass(frozen=True)
class PhaseWindow:
    """One numbered occurrence of a phase across participating ranks.

    ``occurrence`` counts this anchor's windows job-wide in
    ``(epoch, start)`` order, starting at 0; ``ranks`` is the sorted
    tuple of participants (``-1`` alone for runtime-level spans).
    """

    anchor: str
    occurrence: int
    start: float
    end: float
    ranks: tuple
    epoch: int = 0

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)

    def to_dict(self) -> dict:
        return {"anchor": self.anchor, "occurrence": self.occurrence,
                "start": self.start, "end": self.end,
                "ranks": list(self.ranks), "epoch": self.epoch}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseWindow":
        return cls(anchor=data["anchor"], occurrence=data["occurrence"],
                   start=data["start"], end=data["end"],
                   ranks=tuple(data["ranks"]), epoch=data.get("epoch", 0))


class PhaseRecorder:
    """Phase hook that accumulates :class:`PhaseSpan` records.

    ``enter``/``exit`` pairs are matched per ``(rank, anchor)`` —
    phases of one rank never nest under the same anchor, and the
    runtime resumes exactly one rank at a time, so a simple pending
    slot suffices. A rank killed *inside* a phase leaves its pending
    entry unmatched; the half-open stay is dropped (the window is
    defined by the ranks that completed the phase).
    """

    def __init__(self):
        self.spans: list = []
        self._pending: dict = {}
        self._epoch = 0
        self.last_iteration = -1

    # -- phase-hook protocol -------------------------------------------------
    def iteration(self, rank: int, i: int, now: float) -> None:
        self.last_iteration = max(self.last_iteration, i)

    def enter(self, rank: int, anchor: str, now: float) -> None:
        self._pending[(rank, anchor)] = (now, self._epoch)

    def exit(self, rank: int, anchor: str, now: float) -> None:
        started = self._pending.pop((rank, anchor), None)
        if started is not None:
            start, epoch = started
            self.spans.append(PhaseSpan(anchor, rank, start, now, epoch))

    def span(self, rank: int, anchor: str, start: float, end: float) -> None:
        self.spans.append(PhaseSpan(anchor, rank, start, end, self._epoch))

    def epoch(self, n: int) -> None:
        self._epoch = n
        self._pending.clear()  # the old incarnation's ranks are gone


@dataclass(frozen=True)
class PhaseTimeline:
    """The numbered phase windows of one probed configuration."""

    windows: tuple = ()

    @classmethod
    def build(cls, recorder: PhaseRecorder) -> "PhaseTimeline":
        """Cluster recorded spans into numbered windows.

        Spans of one ``(epoch, anchor)`` are clustered by time overlap
        (two occurrences of the same phase never overlap: the job
        serializes checkpoint rounds and repair waves), then all
        clusters of an anchor are numbered job-wide in
        ``(epoch, start)`` order.
        """
        groups: dict = {}
        for span in recorder.spans:
            groups.setdefault((span.epoch, span.anchor), []).append(span)
        clusters: dict = {}
        for (epoch, anchor), spans in sorted(
                groups.items(), key=lambda item: item[0]):
            spans.sort(key=lambda s: (s.start, s.end, s.rank))
            current = [spans[0]]
            cluster_end = spans[0].end
            for span in spans[1:]:
                if span.start > cluster_end:
                    clusters.setdefault(anchor, []).append((epoch, current))
                    current = [span]
                else:
                    current.append(span)
                cluster_end = max(cluster_end, span.end)
            clusters.setdefault(anchor, []).append((epoch, current))
        windows = []
        for anchor in sorted(clusters):
            numbered = sorted(
                clusters[anchor],
                key=lambda item: (item[0], min(s.start for s in item[1])))
            for occurrence, (epoch, spans) in enumerate(numbered):
                windows.append(PhaseWindow(
                    anchor=anchor,
                    occurrence=occurrence,
                    start=min(s.start for s in spans),
                    end=max(s.end for s in spans),
                    ranks=tuple(sorted({s.rank for s in spans})),
                    epoch=epoch))
        windows.sort(key=lambda w: (w.epoch, w.start, w.anchor))
        return cls(windows=tuple(windows))

    # -- lookup --------------------------------------------------------------
    def anchors(self) -> tuple:
        """The anchor catalog: sorted unique anchor names."""
        return tuple(sorted({w.anchor for w in self.windows}))

    def occurrences(self, anchor: str) -> tuple:
        """This anchor's windows in occurrence order."""
        return tuple(sorted((w for w in self.windows if w.anchor == anchor),
                            key=lambda w: w.occurrence))

    def resolve(self, anchor: str, occurrence: int = 0) -> PhaseWindow:
        """The window for ``(anchor, occurrence)``; raises with the full
        catalog when the coordinate does not exist."""
        for window in self.windows:
            if window.anchor == anchor and window.occurrence == occurrence:
                return window
        have = ["%s~%d" % (w.anchor, w.occurrence) for w in self.windows]
        raise ConfigurationError(
            "phase %r occurrence %d not in the probed timeline "
            "(have: %s)" % (anchor, occurrence, ", ".join(have) or "none"))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {"windows": [w.to_dict() for w in self.windows]}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseTimeline":
        return cls(windows=tuple(
            PhaseWindow.from_dict(w) for w in data.get("windows", ())))


def probe_timeline(config, prefix_events=()):
    """Measure ``config``'s phase timeline with a probe run.

    ``prefix_events`` — already-lowered :class:`TimedFault` events — are
    replayed during the probe so recovery phases *caused by* those
    events appear in the timeline; an empty prefix probes the clean run.
    Returns ``(timeline, run_result)``.
    """
    from ..core.engine import run_config
    from ..faults.plans import TimedFaultPlan

    recorder = PhaseRecorder()
    plan = TimedFaultPlan(events=tuple(prefix_events), phase_hook=recorder)
    result = run_config(config, plan, config.label() + "/probe")
    return PhaseTimeline.build(recorder), result


__all__ = ["PhaseRecorder", "PhaseSpan", "PhaseTimeline", "PhaseWindow",
           "probe_timeline"]
