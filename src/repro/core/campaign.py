"""Fault-injection campaigns: distributions, not just averages.

The paper reports five-run averages; a campaign runs many seeded
repetitions of one or more configurations and summarises the
distribution of recovery time and total time — useful for studying how
sensitive a design is to *where* the failure lands (early vs late in
the checkpoint stride, victim rank placement).

Campaigns are built and run through the :mod:`repro.api` facade
(:class:`repro.api.Campaign`, then :meth:`~repro.api.Session.campaigns`),
which executes through :mod:`repro.core.engine`: any campaign can fan
out across worker processes (``.jobs``), persist completed runs to a
resumable store (``.store``/``.resume``) and restrict itself to one
shard of the matrix (``.shard``) — with summaries bit-identical to the
serial path in every mode. The distribution classes here are its
result types.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .configs import config_from_dict
from ..errors import ConfigurationError


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-ish summary of one metric across a campaign."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def of(cls, values) -> "DistributionSummary":
        """Summarise a non-empty sample.

        ``std`` is the *population* standard deviation (ddof=0): the
        campaign's runs are the whole population of interest, not a
        sample from a larger one. A single value therefore yields
        ``std=0.0`` by construction — that is the documented n=1
        behaviour, not missing data. Zero values is the error case and
        raises :class:`ConfigurationError`, because summarising nothing
        would silently report a tight distribution that never ran.
        """
        values = list(values)
        if not values:
            raise ConfigurationError("cannot summarise zero samples")
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return cls(mean=mean, std=math.sqrt(var), minimum=min(values),
                   maximum=max(values), count=len(values))

    def __str__(self):
        return ("mean %.2f +- %.2f (min %.2f, max %.2f, n=%d)"
                % (self.mean, self.std, self.minimum, self.maximum,
                   self.count))


@dataclass
class CampaignResult:
    """All runs of one campaign plus derived summaries."""

    config_label: str
    runs: list = field(default_factory=list)

    def _metric(self, getter) -> DistributionSummary:
        return DistributionSummary.of(getter(r) for r in self.runs)

    @property
    def recovery(self) -> DistributionSummary:
        return self._metric(lambda r: r.breakdown.recovery_seconds)

    @property
    def total(self) -> DistributionSummary:
        return self._metric(lambda r: r.breakdown.total_seconds)

    @property
    def rework(self) -> DistributionSummary:
        """Application-time variation: dominated by re-executed work."""
        return self._metric(lambda r: r.breakdown.application_seconds)

    @property
    def faults_per_run(self) -> DistributionSummary:
        """Injected events per run — the scenario's realised intensity
        (fixed for single/independent draws, variable for Poisson)."""
        return self._metric(lambda r: len(r.fault_events))

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.runs)

    def victims(self) -> list:
        """(rank, iteration) of every injected failure, in run order."""
        return [(e.rank, e.iteration)
                for r in self.runs for e in r.fault_events]

    def node_fault_count(self) -> int:
        """Total whole-node failures injected across the campaign."""
        return sum(1 for r in self.runs for e in r.fault_events
                   if e.kind == "node")

    def report(self) -> str:
        lines = ["Campaign: %s (%d runs)" % (self.config_label,
                                             len(self.runs)),
                 "  recovery: %s" % self.recovery,
                 "  total:    %s" % self.total,
                 "  app+rework: %s" % self.rework,
                 "  faults/run: %s (node faults: %d)"
                 % (self.faults_per_run, self.node_fault_count()),
                 "  verified: %s" % self.all_verified]
        return "\n".join(lines)


def campaign_results_from_records(records: dict) -> dict:
    """Group result-store records into ``{label: CampaignResult}``.

    ``records`` is the ``{key: record}`` mapping produced by
    :meth:`repro.core.store.ResultStore.load_completed` or
    :func:`repro.core.store.merge_store_paths`. Grouping is by full
    canonical configuration (so two configs differing only in seed do
    not get mixed); runs are ordered by repetition index, matching the
    serial summarisation order bit-for-bit.
    """
    from .breakdown import try_run_result_from_dict

    if not records:
        raise ConfigurationError(
            "no completed runs to summarise (empty store merge)")
    grouped = {}
    skipped = 0
    for record in records.values():
        # tolerate what the engine's resume path tolerates: records from
        # foreign tools or old schemas that no longer deserialize — the
        # holes they leave surface via campaign-report --check-complete
        try:
            canonical = json.dumps(record["config"], sort_keys=True,
                                   separators=(",", ":"))
            entry = (int(record["rep"]),
                     config_from_dict(record["config"]),
                     try_run_result_from_dict(record["result"]))
        except (ConfigurationError, KeyError, TypeError, ValueError):
            skipped += 1
            continue
        if entry[2] is None:
            skipped += 1
            continue
        grouped.setdefault(canonical, []).append(entry)
    if not grouped:
        raise ConfigurationError(
            "no decodable campaign records to summarise "
            "(%d undecodable record(s) skipped)" % skipped)
    summaries = {}
    for canonical in sorted(grouped):
        group = sorted(grouped[canonical], key=lambda e: e[0])
        config = group[0][1]
        # plain label() so store-derived rows match live campaign rows
        label = config.label()
        if label in summaries:
            # label() omits nnodes/fti: never silently merge or drop
            # configs it cannot distinguish — suffix a content hash
            label += "/#" + hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()[:8]
        summaries[label] = CampaignResult(
            config_label=label, runs=[e[2] for e in group])
    return summaries
