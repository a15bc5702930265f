"""Fault-injection campaigns and distribution summaries."""

import pytest

from repro.api import Campaign, check_campaign
from repro.core.campaign import CampaignResult, DistributionSummary
from repro.core.configs import ExperimentConfig
from repro.errors import ConfigurationError


def small_config(**kwargs):
    defaults = dict(app="minivite", design="reinit-fti", nprocs=8,
                    nnodes=4, faults="single")
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def campaign_result(config, runs):
    """One config's distribution campaign through the facade."""
    check_campaign([config], runs)
    session = Campaign.from_configs([config]).reps(runs).run()
    return session.campaigns()[config.label()]


def test_distribution_summary_basics():
    s = DistributionSummary.of([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.minimum == 1.0 and s.maximum == 3.0
    assert s.count == 3
    assert s.std == pytest.approx((2.0 / 3.0) ** 0.5)
    assert "n=3" in str(s)


def test_distribution_summary_empty_rejected():
    with pytest.raises(ConfigurationError):
        DistributionSummary.of([])


def test_distribution_summary_single_sample():
    """Documented n=1 behaviour: population variance (ddof=0) makes a
    single sample report std=0.0 — the n= count in the report is the
    signal that the spread is vacuous, not measured."""
    s = DistributionSummary.of([4.2])
    assert s.count == 1
    assert s.std == 0.0
    assert s.mean == s.minimum == s.maximum == 4.2
    assert "n=1" in str(s)
    assert "ddof=0" in DistributionSummary.of.__func__.__doc__ or \
        "population" in DistributionSummary.of.__func__.__doc__


def test_campaign_runs_and_verifies():
    result = campaign_result(small_config(), runs=5)
    assert len(result.runs) == 5
    assert result.all_verified
    assert result.recovery.count == 5
    assert result.recovery.minimum > 0
    assert result.total.mean > result.rework.mean


def test_campaign_victims_are_varied():
    result = campaign_result(small_config(), runs=8)
    assert len(set(result.victims())) > 1


def test_campaign_requires_fault_injection():
    with pytest.raises(ConfigurationError):
        campaign_result(small_config(faults="none"), runs=5)
    with pytest.raises(ConfigurationError):
        campaign_result(small_config(), runs=1)


def test_campaign_report_mentions_metrics():
    result = campaign_result(small_config(), runs=3)
    text = result.report()
    assert "recovery" in text
    assert "verified: True" in text
    assert "3 runs" in text


def test_reinit_recovery_distribution_is_tight():
    """Reinit's recovery cost barely depends on where the failure lands."""
    result = campaign_result(small_config(design="reinit-fti"), runs=6)
    assert result.recovery.std < 0.05 * result.recovery.mean


def test_total_time_varies_with_failure_position():
    """Rework depends on how far past a checkpoint the failure hits, so
    total time must spread more than recovery does."""
    result = campaign_result(small_config(design="reinit-fti"), runs=10)
    assert result.total.std > result.recovery.std
