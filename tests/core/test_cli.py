"""CLI: argument parsing and command output."""

import pytest

from repro.cli import build_parser, main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out
    assert "minivite" in out


def test_run_command(capsys):
    code = main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--reps", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified: True" in out
    assert "total=" in out


def test_run_command_with_fault(capsys):
    code = main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--faults", "single", "--reps", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified: True" in out
    assert "faults: r" in out  # the injected (rank, iteration) is shown


def test_run_command_with_scenario(capsys):
    code = main(["run", "--app", "minivite", "--design", "ulfm-fti",
                 "--nprocs", "8", "--faults", "independent:2:node=1",
                 "--fti-level", "2", "--reps", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault=kx2+n1" in out
    assert "verified: True" in out
    assert "(node)" in out


def test_run_fault_flag_was_removed(capsys):
    """2.0 dropped the 1.x ``run --fault`` switch for ``--faults single``."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--app", "minivite", "--design", "reinit-fti",
              "--nprocs", "8", "--reps", "1", "--fault"])
    assert exc.value.code == 2
    assert "--faults" in capsys.readouterr().err


def test_run_command_rejects_bad_scenario(capsys):
    code = main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--faults", "meteor:3", "--reps", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_campaign_with_scenario(capsys):
    code = main(["campaign", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--nnodes", "4", "--runs", "2",
                 "--faults", "poisson:12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault=poisson12" in out
    assert "faults/run:" in out
    assert "executed 2 run(s)" in out


def test_figure_command_unknown_id(capsys):
    assert main(["figure", "--id", "99"]) == 2


def test_parser_rejects_bad_design():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--app", "x", "--design", "bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


CAMPAIGN_ARGS = ["--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--nnodes", "4", "--runs", "2"]


def test_campaign_command_with_store_and_report(tmp_path, capsys):
    store = str(tmp_path / "sweep.jsonl")
    code = main(["campaign"] + CAMPAIGN_ARGS + ["--store", store])
    assert code == 0
    out = capsys.readouterr().out
    assert "executed 2 run(s)" in out

    # resume executes nothing
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--store", store, "--resume"]) == 0
    assert "executed 0 run(s)" in capsys.readouterr().out

    # the store satisfies a completeness check for its own matrix
    assert main(["campaign-report", "--store", store, "--check-complete"]
                + CAMPAIGN_ARGS) == 0
    assert "complete: all 2 matrix runs" in capsys.readouterr().out


def test_campaign_progress_streams_events(capsys):
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--progress"]) == 0
    out = capsys.readouterr().out
    assert "[1/2] done" in out
    assert "[2/2] done" in out
    assert "rep 1" in out


def test_campaign_report_format_renderers(tmp_path, capsys):
    store = str(tmp_path / "sweep.jsonl")
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--store", store]) == 0
    capsys.readouterr()
    assert main(["campaign-report", "--store", store,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,runs,")
    assert main(["campaign-report", "--store", store,
                 "--format", "report"]) == 0
    assert "recovery:" in capsys.readouterr().out
    assert main(["campaign-report", "--store", store,
                 "--format", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown report renderer" in err and "matrix" in err


def test_campaign_report_accepts_backend_spec(tmp_path, capsys):
    """The same backend:location --store spec works on both the sweep
    and report sides."""
    store = str(tmp_path / "sweep.jsonl")
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--store", "jsonl:" + store]) == 0
    capsys.readouterr()
    assert main(["campaign-report", "--store", "jsonl:" + store]) == 0
    assert "Merged campaign stores" in capsys.readouterr().out


def test_campaign_report_detects_missing_runs(tmp_path, capsys):
    store = tmp_path / "sweep.jsonl"
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--store", str(store)]) == 0
    lines = store.read_text().splitlines()
    store.write_text(lines[0] + "\n")
    assert main(["campaign-report", "--store", str(store),
                 "--check-complete"] + CAMPAIGN_ARGS) == 1
    captured = capsys.readouterr()
    assert "INCOMPLETE" in captured.err


def test_campaign_rejects_single_run(capsys):
    assert main(["campaign", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--nnodes", "4", "--runs", "1"]) == 2
    assert "at least two runs" in capsys.readouterr().err


def test_campaign_rejects_bad_shard_spec(capsys):
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--shard", "9/2"]) == 2
    assert "shard" in capsys.readouterr().err


def test_campaign_rejects_shard_selecting_nothing(capsys):
    # 2 runs round-robined over 3 shards leaves shard 3/3 empty; a CI
    # job with that typo must fail, not pass green having run nothing
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--shard", "3/3"]) == 2
    assert "zero" in capsys.readouterr().err


def test_campaign_report_counts_undecodable_records_as_missing(tmp_path,
                                                               capsys):
    import json

    store = tmp_path / "s.jsonl"
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--store", str(store)]) == 0
    lines = store.read_text().splitlines()
    record = json.loads(lines[1])
    record["result"] = {"v": 1}  # decodable JSON, broken payload
    store.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["campaign-report", "--store", str(store),
                 "--check-complete"] + CAMPAIGN_ARGS) == 1
    assert "INCOMPLETE" in capsys.readouterr().err


def test_campaign_rejects_unknown_design(capsys):
    assert main(["campaign", "--app", "minivite", "--design", "bogus",
                 "--runs", "2"]) == 2
    assert "unknown design" in capsys.readouterr().err


def test_campaign_report_check_complete_needs_matrix(tmp_path, capsys):
    store = tmp_path / "s.jsonl"
    assert main(["campaign"] + CAMPAIGN_ARGS + ["--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["campaign-report", "--store", str(store),
                 "--check-complete"]) == 2
    # a partial flag set (no --nprocs/--runs) would silently check the
    # wrong matrix via defaults and report a false INCOMPLETE
    assert main(["campaign-report", "--store", str(store),
                 "--check-complete", "--app", "minivite",
                 "--design", "reinit-fti"]) == 2
    assert "matrix flags" in capsys.readouterr().err


# -- the modeling commands ---------------------------------------------------
def test_advise_command_prints_ranked_table(capsys):
    code = main(["advise", "--app", "hpccg", "--nprocs", "512",
                 "--mtbf", "4h"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "design" in lines[1] and "interval" in lines[1]
    assert lines[2].startswith("1 ")            # rank column
    assert "reinit-fti" in out
    assert "model time" in out


def test_advise_command_objectives_and_levels(capsys):
    code = main(["advise", "--app", "hpccg", "--nprocs", "64",
                 "--mtbf", "30m", "--levels", "1,2",
                 "--objective", "recovery", "--design", "all"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 7  # 3 designs x 2 levels + header lines


def test_advise_command_rejects_bad_mtbf(capsys):
    assert main(["advise", "--app", "hpccg", "--mtbf", "soon"]) == 2
    assert "MTBF" in capsys.readouterr().err


def test_model_validate_command_small_campaign(capsys):
    code = main(["model-validate", "--app", "minivite", "--nprocs", "8",
                 "--nnodes", "4", "--faults", "poisson:6", "--runs", "2",
                 "--budget", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "within budget" in out
    assert "REINIT-FTI" in out


def test_model_validate_command_fails_over_budget(capsys):
    code = main(["model-validate", "--app", "minivite", "--nprocs", "8",
                 "--nnodes", "4", "--faults", "poisson:6", "--runs", "2",
                 "--budget", "0.0001"])
    assert code == 1
    assert "BUDGET EXCEEDED" in capsys.readouterr().out


def test_campaign_estimate_prints_preflight_costs(capsys):
    code = main(["campaign", "--app", "minivite", "--design",
                 "reinit-fti", "--nprocs", "8", "--nnodes", "4",
                 "--runs", "2", "--estimate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pre-flight estimate" in out
    assert "predicted virtual cost" in out
    assert "E[T]=" in out
    # the campaign itself still ran after the estimate
    assert "executed 2 run(s)" in out


def test_run_command_accepts_interval(capsys):
    code = main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--reps", "1", "--interval", "4"])
    assert code == 0
    assert "total=" in capsys.readouterr().out


def test_run_command_accepts_auto_interval(capsys):
    code = main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--reps", "1", "--faults", "poisson:6",
                 "--interval", "auto"])
    assert code == 0
    assert "verified: True" in capsys.readouterr().out


def test_interval_flag_rejects_junk(capsys):
    assert main(["run", "--app", "minivite", "--design", "reinit-fti",
                 "--nprocs", "8", "--interval", "soon"]) == 2
    assert "--interval" in capsys.readouterr().err


def test_campaign_on_error_continue_partial_failure_exits_1(
        tmp_path, monkeypatch, capsys):
    """A poisoned campaign under --on-error continue finishes, records
    the failures in the store, and exits 1 (partial failure)."""
    import json

    from repro.core.store import ResultStore

    monkeypatch.setenv("MATCH_CHAOS", json.dumps({
        "dir": str(tmp_path / "state"),
        "rules": [{"mode": "error", "match": "*", "times": -1}],
    }))
    store = str(tmp_path / "sweep.jsonl")
    code = main(["campaign"] + CAMPAIGN_ARGS
                + ["--store", store, "--jobs", "2",
                   "--on-error", "continue", "--progress"])
    assert code == 1
    captured = capsys.readouterr()
    assert "2 failure(s)" in captured.out
    assert "FAIL" in captured.out
    assert "ChaosError" in captured.err
    assert len(ResultStore(store).load_failures()) == 2

    # after the "fix" (chaos off), --resume re-runs the failed units
    monkeypatch.delenv("MATCH_CHAOS")
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--store", store, "--jobs", "2", "--resume"]) == 0
    assert "executed 2 run(s)" in capsys.readouterr().out
    assert ResultStore(store).load_failures() == {}


def test_campaign_rejects_bad_failure_policy_flags(capsys):
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--on-error", "explode"]) == 2
    assert "--on-error" in capsys.readouterr().err
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--timeout", "soon"]) == 2
    assert "--timeout" in capsys.readouterr().err
    assert main(["campaign"] + CAMPAIGN_ARGS
                + ["--retries", "-1"]) == 2


def test_campaign_accepts_retry_policy_and_timeout_auto(capsys):
    code = main(["campaign"] + CAMPAIGN_ARGS
                + ["--on-error", "retry:2", "--timeout", "auto",
                   "--sim-watchdog", "100000000"])
    assert code == 0
    assert "0 failure(s)" in capsys.readouterr().out
