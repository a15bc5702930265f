"""Every rule: one tripping and one clean fixture.

The acceptance contract: the engine exits nonzero on each tripping
fixture *with the right rule id*, and stays silent on the matching
clean fixture — so a rule can neither rot into a no-op nor start
flagging sanctioned idioms.
"""

import pathlib

import pytest

from repro.analysis import Baseline, lint_paths, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: (fixture path relative to FIXTURES, rule id expected to fire)
TRIPPING = [
    ("det_random_bad.py", "DET-RANDOM"),
    ("simmpi/wallclock_bad.py", "DET-WALLCLOCK"),
    ("det_set_order_bad.py", "DET-SET-ORDER"),
    ("det_env_bad.py", "DET-ENV"),
    ("exc_broad_bad.py", "EXC-BROAD"),
    ("retry_bad", "EXC-RETRY"),
    ("schema_bad", "SCHEMA-RUN-KEY"),
    ("reg_protocol_bad.py", "REG-PROTOCOL"),
    ("evt_bad", "EVT-EXPORT"),
    ("suppress_malformed.py", "LINT-SUPPRESS"),
    ("suppress_unused.py", "LINT-UNUSED"),
    ("syntax_bad.py", "LINT-SYNTAX"),
]

#: (fixture path, rule id that must NOT fire there)
CLEAN = [
    ("det_random_good.py", "DET-RANDOM"),
    ("simmpi/wallclock_good.py", "DET-WALLCLOCK"),
    ("det_set_order_good.py", "DET-SET-ORDER"),
    ("det_env_good.py", "DET-ENV"),
    ("exc_broad_good.py", "EXC-BROAD"),
    ("retry_good", "EXC-RETRY"),
    ("schema_good", "SCHEMA-RUN-KEY"),
    ("reg_protocol_good.py", "REG-PROTOCOL"),
    ("evt_good", "EVT-EXPORT"),
    ("suppress_good.py", "LINT-SUPPRESS"),
]


def lint_fixture(relpath):
    return lint_paths([FIXTURES / relpath], baseline=Baseline())


@pytest.mark.parametrize("relpath, rule_id", TRIPPING)
def test_tripping_fixture_fires_the_rule(relpath, rule_id):
    report = lint_fixture(relpath)
    fired = {finding.rule for finding in report.findings}
    assert rule_id in fired, (relpath, report.findings)
    assert report.exit_code() == 1


@pytest.mark.parametrize("relpath, rule_id", TRIPPING)
def test_tripping_fixture_fails_through_the_cli(relpath, rule_id, capsys):
    code = main([str(FIXTURES / relpath), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert rule_id in out


@pytest.mark.parametrize("relpath, rule_id", CLEAN)
def test_clean_fixture_stays_silent(relpath, rule_id):
    report = lint_fixture(relpath)
    fired = {finding.rule for finding in report.findings}
    assert rule_id not in fired, (relpath, report.findings)


def test_clean_fixtures_are_fully_clean():
    # the clean fixtures must not trip *any* rule, not just their own
    # (e.g. the EXC-BROAD fixture must not leak a DET finding)
    for relpath, _ in CLEAN:
        report = lint_fixture(relpath)
        assert report.clean, (relpath, report.findings)
        assert report.exit_code() == 0


def test_findings_carry_location_and_snippet():
    report = lint_fixture("det_random_bad.py")
    finding = next(f for f in report.findings if f.rule == "DET-RANDOM")
    assert finding.line > 0
    assert finding.path.endswith("det_random_bad.py")
    assert "random" in finding.snippet
    assert ":%d:" % finding.line in finding.location()


def test_suppress_good_counts_suppressions():
    report = lint_fixture("suppress_good.py")
    assert report.clean
    assert report.suppressed == 2  # trailing + banner form


def test_schema_bad_names_the_new_field():
    report = lint_fixture("schema_bad")
    [finding] = [f for f in report.findings
                 if f.rule == "SCHEMA-RUN-KEY"]
    assert "extra_knob" in finding.message
    # a key config_to_dict adds counts as payload too
    assert "extra_key" in finding.message
    # ...and the legacy key it adds for the manifest is not reported
    assert "inject_fault" not in finding.message
    assert "bump" in finding.message.lower()


def test_reg_bad_distinguishes_missing_from_arity():
    report = lint_fixture("reg_protocol_bad.py")
    messages = [f.message for f in report.findings
                if f.rule == "REG-PROTOCOL"]
    assert len(messages) == 3
    assert any("MissingRunJob" in m and "no run_job()" in m
               for m in messages)
    assert any("WrongArity" in m and "3 positional" in m
               for m in messages)
    assert any("bad_renderer" in m for m in messages)


def test_evt_bad_names_the_ghost_event():
    report = lint_fixture("evt_bad")
    messages = [f.message for f in report.findings
                if f.rule == "EVT-EXPORT"]
    assert messages
    assert all("GhostEvent" in m for m in messages)
