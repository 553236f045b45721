"""tools/tier1_gate.py: which JUnit reports pass the tier-1 gate."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
_SPEC = importlib.util.spec_from_file_location("tier1_gate", _PATH)
tier1_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1_gate)

RED = ('<testcase classname="tests.test_acceptance" name="test_criterion_06_zeno_slowdown">'
       '<failure message="assert 0.004639977637962073 &lt;= (2.0 * 0.002)">traceback</failure></testcase>')
KNOWN_RED_LINE = ("known red tests.test_acceptance::test_criterion_06_zeno_slowdown: "
                  "assert 0.004639977637962073 <= (2.0 * 0.002)")
GREEN = '<testcase classname="tests.test_acceptance" name="test_criterion_06_zeno_slowdown"/>'
PASSED = '<testcase classname="tests.test_fit" name="test_a"/>'


@pytest.mark.parametrize("cases, code", [
    ([RED, PASSED], 0),
    ([GREEN, PASSED], 1),
    ([PASSED], 1),
    ([RED, '<testcase classname="tests.test_fit" name="test_a"><failure/></testcase>'], 1),
    ([RED, '<testcase classname="" name="tests.test_fit"><error/></testcase>'], 1),
    ([RED, '<testcase classname="tests.test_fit" name="test_a"><skipped type="pytest.xfail"/></testcase>'], 1),
], ids=["only-the-known-red", "known-red-passes", "known-red-missing", "another-failure",
        "collection-error", "xfail"])
def test_only_the_known_red_may_fail(tmp_path, capsys, cases, code):
    report = tmp_path / "tier1.xml"
    report.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    assert tier1_gate.main([str(report)]) == code
    assert capsys.readouterr().out


@pytest.mark.parametrize("body", [None, "<testsuites>"], ids=["missing", "truncated"])
def test_an_unreadable_report_fails(tmp_path, body):
    report = tmp_path / "tier1.xml"
    if body is not None:
        report.write_text(body)
    assert tier1_gate.main([str(report)]) == 1


@pytest.mark.parametrize("cases, code", [
    ([RED, PASSED], 0),
    ([RED, '<testcase classname="tests.test_fit" name="test_a"><failure message="other"/></testcase>'], 1),
], ids=["only-the-known-red", "another-failure"])
def test_the_known_red_message_is_printed_whenever_it_fails(tmp_path, capsys, cases, code):
    report = tmp_path / "tier1.xml"
    report.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    assert tier1_gate.main([str(report)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == KNOWN_RED_LINE and "other" not in lines[0]


@pytest.mark.parametrize("element", ["<failure/>", "<error/>"])
def test_a_known_red_without_a_message_is_named(tmp_path, capsys, element):
    # without its message the red cannot show that it missed its own bound, so the gate fails
    report = tmp_path / "tier1.xml"
    report.write_text('<testsuites><testsuite name="pytest"><testcase classname="tests.test_acceptance" '
                      f'name="test_criterion_06_zeno_slowdown">{element}</testcase></testsuite></testsuites>')
    assert tier1_gate.main([str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "known red tests.test_acceptance::test_criterion_06_zeno_slowdown: (no message)")


def red_case(element, message):
    return ('<testcase classname="tests.test_acceptance" name="test_criterion_06_zeno_slowdown">'
            f'<{element} message="{message}">traceback</{element}></testcase>')


@pytest.mark.parametrize("case, code", [
    (red_case("failure", "assert 0.004639977637962732 &lt;= (2.0 * 0.002)"), 0),
    (red_case("failure", "assert 0.00463998 &lt;= (2.0 * 0.002)"), 0),
    (red_case("error", "assert 0.004639977637962073 &lt;= (2.0 * 0.002)"), 1),
    (red_case("error", "numpy.linalg.LinAlgError: steady-state residual 1e-09 exceeds 1e-10"), 1),
    (red_case("failure", "assert False"), 1),
    (red_case("failure", "assert 0.004639977637962073 &lt;= 0.004"), 1),
    (red_case("failure", "assert 0.004639985 &lt;= (2.0 * 0.002)"), 1),
    (red_case("failure", "assert 0.0046 &lt;= (2.0 * 0.002)"), 1),
    (red_case("failure", "assert 0.0051 &lt;= (2.0 * 0.002)"), 1),
    (red_case("failure", "assert (2.0 * 0.002) &lt;= (2.0 * 0.002)"), 1),
], ids=["rounded", "within-1e-6", "error", "crash", "another-assertion", "another-bound", "just-outside",
        "far-below", "far-above", "no-rate"])
def test_the_known_red_must_fail_for_its_own_reason(tmp_path, capsys, case, code):
    report = tmp_path / "tier1.xml"
    report.write_text(f'<testsuites><testsuite name="pytest">{case}{PASSED}</testsuite></testsuites>')
    assert tier1_gate.main([str(report)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("known red tests.test_acceptance::test_criterion_06_zeno_slowdown: ")
    assert ("known red failed for another reason" in lines[-1]) == bool(code)


def test_a_passing_known_red_prints_no_message(tmp_path, capsys):
    report = tmp_path / "tier1.xml"
    report.write_text(f'<testsuites><testsuite name="pytest">{GREEN}{PASSED}</testsuite></testsuites>')
    assert tier1_gate.main([str(report)]) == 1
    assert "known red tests." not in capsys.readouterr().out
