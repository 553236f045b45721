"""Pass or fail a tier-1 pytest run from its JUnit XML report.

One test is red by design (README "Tests"): tests/test_acceptance.py::
test_criterion_06_zeno_slowdown, whose fitted rate sits just outside the window its
clause asks for.  pytest runs every test, so it exits 1 on a sound tree.  This gate
reads the report instead and exits 0 only when the tests that failed or errored are
exactly that one and none was skipped or xfailed.  A new failure or error (a
collection error included), a skip, or the known red passing each exit 1; the last
so that the test and the documents that describe it change together.  The known
red's failure message, its fitted rate, is printed whenever it fails.

    python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/tier1_gate.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

#: (classname, name) of the known red in pytest's JUnit report
KNOWN_RED = {("tests.test_acceptance", "test_criterion_06_zeno_slowdown")}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: tier1_gate.py REPORT.xml", file=sys.stderr)
        return 2
    try:
        cases = list(ET.parse(args[0]).getroot().iter("testcase"))
    except (OSError, ET.ParseError) as exc:
        print(f"tier1_gate: cannot read {args[0]}: {exc}", file=sys.stderr)
        return 1
    ids = [(case.get("classname", ""), case.get("name", "")) for case in cases]
    # the first failure or error element of each test that has one
    red = {key: found[0] for key, case in zip(ids, cases)
           if (found := case.findall("failure") + case.findall("error"))}
    skipped = [key for key, case in zip(ids, cases) if case.find("skipped") is not None]
    problems = ([f"failed or errored: {c}::{n}" for c, n in sorted(red.keys() - KNOWN_RED)]
                + [f"known red passed or did not run: {c}::{n}" for c, n in sorted(KNOWN_RED - red.keys())]
                + [f"skipped or xfailed: {c}::{n}" for c, n in skipped])
    # so that every log shows how far the known red is from passing
    for c, n in sorted(KNOWN_RED & red.keys()):
        print(f"known red {c}::{n}: {red[c, n].get('message', '(no message)')}")
    print("\n".join(problems) if problems else f"tier1_gate: {len(cases)} tests, only the known red failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
