"""The verification battery reports failures without relying on assert."""

import json
import subprocess
import sys

import deltamod.verify as verify

SABOTAGE = """
import json, sys
import deltamod.verify as verify
if not sys.flags.optimize:
    sys.exit("expected to run under -O")
cols = list(verify.KNOWN_SINGLE_COLUMNS_3)
cols[1] = (-2, 1, 2)  # published as (-2, 1, 1)
verify.KNOWN_SINGLE_COLUMNS_3 = tuple(cols)
print(json.dumps(verify.run_verify_suite("fast").to_json_dict()))
"""


def test_sabotaged_check_fails_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status.pop("single-extensions-bound3") == "FAIL"
    assert set(status.values()) == {"pass"}
    assert report["allPassed"] is False


def test_crashing_check_is_recorded_as_fail(monkeypatch):
    def crash() -> str:
        return str(1 // 0)

    monkeypatch.setattr(verify, "_FAST_CHECKS",
                        (("crash", crash),) + verify._FAST_CHECKS[:1])
    report = verify.run_verify_suite("fast")
    (name, status, _, detail), second = report.checks
    assert (name, status) == ("crash", "FAIL")
    assert detail.startswith("ZeroDivisionError: ")
    assert second[1] == "pass"
    assert report.all_passed is False
