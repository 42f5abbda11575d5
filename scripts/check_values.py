#!/usr/bin/env python3
"""Print every check of the named verify suites as sorted JSON.

Each record carries the suite, the check name, pass/fail, ``float.hex`` of
the value and of the tolerance (null when absent) and the detail, so two
checkouts compare bit for bit with one diff:

    PYTHONPATH=src python scripts/check_values.py routes density > new.json

Suites run at their defaults (the oracle suite at its full configuration).
"""

import json
import sys

from freejacobi.verification import run_suite


def _hex(x):
    return None if x is None else float(x).hex()


def main(suites):
    if not suites:
        raise SystemExit(__doc__)
    records = [
        {"suite": r.suite, "name": r.name, "passed": bool(r.passed),
         "value": _hex(r.value), "tolerance": _hex(r.tolerance), "detail": r.detail}
        for suite in suites
        for r in run_suite(suite)
    ]
    print(json.dumps(records, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
