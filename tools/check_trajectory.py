#!/usr/bin/env python3
"""Validates the committed performance trajectory (bench/trajectory/*.json).

Each record is one change's measurement: for every workload, the exact
seed-42 counters of the parent and of the change, and the medians of the
end-to-end metrics over alternating parent/change runs of perfbench.  The
check parses every record and asserts the keys and value types a reader of
the trajectory relies on; it fails when the directory holds no record.

Usage: check_trajectory.py DIRECTORY
"""

from __future__ import annotations

import json
import os
import re
import sys

TOP_KEYS = {"schema": int, "change": str, "date": str, "parent": str,
            "host": str, "command": str, "workloads": dict}
COUNTERS = ("sim.events", "proto.messages", "proto.bytes", "proto.drops",
            "common.allocs")
MEDIANS = ("run_s", "setup_s", "peak_rss_mb", "op_success_ratio",
           "data_availability")
MIN_PAIRS = 3


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_sides(where: str, entry, errors: list[str]) -> None:
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return
    for side in ("parent", "change"):
        if not is_number(entry.get(side)):
            errors.append(f"{where}.{side}: missing or not a number")


def check_record(doc, errors: list[str]) -> None:
    if not isinstance(doc, dict):
        errors.append("record is not an object")
        return
    for key, kind in TOP_KEYS.items():
        if not isinstance(doc.get(key), kind):
            errors.append(f"{key}: missing or not a {kind.__name__}")
    if errors:
        return
    if doc["schema"] != 1:
        errors.append(f"schema: unknown version {doc['schema']}")
    if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", doc["date"]):
        errors.append(f"date: {doc['date']!r} is not YYYY-MM-DD")
    if not doc["workloads"]:
        errors.append("workloads: empty")
    for name, wl in doc["workloads"].items():
        if not isinstance(wl, dict):
            errors.append(f"{name}: not an object")
            continue
        counters = wl.get("seed42")
        medians = wl.get("medians")
        if not isinstance(counters, dict) or not isinstance(medians, dict):
            errors.append(f"{name}: needs 'seed42' and 'medians' objects")
            continue
        for key in COUNTERS:
            check_sides(f"{name}.seed42.{key}", counters.get(key), errors)
        for key in MEDIANS:
            entry = medians.get(key)
            check_sides(f"{name}.medians.{key}", entry, errors)
            if isinstance(entry, dict):
                pairs = entry.get("pairs")
                if not isinstance(pairs, int) or pairs < MIN_PAIRS:
                    errors.append(f"{name}.medians.{key}.pairs: needs an "
                                  f"integer >= {MIN_PAIRS}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    files = sorted(f for f in os.listdir(argv[1]) if f.endswith(".json"))
    if not files:
        print(f"FAIL: no trajectory record in {argv[1]}")
        return 1
    ok = True
    for name in files:
        errors: list[str] = []
        try:
            with open(os.path.join(argv[1], name), encoding="utf-8") as f:
                check_record(json.load(f), errors)
        except (OSError, ValueError) as err:
            errors.append(str(err))
        for e in errors:
            print(f"FAIL {name}: {e}")
        ok = ok and not errors
        if not errors:
            print(f"ok   {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
