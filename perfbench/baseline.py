"""Summarize the benchmark's result records: median and quartiles per figure.

    python3 perfbench/baseline.py [RESULTS_DIR]

Reads every `<workload>-seed<n>-trace<t>.json` record that run.py left in
RESULTS_DIR (default `.perfbench/results`) and prints, per workload and
trace mode, the seeds, the provenance of the records and, for every figure,
its median, first and third quartiles and their spread as a share of the
median.
"""

import glob
import json
import os
import statistics
import sys


def summarize(records) -> dict:
    out = {}
    for record in sorted(records, key=lambda r: (r["workload"], r["trace"],
                                                 r["seed"])):
        group = out.setdefault(f"{record['workload']} trace {record['trace']}", {
            "seeds": [], "provenance": record["provenance"], "failures": 0,
            "figures": {}})
        group["seeds"].append(record["seed"])
        group["failures"] += len(record["failures"])
        for name, figure in record["report"].items():
            group["figures"].setdefault(name, {"unit": figure["unit"],
                                               "values": []})
            group["figures"][name]["values"].append(figure["value"])
    for group in out.values():
        for figure in group["figures"].values():
            values = figure.pop("values")
            median = statistics.median(values)
            figure["median"] = median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                figure["q1"], figure["q3"] = q1, q3
                figure["spread"] = (q3 - q1) / median if median else None
    return out


def main(argv) -> int:
    directory = argv[0] if argv else os.path.join(".perfbench", "results")
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    if not records:
        print(f"error: no result records in {directory}", file=sys.stderr)
        return 2
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
