"""Quick self-test of the benchmark harness on a tiny desk config.

    python3 bench/selftest.py

Runs a 40-frame, 20-landmark simulation with every policy and the oracle
through `run.run`, untraced and traced, and checks that the harness
reports no failure, that the metric names and units it prints are exactly
those declared in BENCHMARK.json, that the declared workloads are the
ones `run.py` knows, and that the output checks catch a damaged
report.csv. Exits 1 on the first mismatch. Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys

import run

TINY = run.Workload(
    "selftest",
    gen=("--frames", "40", "--landmarks", "20"),
    experiment=(*run.policy_args("full", "rand", "tgreedy", "kf", "dec"), "--seed", "0",
                "--rate", "4", "--rate", "6", "--oracle", "--stride", "10"),
    # frames 0 10 20 30 39, times 9 policy cells + 4 prediction overlays
    rows=5 * 13,
    seeded=True,
)


def _declared(section: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in section}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    work = run.WORK / TINY.name
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(TINY, 2, 0.1, trace, work)
        if not result["correct"] or result["failed"]:
            failures.append(f"trace={int(trace)}: harness reported failures")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != _declared(spec[section]):
            failures.append(
                f"trace={int(trace)}: printed metrics {sorted(printed.items())} differ"
                f" from BENCHMARK.json {section} {sorted(_declared(spec[section]).items())}"
            )
    report = work / "out" / "report.csv"
    report.write_text("\n".join(report.read_text().splitlines()[:-1]) + "\n")
    problems, _ = run.check_outputs(TINY, work / "out", {})
    if not any("rows" in p for p in problems):
        failures.append("a report.csv missing a row passed the output checks")
    for failure in failures:
        print(f"selftest FAILED: {failure}", file=sys.stderr)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
