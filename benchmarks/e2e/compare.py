"""Compare two sets of ``run.py --all --out`` files, one row per workload x metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

A is the base (the parent commit), B the change.  Each row gives both
medians with their quartiles, the change as a share of A's median, the
bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` / ``improved`` — B is worse / better than A by more than
  the bound *and* by more than the run-to-run spread;
* ``unresolved`` — neither, but the spread (the wider inter-quartile
  range of the two sets over A's median) exceeds the bound, so "no
  change" cannot be claimed;
* ``unchanged`` — otherwise.

Exit status is non-zero on a regression or when B failed more
operations than A.  With ``--agree`` both sets come from the *same*
commit and must agree: every median within its bound, every spread
within its bound (``setup_s`` excepted, as in the driver), identical
``answers_digest`` for equal seeds and exactly repeating ``executor.*``
counters.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run has no spread.

    The inclusive method never leaves the data's range, which matters
    for the three-to-five-run sets this tool usually gets.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def metric_values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in runs
        if "end_to_end" in run["workloads"].get(workload, {})
    ]


def failed_share(runs: list[dict], workload: str) -> float:
    records = [run["workloads"][workload]["untraced"] for run in runs
               if "untraced" in run["workloads"].get(workload, {})]
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / attempted if attempted else 1.0


def same_work(base: list[dict], change: list[dict]) -> list[str]:
    """Digest and executor-counter differences between runs of equal seed."""
    problems = []
    by_seed = {run["meta"]["seed"]: run for run in base}
    for run in change:
        other = by_seed.get(run["meta"]["seed"])
        if other is None:
            continue
        for workload, entry in run["workloads"].items():
            twin = other["workloads"].get(workload, {})
            for part in ("untraced", "traced"):
                if part in entry and part in twin and (
                    entry[part]["answers_digest"] != twin[part]["answers_digest"]
                ):
                    problems.append(f"{workload} seed {run['meta']['seed']}: {part} answers_digest differs")
            for name, metric in entry.get("per_layer", {}).items():
                if name.startswith("executor.") and not name.endswith("_s"):
                    before = twin.get("per_layer", {}).get(name, {}).get("value")
                    if before is not None and before != metric["value"]:
                        problems.append(
                            f"{workload} seed {run['meta']['seed']}: {name} {before} -> {metric['value']}")
    return problems


def main(argv: list[str] | None = None) -> int:
    # "A... -- B..." by hand: argparse drops a bare "--".
    words = list(sys.argv[1:] if argv is None else argv)
    agree = "--agree" in words
    words = [word for word in words if word != "--agree"]
    if "--" not in words or words[0] == "--" or words[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = words.index("--")
    base, change = load(words[:split]), load(words[split + 1:])

    status = 0
    print(f"{'workload':13s} {'metric':13s} {'A median [q1..q3]':>34s} {'B median [q1..q3]':>34s} "
          f"{'change':>9s} {'bound':>6s}  verdict")
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            a_values = metric_values(base, workload, metric["name"])
            b_values = metric_values(change, workload, metric["name"])
            if not a_values or not b_values:
                print(f"{workload:13s} {metric['name']:13s} missing on one side")
                status = 1
                continue
            a_q1, a_med, a_q3 = quartiles(a_values)
            b_q1, b_med, b_q3 = quartiles(b_values)
            change_share = (b_med - a_med) / a_med
            worse = change_share if metric["better"] == "lower" else -change_share
            spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med
            bound = metric["bound"]
            if worse > bound and worse > spread:
                verdict = "regressed"
            elif -worse > bound and -worse > spread:
                verdict = "improved"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            if verdict == "regressed":
                status = 1
            if agree and (abs(worse) > bound or (spread > bound and metric["name"] != "setup_s")):
                verdict += " DISAGREE"
                status = 1
            print(f"{workload:13s} {metric['name']:13s} "
                  f"{a_med:12.4f} [{a_q1:9.4f}..{a_q3:9.4f}] "
                  f"{b_med:12.4f} [{b_q1:9.4f}..{b_q3:9.4f}] "
                  f"{100 * change_share:+8.1f}% {100 * bound:5.0f}%  {verdict}"
                  f"  (base {a_med:.4g} {metric['unit']}, n={len(a_values)}/{len(b_values)})")
        a_failed, b_failed = failed_share(base, workload), failed_share(change, workload)
        if b_failed > a_failed or (agree and (a_failed or b_failed)):
            print(f"{workload:13s} failed_share {a_failed:.6f} -> {b_failed:.6f}  FAILED")
            status = 1
    problems = same_work(base, change)
    for problem in problems:
        print("different work:", problem)
    if problems and agree:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
