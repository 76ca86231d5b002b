"""Compare two result sets of ``perfbench/run.py --out``.

Usage, from the repository root::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are JSON-lines files written by ``run.py --out`` (or
directories of them).  For every (workload, metric) present on both sides
this prints each side's median and quartiles, the fraction of pairs the new
side won (the i-th old run of a workload pairs with its i-th new run; ties
count for neither) and a verdict:

* ``better`` -- NEW wins at least 9 in 10 pairs and the medians differ by
  more than OLD's own quartile spread;
* ``worse`` -- NEW's median is worse than OLD's by more than the metric's
  bound in ``BENCHMARK.json`` (per-layer metrics have no bound: worse is the
  mirror image of better);
* ``unresolved`` -- either side's quartile spread, as a share of its
  median, exceeds the bound, and neither side beats every run of the other;
* ``flat`` -- none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR_WIN_SHARE = 0.9


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run, in file order]}}``."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for file in files:
        for line in file.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[record["workload"]][name].append(float(metric["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    old: list[float], new: list[float], higher_is_better: bool, bound: float | None
) -> tuple[str, float]:
    """``(verdict, share of pairs NEW won)`` for one (workload, metric)."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    won = wins / len(pairs) if pairs else 0.0
    lost = losses / len(pairs) if pairs else 0.0
    old_q1, old_med, old_q3 = quartiles(old)
    new_q1, new_med, new_q3 = quartiles(new)
    gain = sign * (new_med - old_med)
    beyond_noise = abs(new_med - old_med) > old_q3 - old_q1
    all_better = min(sign * n for n in new) > max(sign * o for o in old)
    all_worse = max(sign * n for n in new) < min(sign * o for o in old)

    if bound is not None:
        spread = max(
            (old_q3 - old_q1) / abs(old_med) if old_med else 0.0,
            (new_q3 - new_q1) / abs(new_med) if new_med else 0.0,
        )
        if spread > bound and not (all_better or all_worse):
            return "unresolved", won
        if -gain > bound * abs(old_med):
            return "worse", won
    elif lost >= PAIR_WIN_SHARE and beyond_noise:
        return "worse", won
    if won >= PAIR_WIN_SHARE and beyond_noise and gain > 0:
        return "better", won
    return "flat", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (load(Path(arg)) for arg in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]
    }
    header = (
        f"{'workload':15s} {'metric':58s} {'old median [q1, q3]':>36s} "
        f"{'new median [q1, q3]':>36s} {'won':>5s}  verdict"
    )
    print(header)
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            entry = declared.get(name)
            if entry is None:
                continue
            before, after = old[workload][name], new[workload][name]
            result, won = verdict(
                before, after, entry["better"] == "higher", entry.get("bound")
            )
            cells = []
            for values in (before, after):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(
                f"{workload:15s} {name:58s} {cells[0]:>36s} {cells[1]:>36s} "
                f"{won:5.2f}  {result}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
