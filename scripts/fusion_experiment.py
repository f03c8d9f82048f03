"""Sweep fault budgets over a seeded `gsets simulate` report.

The script reads one canonical simulator report on stdin and reports, for
each budget f, how often the fused interval recovered the ground truth,
how often it was empty and how wide it was on average.  With the settings
below the containment rate hits 1.0 exactly at f = number of injected
faults, which is the guarantee the fusion rule provides.  On an empty or
non-JSON stdin, as when ``gsets simulate`` fails, it prints one ``error:``
line to stderr and exits 2.

Usage:
    gsets simulate --sensors 9 --faulty 3 --rounds 500 --seed 7 | python scripts/fusion_experiment.py
"""

import json
import sys


def main(stdin=sys.stdin) -> int:
    try:
        report = json.load(stdin)
    except ValueError as exc:
        # empty when gsets simulate failed, which has printed its own error line
        print(f"error: stdin holds no simulate report: {exc}", file=sys.stderr)
        return 2
    config, rounds = report["config"], report["rounds"]
    sensors, faulty = config["sensors"], config["faulty"]
    # per budget: rounds that contain the truth, rounds fused to the empty
    # set, and the summed width of the others
    contain = [0] * sensors
    empty = [0] * sensors
    width = [0.0] * sensors
    for out in rounds:
        for f, (level, hit) in enumerate(zip(out["fused"]["levels"], out["contains_truth"])):
            contain[f] += hit
            if level is None:
                empty[f] += 1
            else:
                width[f] += level[1] - level[0]

    n = len(rounds)
    print(f"sensors={sensors} faulty={faulty} rounds={n} seed={config['seed']}")
    print(f"{'f':>3}  {'contain':>8}  {'empty':>6}  {'mean width':>10}")
    for f in range(sensors):
        nonempty = n - empty[f]
        mean_width = width[f] / nonempty if nonempty else float("nan")
        marker = " <- guarantee kicks in" if f == faulty else ""
        print(f"{f:>3}  {contain[f] / n:>8.3f}  {empty[f] / n:>6.3f}  {mean_width:>10.3f}{marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
