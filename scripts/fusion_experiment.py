"""Sweep fault budgets over seeded simulation rounds.

For each budget f the script reports how often the fused interval
recovered the ground truth and how wide it was on average.  With the
default geometry the containment rate hits 1.0 exactly at f = number of
injected faults, which is the guarantee the fusion rule provides.

Usage:
    python scripts/fusion_experiment.py --sensors 9 --faulty 3 --rounds 500 --seed 7
"""

import argparse
import sys

from gsets import SimConfig, simulate_rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=9)
    parser.add_argument("--faulty", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--truth", type=float, default=0.0)
    parser.add_argument("--halfwidth", type=float, default=1.0)
    parser.add_argument("--offset", type=float, default=2.5)
    args = parser.parse_args(argv)

    config = SimConfig(
        num_sensors=args.sensors,
        truth=args.truth,
        correct_halfwidth_max=args.halfwidth,
        num_faulty=args.faulty,
        fault_offset_min=args.offset,
        seed=args.seed,
    )
    # one pass over the rounds: per budget, rounds that contain the truth,
    # rounds fused to the empty set, and the summed width of the others
    contain = [0] * args.sensors
    empty = [0] * args.sensors
    width = [0.0] * args.sensors
    for out in simulate_rounds(config, args.rounds):
        for f, (level, hit) in enumerate(zip(out.fused.levels, out.truth_containment)):
            contain[f] += hit
            if level is None:
                empty[f] += 1
            else:
                width[f] += level.hi - level.lo

    print(f"sensors={args.sensors} faulty={args.faulty} rounds={args.rounds} seed={args.seed}")
    print(f"{'f':>3}  {'contain':>8}  {'empty':>6}  {'mean width':>10}")
    for f in range(args.sensors):
        nonempty = args.rounds - empty[f]
        mean_width = width[f] / nonempty if nonempty else float("nan")
        marker = " <- guarantee kicks in" if f == args.faulty else ""
        print(
            f"{f:>3}  {contain[f] / args.rounds:>8.3f}  "
            f"{empty[f] / args.rounds:>6.3f}  {mean_width:>10.3f}{marker}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
