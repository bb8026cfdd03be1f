#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the noise of one set.

    python3 perfbench/compare.py bench-out/<parent> [bench-out/<change>]

Each directory holds bench_forkbase result files named
<workload>-<seed>-<rep>.json, as perfbench/run.sh writes them. For every
workload and every end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles and the relative spread (interquartile range
over median). Given two directories it also prints the share of pairs
(runs with the same seed and repetition) the change wins and a verdict:

  improved      the change wins at least 9 of 10 pairs and the medians
                differ, in the better direction, by more than the
                parent's interquartile range
  regressed     the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    a side's spread is wider than the bound, and not every
                change run reads better than every parent run
  within bound  otherwise

Exits 1 when a run failed its checks, when the change fails a larger
share of its calls than the parent, or when ledger.state_uid differs
between runs of the same seed; 0 otherwise. Runs whose reference step
was invalid (the generator fell behind its schedule) are counted and
shown, not failed.
"""

import glob
import json
import os
import re
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    'BENCHMARK.json')
NAME = re.compile(r'^(?P<workload>[\w.-]+)-(?P<seed>\d+)-(?P<rep>\d+)\.json$')


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, '*.json'))):
        m = NAME.match(os.path.basename(path))
        if m is None:
            continue
        with open(path) as f:
            runs[(m['workload'], int(m['seed']), int(m['rep']))] = json.load(f)
    if not runs:
        sys.exit(f'compare.py: no result files in {directory}')
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(metric, parent, change, pairs):
    sign = -1 if metric['better'] == 'lower' else 1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    if pairs and share >= 0.9 and gain > p_q3 - p_q1:
        return share, 'improved'
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > metric['bound'] and not all_better:
        return share, 'unresolved'
    if -gain > metric['bound'] * p_med:
        return share, 'regressed'
    return share, 'within bound'


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(SPEC) as f:
        spec = json.load(f)
    sides = [load(d) for d in sys.argv[1:]]
    failed = False

    for side, directory in zip(sides, sys.argv[1:]):
        for key, run in side.items():
            if not run['correct']:
                print(f'FAIL {directory}: {key} failed a correctness check')
                failed = True

    # ledger.state_uid names the ledger state after a fixed block count of
    # a seed's input: it must agree across runs, sides and commits.
    uids = {}
    for side in sides:
        for (workload, seed, _), run in side.items():
            uid = run.get('info', {}).get('ledger.state_uid')
            if uid is not None:
                uids.setdefault(seed, set()).add(uid)
    for seed, seen in sorted(uids.items()):
        if len(seen) != 1:
            print(f'FAIL ledger.state_uid differs for seed {seed}: {sorted(seen)}')
            failed = True

    workloads = [w['name'] for w in spec['workloads']]
    for workload in workloads:
        keys = [sorted(k for k in side if k[0] == workload) for side in sides]
        if not all(keys):
            continue
        rates = [sum(side[k]['failed'] for k in ks) /
                 max(1, sum(side[k]['attempted'] for k in ks))
                 for side, ks in zip(sides, keys)]
        # A step the generator could not keep to schedule (late, or
        # arrivals abandoned) measured the host: flagged, never failed.
        invalid = [sum(1 for k in ks
                       if side[k].get('info', {}).get('reference.valid') == 'false')
                   for side, ks in zip(sides, keys)]
        print(f'\n== {workload}  runs {" vs ".join(str(len(k)) for k in keys)}'
              f'  error rate {" vs ".join(f"{r:.3g}" for r in rates)}'
              f'  invalid steps {" vs ".join(str(n) for n in invalid)}')
        if len(sides) == 2 and rates[1] > rates[0]:
            print(f'FAIL {workload}: the change fails more operations')
            failed = True
        for metric in spec['end_to_end']:
            name = metric['name']
            values = [[side[k]['metrics'][name]['value'] for k in ks]
                      for side, ks in zip(sides, keys)]
            cells = []
            for v in values:
                q1, med, q3 = quartiles(v)
                cells.append(f'{med:11.4g} [{q1:.4g}, {q3:.4g}] spread {spread(v):5.1%}')
            line = f'  {name:20s} ' + '  |  '.join(cells)
            if len(sides) == 2:
                common = sorted(set(k[1:] for k in keys[0]) & set(k[1:] for k in keys[1]))
                pairs = [(sides[0][(workload,) + k]['metrics'][name]['value'],
                          sides[1][(workload,) + k]['metrics'][name]['value'])
                         for k in common]
                share, word = verdict(metric, values[0], values[1], pairs)
                line += f'  wins {share:4.0%}  {word}'
            elif spread(values[0]) > metric['bound']:
                line += f'  spread above bound {metric["bound"]}'
            print(line)
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
