#!/usr/bin/env python3
"""Runs one workload of the ForkBase benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--keep <file.json>]

Run from anywhere; paths are resolved from this file. On first use it
configures and builds perfbench/ (which builds the library target of the
repository's CMakeLists.txt) into .bench_build/perfbench, then runs
bench_forkbase once. Its metric lines are passed through, and the last
line of standard output is one JSON object:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a traced run also leaves a Chrome trace in
.bench_build/traces/. --keep saves the program's full result file (every
metric, check and info line) at the given path, and a traced run's trace
beside it as <name>.trace.json; perfbench/run.sh and compare.py use it.
Exits nonzero, printing no result, when the program cannot be built or
run; exits 1 after printing the result when a correctness check failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, '.bench_build')
BUILD = os.path.join(WORK, 'perfbench')
RUN_TIMEOUT_S = 170


def die(message):
    print(f'run.py: {message}', file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(WORK, 'build.lock'), 'w') as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A configure that failed leaves a cache but no build file.
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ('build.ninja', 'Makefile')):
            generator = ['-G', 'Ninja'] if shutil.which('ninja') else []
            subprocess.run(['cmake', '-S', os.path.join(ROOT, 'perfbench'),
                            '-B', BUILD, '-DCMAKE_BUILD_TYPE=Release'] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(['cmake', '--build', BUILD, '--target', 'bench_forkbase',
                        '-j', str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, 'bench_forkbase')


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--keep')
    args = parser.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    if args.workload not in [w['name'] for w in spec['workloads']]:
        die(f'unknown workload {args.workload}')
    wanted = spec['per_layer' if args.trace else 'end_to_end']

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        die(f'build failed: {e}')

    tag = f'{args.workload}-{args.seed}-{os.getpid()}'
    if args.keep:
        out = os.path.abspath(args.keep)
        trace = os.path.splitext(out)[0] + '.trace.json'
    else:
        out = os.path.join(WORK, f'result-{tag}.json')
        trace = os.path.join(WORK, 'traces', f'{tag}.json')
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)  # a crashed run must not pass off an old result
    run_dir = os.path.join(WORK, 'run')
    cmd = [binary, f'--workload={args.workload}', f'--seed={args.seed}',
           f'--seconds={args.seconds}', f'--out={out}', f'--dir={run_dir}']
    if args.trace:
        os.makedirs(os.path.dirname(trace), exist_ok=True)
        cmd.append(f'--trace={trace}')
    proc = subprocess.Popen(cmd, stdout=sys.stdout)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    # The program removes its store directory itself unless it was killed.
    shutil.rmtree(os.path.join(run_dir, f'{args.workload}-{proc.pid}'),
                  ignore_errors=True)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        die(f'bench_forkbase exited with {proc.returncode}')
    with open(out) as f:
        result = json.load(f)
    if not args.keep:
        os.remove(out)

    metrics = {}
    for m in wanted:
        got = result['metrics'].get(m['name'])
        if got is None or got['unit'] != m['unit']:
            die(f'metric {m["name"]} missing or not in {m["unit"]}')
        metrics[m['name']] = {'value': got['value'], 'unit': m['unit']}
    correct = bool(result['correct']) and proc.returncode == 0
    sys.stdout.flush()
    print(json.dumps({'correct': correct, 'attempted': result['attempted'],
                      'failed': result['failed'], 'metrics': metrics}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
