#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pubmed-filter --seed 1 \\
        --seconds 24 --trace 0

The first run configures and builds perfbench/ (the library, the
aeetes_server daemon and the perfbench program, Release) into
.bench_build/ under the repository root, or into $CARGO_TARGET_DIR when
set; later runs only rebuild what changed. Build output goes to stderr.

The program's stdout is passed through: its notes, every metric with unit
and sample count, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. The metric names are checked
against BENCHMARK.json. Exits non-zero when the build fails, an output
check fails or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print('perfbench: ' + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return 1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        fail('no library sources at src/ next to perfbench/; run from a '
             'full checkout')
    if not os.path.isfile(os.path.join(build_dir, 'CMakeCache.txt')):
        if run_logged(['cmake', '-S', HERE, '-B', build_dir,
                       '-DCMAKE_BUILD_TYPE=Release'], BUILD_TIMEOUT_S) != 0:
            fail('cmake configure failed')
    jobs = str(os.cpu_count() or 1)
    if run_logged(['cmake', '--build', build_dir, '-j', jobs, '--target',
                   'perfbench', 'aeetes_server'], BUILD_TIMEOUT_S) != 0:
        fail('build failed')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    if args.workload not in [w['name'] for w in spec['workloads']]:
        fail('unknown workload ' + args.workload)
    if args.seconds < 1:
        fail('--seconds must be at least 1')

    target = os.environ.get('CARGO_TARGET_DIR') or '.bench_build'
    build_dir = os.path.join(ROOT, target, 'perfbench')
    build(build_dir)
    work_dir = os.path.join(build_dir, 'work')
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, 'perfbench'),
           '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', str(args.trace),
           '--server-bin', os.path.join(build_dir, 'aeetes', 'aeetes_server'),
           '--work-dir', work_dir]
    # Own process group, so a daemon the program started cannot outlive it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail('run exceeded %d s' % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip('\n').split('\n')
    notes, last = lines[:-1], lines[-1]
    for line in notes:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        fail('run exited %d without a result' % proc.returncode)
    listed = spec['per_layer'] if args.trace else spec['end_to_end']
    expected = {m['name']: m['unit'] for m in listed}
    got = {k: v['unit'] for k, v in result['metrics'].items()}
    if got != expected:
        fail('printed metrics do not match BENCHMARK.json: missing %s, '
             'extra %s' % (sorted(set(expected) - set(got)),
                           sorted(set(got) - set(expected))))
    print(last)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == '__main__':
    main()
