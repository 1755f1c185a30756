#!/usr/bin/env python3
"""Contract matrix: pin what slimsim CLI runs promise to keep byte-identical.

Each cell is one CLI invocation, run from the repository root. For every
cell the committed matrix file (tools/contract_matrix.json) stores:
  * args     the command line after the binary; `{tmp}` stands for a
             scratch directory of the run;
  * json     sha256 of the --json report without its `runtime` and
             `resources` sections (the report's deterministic view);
  * journal  sha256 of the `--log --log-level debug` journal with every
             `t` and `pid` field zeroed;
  * exit     the exit code;
  * stderr   stderr, with the scratch directory replaced by `{tmp}`.

Three relations are checked on top of the pinned values:
  * surfaces: the cell rerun with --metrics-out, with --log and (unless it
    uses --processes, which rejects tracing) with --trace must give the
    same report hash as the plain cell;
  * no-telemetry: the cell rerun with --no-telemetry must give the same
    report as the plain cell once `counters` and `histograms` (the only
    sections telemetry decides) are dropped from both;
  * memory: no run may grow its peak RSS by more than RSS_GROWTH_LIMIT
    from RSS_SIZES[0] to RSS_SIZES[1] paths (rss_rows): failover splitting
    at 3 workers over root trees (workers hand trees over through a bounded
    window), and GPS scalar, curve and SPRT runs at 1 and 3 workers over
    budget-capped samples (the consumer keeps only summaries).

Usage: contract_matrix.py [--bin PATH] [--update]
Without --update every cell is run and compared against the matrix file;
the exit status is non-zero on any mismatch, unpinned cell or failed
relation. --update rewrites the pinned values of every cell from this
binary (unchanged cells keep their values); the relations must still hold.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MATRIX = ROOT / 'tools' / 'contract_matrix.json'
JOBS = 2  # cells run concurrently
RUN_TIMEOUT_S = 120

MODELS = {
    'gps': ['models/gps.slim', '--goal', 'gps.measurement', '--bound', '1800'],
    'failover': ['models/failover.slim', '--goal', 'failed', '--bound', '2 hour'],
    'sensor_filter_panic': ['models/sensor_filter_panic.slim', '--goal', 'panicked',
                            '--bound', '4 hour'],
}
# A purely Markovian model, so the exact CTMC flow has a cell that succeeds
# with a closed-form answer (P = 1 - e^-1 at bound 2).
MARKOV = ['tools/contract_matrix_markov.slim', '--goal', 'broken', '--bound', '2']
ESTIMATION_MODES = {
    'scalar': ['--eps', '0.01'],
    'curve': ['--eps', '0.01', '--curve-grid', '8'],
    'coverage': ['--eps', '0.01', '--coverage'],
    'split': ['--split-auto', '--split-factor', '4', '--split-pilot', '128'],
}
SEED = ['--seed', '7']
RSS_SIZES = (20_000, 160_000)
RSS_GROWTH_LIMIT = 1.5


def cells():
    """The matrix: name -> args (after the binary)."""
    out = {}
    for model, base in MODELS.items():
        for mode, extra in ESTIMATION_MODES.items():
            for workers in (1, 3):
                out[f'{model}/{mode}/w{workers}'] = (
                    base + extra + ['--workers', str(workers)] + SEED)
        for mode in ('scalar', 'curve'):
            out[f'{model}/{mode}/p3'] = (
                base + ESTIMATION_MODES[mode] + ['--processes', '3'] + SEED)
        out[f'{model}/sprt'] = base + ['--test', '0.5'] + SEED
        out[f'{model}/ctmc'] = base + ['--ctmc']
    # Periodic checkpoints land at exact multiples of N in every venue, so
    # the journal's checkpoint events are pinned too.
    checkpoints = MODELS['gps'] + ['--eps', '0.02', '--checkpoint', '{tmp}/run.ckpt',
                                   '--checkpoint-every', '1000'] + SEED
    for venue, flags in (('w1', ['--workers', '1']), ('w3', ['--workers', '3']),
                         ('p3', ['--processes', '3'])):
        out[f'gps/checkpoint-every/{venue}'] = checkpoints + flags
    # SPRT is a stop criterion of the run consumer: it runs in every venue,
    # and the run budget is its only sample cap. At a threshold near the
    # true p (~0.997) the budget stops it undecided: exit 3.
    sprt = MODELS['gps'] + ['--test', '0.5'] + SEED
    out['gps/sprt/w3'] = sprt + ['--workers', '3']
    out['gps/sprt/p3'] = sprt + ['--processes', '3']
    out['gps/sprt/budget'] = MODELS['gps'] + ['--test', '0.985', '--max-samples', '100'] + SEED
    out['markov/ctmc'] = MARKOV + ['--ctmc']
    out['markov/scalar/w3'] = MARKOV + ESTIMATION_MODES['scalar'] + ['--workers', '3'] + SEED
    # A sample budget that is no multiple of the worker count stops at its
    # count exactly: the last round of per-worker streams ends early.
    out['markov/budget/w3'] = (MARKOV + ESTIMATION_MODES['scalar'] +
                               ['--max-samples', '50', '--workers', '3'] + SEED)
    # Cross-option rejections: each pair exits 1 with one pinned error line,
    # wherever the check lives (CLI, run_analysis or the engine).
    gps = MODELS['gps'] + ESTIMATION_MODES['scalar'] + SEED
    split = MODELS['failover'] + ESTIMATION_MODES['split'] + SEED
    rejections = {
        'processes-coverage': gps + ['--processes', '3', '--coverage'],
        'processes-witness': gps + ['--processes', '3', '--witness', '{tmp}/witness'],
        'processes-trace': gps + ['--processes', '3', '--trace', '{tmp}/run.trace'],
        'processes-ctmc': MARKOV + ['--ctmc', '--processes', '3'],
        'processes-split': split + ['--processes', '3'],
        'resume-coverage': gps + ['--resume', '{tmp}/none.ckpt', '--coverage'],
        'resume-witness': gps + ['--resume', '{tmp}/none.ckpt', '--witness', '{tmp}/witness'],
        'curve-witness': (MODELS['gps'] + ESTIMATION_MODES['curve'] + SEED +
                          ['--witness', '{tmp}/witness']),
        'split-witness': split + ['--witness', '{tmp}/witness'],
        'split-curve': split + ['--curve-grid', '8'],
        'split-checkpoint': split + ['--checkpoint', '{tmp}/run.ckpt'],
        'split-coverage': split + ['--coverage'],
        'ctmc-coverage': MARKOV + ['--ctmc', '--coverage'],
        'ctmc-budget': MARKOV + ['--ctmc', '--max-samples', '100'],
    }
    for pair, args in rejections.items():
        out[f'reject/{pair}'] = args
    return out


def report_view(path, drop=()):
    """Canonical text of the report's deterministic view, or None."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for key in ('runtime', 'resources') + tuple(drop):
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True, separators=(',', ':'))


def journal_view(path):
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    out = []
    for line in lines:
        if not line:
            continue
        entry = json.loads(line)
        for key in ('t', 'pid'):
            if key in entry:
                entry[key] = 0
        if isinstance(entry.get('fields'), dict) and 'pid' in entry['fields']:
            entry['fields']['pid'] = 0
        out.append(json.dumps(entry, sort_keys=True, separators=(',', ':')))
    return '\n'.join(out)


def sha(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def run(binary, args, extra):
    """Runs one variant of a cell; returns (exit, stderr, report, journal)."""
    with tempfile.TemporaryDirectory(prefix='slimsim-matrix-') as tmp:
        tmp_path = pathlib.Path(tmp)
        argv = [binary] + [a.replace('{tmp}', tmp) for a in args + extra]
        argv += ['--json', str(tmp_path / 'report.json')]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        report = report_view(tmp_path / 'report.json')
        lean = report_view(tmp_path / 'report.json', drop=('counters', 'histograms'))
        journal = journal_view(tmp_path / 'journal.jsonl')
        stderr = proc.stderr.replace(tmp, '{tmp}')
    return proc.returncode, stderr, report, lean, journal


def evaluate(binary, name, args):
    """Runs a cell and its variants; returns (pinned values, relation errors)."""
    code, stderr, report, lean, _ = run(binary, args, [])
    pinned = {'args': args, 'json': sha(report), 'exit': code, 'stderr': stderr}
    errors = []
    surfaces = {
        'log': ['--log', '{tmp}/journal.jsonl', '--log-level', 'debug'],
        'metrics-out': ['--metrics-out', '{tmp}/metrics.prom'],
    }
    if '--processes' not in args:
        surfaces['trace'] = ['--trace', '{tmp}/trace.json']
    for surface, extra in surfaces.items():
        s_code, _, s_report, _, s_journal = run(binary, args, extra)
        if surface == 'log':
            pinned['journal'] = sha(s_journal)
        if s_code != code or s_report != report:
            errors.append(f'{name}: --{surface} changes the report '
                          f'(exit {s_code} vs {code})')
    n_code, _, _, n_lean, _ = run(binary, args, ['--no-telemetry'])
    if n_code != code or n_lean != lean:
        errors.append(f'{name}: --no-telemetry changes the report beyond '
                      f'counters/histograms (exit {n_code} vs {code})')
    return pinned, errors


def rss_rows():
    """Peak-RSS rows: name -> (args without the size, size flag, exit code).

    Each row runs at RSS_SIZES[0] and RSS_SIZES[1] paths (root trees for
    splitting). Scalar, curve and SPRT runs must be stopped by the sample
    budget, at exactly that many samples: their eps is far below what 8N
    samples reach, and the SPRT threshold sits on GPS's p (~0.9977) with an
    indifference region no budget here resolves, so it ends undecided
    (exit 3).
    """
    gps = {
        'scalar': ['--eps', '0.001'],
        'curve': ['--eps', '0.001', '--curve-grid', '8'],
        'sprt': ['--test', '0.9977', '--indifference', '0.00001'],
    }
    rows = {'failover/split/w3': (MODELS['failover'] + ESTIMATION_MODES['split'] +
                                  ['--workers', '3'] + SEED, '--split-roots', 0)}
    for mode, extra in gps.items():
        for workers in (1, 3):
            rows[f'gps/{mode}/w{workers}'] = (
                MODELS['gps'] + extra + ['--workers', str(workers)] + SEED,
                '--max-samples', 3 if mode == 'sprt' else 0)
    return rows


def rss_errors(binary):
    """Checks that peak RSS stays flat in the run length for every row."""
    errors = []
    for name, (args, size_flag, want_exit) in rss_rows().items():
        rss = []
        for size in RSS_SIZES:
            with tempfile.TemporaryDirectory(prefix='slimsim-matrix-') as tmp:
                report = pathlib.Path(tmp) / 'report.json'
                argv = [binary] + args + [size_flag, str(size), '--json', str(report)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                if proc.returncode != want_exit:
                    errors.append(f'rss {name}: {size} exited {proc.returncode}: '
                                  f'{proc.stderr}')
                    break
                doc = json.loads(report.read_text())
                if size_flag == '--max-samples' and doc['result']['samples'] != size:
                    errors.append(f'rss {name}: stopped at {doc["result"]["samples"]} '
                                  f'samples, not at the {size} budget')
                    break
                rss.append(doc['resources']['peak_rss_bytes'])
        if len(rss) < len(RSS_SIZES):
            continue
        growth = rss[1] / rss[0]
        print(f'rss {name}: peak RSS {rss[0] / 2**20:.1f} MiB at {RSS_SIZES[0]}, '
              f'{rss[1] / 2**20:.1f} MiB at {RSS_SIZES[1]} ({growth:.2f}x)')
        if growth > RSS_GROWTH_LIMIT:
            errors.append(f'rss {name}: peak RSS grew {growth:.2f}x from {RSS_SIZES[0]} '
                          f'to {RSS_SIZES[1]} (limit {RSS_GROWTH_LIMIT}x)')
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument('--bin', default=str(ROOT / 'build' / 'src' / 'slimsim'),
                        help='slimsim binary (default build/src/slimsim)')
    parser.add_argument('--update', action='store_true',
                        help='re-pin every cell from this binary')
    opts = parser.parse_args()

    binary = os.path.abspath(opts.bin)
    pinned = json.loads(MATRIX.read_text()) if MATRIX.exists() else {}

    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = {n: pool.submit(evaluate, binary, n, a) for n, a in cells().items()}
        results = {n: f.result() for n, f in futures.items()}

    failures = rss_errors(binary)
    for name in sorted(results):
        values, errors = results[name]
        failures.extend(errors)
        if opts.update:
            continue
        want = pinned.get(name)
        if want is None:
            failures.append(f'{name}: not pinned (run with --update)')
            continue
        for key in ('args', 'json', 'journal', 'exit', 'stderr'):
            if want.get(key) != values.get(key):
                failures.append(f'{name}: {key} differs from the pinned value\n'
                                f'  pinned: {want.get(key)!r}\n'
                                f'  now:    {values.get(key)!r}')
    if opts.update:
        repinned = {n: values for n, (values, _) in results.items()}
        MATRIX.write_text(json.dumps(repinned, indent=1, sort_keys=True) + '\n')
    for failure in failures:
        print(f'FAIL {failure}', file=sys.stderr)
    verb = 're-pinned' if opts.update else 'checked'
    print(f'{verb} {len(results)} cells, {len(failures)} failure(s)')
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()
