#!/usr/bin/env python3
"""Sweep benchmark: named workloads through ``SweepRunner.run_cells``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quick-j1 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fault-heavy --seed 3 --trace 1
    python3 perfbench/run.py --workload fault-heavy --steady 5
    python3 perfbench/run.py --write-expected

Every time is host time, never simulated time.  A run starts one fresh
interpreter per measured pass (``perfbench/sweep_pass.py``) and makes
as many passes as fit ``--seconds`` at the workload's nominal pass time
(``PASS_S``, at least ``MIN_PASSES``).  The pass count depends on
``--seconds`` alone, so every run of a workload does the same work
however fast the host is.  It prints every metric by name and unit,
then one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Why the times are not plain wall times: on the shared 2-core host the
benchmark was tuned on, a core runs up to about 1.5x slower for
stretches of seconds to minutes.  Cold passes of one run spread by up
to 40% (6.0-9.6 s on ``quick-j1``), and medians of three passes spread
0.26-0.35 (interquartile range over median) across runs.  So each cold
pass is scaled by the host speed measured while it ran:

* host factor of a pass -- ``CALIBRATION_REF_S`` over the median of the
  calibration samples taken during its cold pass, one after every
  ``sweep_pass.CALIBRATION_EVERY``-th cell (``sweep_pass.calibrate``:
  fixed NumPy sort/bincount/gather work that runs no program code, so a
  change to the program cannot move it).  The samples' own time is
  taken out of the pass's wall time.  Over 24 ``quick-j1`` passes, the
  sum of cell times spread +-25% and its ratio to the pass's median
  sample +-12%; scaling cut the spread of ``sweep_s`` across six runs
  from 0.17 to 0.10.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- interpreter start, through importing ``repro`` and the
  experiment modules and building the cells, to a constructed
  ``SweepRunner``; no cell has run.  The median of one sample per pass
  plus warm-only starts until there are ``MIN_SETUP_SAMPLES``, in plain
  wall seconds.
* ``sweep_s`` -- one cold pass over the workload's cells into an empty
  result cache in a fresh directory, in seconds at the reference host
  speed; the median over the run's passes.  Every pass must simulate
  every unique cell and hit the cache zero times, or the run is not
  correct.
* ``warm_s`` -- the same cells rebuilt and re-run against the cache the
  cold pass filled ("re-render the figures"), in plain wall seconds: the
  fastest of the run's warm passes.  They come in blocks of
  ``sweep_pass.WARM_PASSES``, one after each cold pass and one in each
  warm-only start (against the last pass's cache), so they sample the
  host at ``MIN_SETUP_SAMPLES`` moments.  One warm pass takes 5-15 ms;
  the fastest of a block varied up to 2x between blocks of one run but
  hardly within a block, and the NumPy calibration did not track it.
  Every unique cell must be a cache hit.
* ``accesses_per_s`` -- simulated accesses of the unique cells
  (``SimResult.n_accesses``) per second of ``sweep_s``: simulator
  throughput, comparable across workloads.
* ``peak_rss_mb`` -- median peak RSS of the pass processes.

Failures: each cold and warm pass checks every unique cell's
``SimResult.to_dict()`` digest.  At the default seed the expected digests
are committed in ``expected.json`` (written with the staged reference
engine by ``--write-expected``).  At any other seed the run first
simulates the cells with the staged engine, untimed, and checks every
pass against that.  A cell that raises or whose digest differs is a
failed cell; ``attempted`` counts every cell checked.

Environment: every ``REPRO_*`` variable is removed from the passes'
environment -- an ambient ``REPRO_SURROGATE=1`` would prune cells,
``REPRO_TELEMETRY=1`` forces the 2.4x slower staged engine, and
``REPRO_ENGINE``, ``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
``REPRO_TRACE_STORE`` and ``REPRO_FAULT_BATCH`` change what is measured.
The runner gets ``jobs=1`` and its cache directory explicitly, with the
trace store, surrogate and telemetry off (the ``repro report``
defaults), and the engine stays ``auto``; the run prints which engine
the results came from.  All scratch files live under ``.bench_work/`` in
the checkout.

Workloads, and why each was chosen:

* ``quick-j1`` -- the cell list ``repro report --quick`` builds (fig6,
  table2, fig18, fig22 over STE/BLK/GPT3: 66 cells, 51 unique) at
  ``jobs=1``.  Replay-bound (about 93% of the pass).  Its migration
  policies (C-NUMA, GRIT, F-Barre) and CLAP's epoch analysis drive the
  ``cache`` and ``policies`` layers, so replay and cache-model work shows
  here.
* ``fault-heavy`` -- the first-touch-dominated FHVY spec (with 2% line
  noise on one structure, so the trace seed reaches the traffic) under
  {S-64KB, Ideal, MGvm, CLAP, S-2MB} x {NUMA_AWARE, NAIVE} over 4 trace
  seeds (40 cells) at ``jobs=1``.  About one fault per 6 accesses
  against one per 18 on ``quick-j1``; the bulk fault path runs, and
  there are no migrations and no invalidations.  A fault-path change
  shows here; a cache-invalidation change must not move it.

Left out: the same quick cells at ``jobs=2``.  Its pass time is the
slower of two workers on two cores whose speeds vary independently
(speed over 0.5 s windows correlated 0.04 between the cores), so no one
stream of calibration samples can scale it, and its median wall time
spread 0.16-0.33 across runs, past what its 0.25 bound allows.  Pool dispatch,
pickling and worker idle time are therefore not measured.  The
full-scale paper suite (111 s cold) is left out too: it does not fit the
time all runs of a check may take.

Traced mode (``--trace 1``) alternates untraced and traced passes.  A
traced pass wraps each layer's public entry point from the benchmark's
own files (``perfbench/spans.py``); spans are ``{name, start, end,
parent, cell}``, kept in memory and written at exit.  Per-layer
metrics cover the traced cold pass alone, except the fingerprint and
cache-get ones, which cover the one warm pass after it.  Each group
names the end-to-end metric it should move:

* ``trace.build_*`` (``Workload.build_trace``) -- ``sweep_s``, at most 3%,
  every workload.
* ``machine.build_*`` (``Machine.__init__``) -- ``sweep_s``, under 1%.
* ``policies.place_*``, ``policies.on_epoch_*`` -- ``sweep_s``: on
  ``quick-j1`` through CLAP MMA and migration decisions, on
  ``fault-heavy`` through placement.
* ``vm.map_*`` (``DemandPager.map_single``/``map_into_region``/
  ``ensure_region``), ``vm.migrate_*`` -- ``sweep_s`` on ``fault-heavy``,
  and on ``quick-j1`` for migrations.
* ``cache.invalidate_*`` (``SetAssociativeCache.invalidate_range``;
  lines probed from its arguments, lines hit from its return value;
  useful ratio = hit / probed, 0 when nothing was probed) -- ``sweep_s``
  on ``quick-j1`` (about 9%); no change on ``fault-heavy`` (0 calls).
* ``tlb.shootdown_*`` (``TranslationPath.shootdown``) -- ``sweep_s`` on
  ``quick-j1``.
* ``replay.*`` (``BatchedPipeline.run``/``AccessPipeline.run``; self time
  excludes the child spans above; the two fractions are access-weighted
  from ``SimResult``) -- ``sweep_s`` and ``accesses_per_s`` on both
  workloads.
* ``engine.run_s``, ``engine.fold_s`` (self time of
  ``repro.sim.runner.run_simulation``) -- ``sweep_s``, about 1%.
* ``parallel.fingerprint_s``, ``parallel.cache_*`` -- ``warm_s`` on every
  workload, ``sweep_s`` only marginally.  ``parallel.cold_cache_io_s``
  is the cold pass's cache gets and puts, the "cache I/O" of the ranking.
* ``parallel.worker_busy_s``, ``parallel.worker_idle_share`` (1 - busy /
  cold pass wall less calibration): the in-process worker's cell time
  and the pass's share outside the cells -- ``sweep_s``.
* ``model.*`` -- simulated counts, which repeat exactly, and the host
  cost per simulated event beside them.
* ``tracing.*`` -- traced minus untraced ``sweep_s`` (the tracing
  overhead, both estimated as above), and whether the layer ranking of
  the ROADMAP baseline holds: replay >> invalidation > trace build >
  fold, machine build > cache I/O.

``--steady N`` repeats a workload N times with consecutive seeds and
prints median, quartiles and spread of each end-to-end metric against
the bounds in ``BENCHMARK.json``.  It fails when a spread other than
``setup_s``'s exceeds its bound.  ``setup_s`` is exempt: its bound limits
how far its median may move from one version of the code to the next
(work moved out of the timed passes into set-up), and a 0.3-0.5 s
interpreter start spreads more with the host's speed than a sweep does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Must match ``perfbench.workloads``; kept here so the runner starts
#: without importing the program.
WORKLOAD_NAMES = ("quick-j1", "fault-heavy")
DEFAULT_SEED = 7

#: Nominal seconds of one untraced pass (set-up, cold pass, warm block)
#: on a 2-core container; a run makes ``--seconds / PASS_S`` passes.
PASS_S = {"quick-j1": 10.5, "fault-heavy": 9.5}
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MAX_PASSES = 12
#: Set-up samples and warm blocks per untraced run.
MIN_SETUP_SAMPLES = 6
#: A run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "warm_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not measure (not a failed cell)."""


class Runner:
    """Starts pass processes under a pinned environment and a deadline."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def env(self, engine: Optional[str] = None) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.workdir)
        env["PYTHONHASHSEED"] = "0"
        if engine is not None:
            env["REPRO_ENGINE"] = engine
        return env

    def child(self, args: List[str], engine: Optional[str] = None) -> dict:
        self.count += 1
        passdir = self.workdir / f"pass-{self.count}"
        passdir.mkdir()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.sweep_pass", *args,
             "--workdir", str(passdir), "--spawned-at", repr(spawned)],
            cwd=ROOT, env=self.env(engine), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"pass {args} ran past the run deadline")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"pass {args} exited {proc.returncode}:\n{err}")
        record = json.loads(out.strip().splitlines()[-1])
        record["passdir"] = passdir
        return record


def expected_digests(runner: Runner, workload: str, seed: int) -> list:
    """Committed digests at the default seed, else the staged engine's."""
    if seed == DEFAULT_SEED:
        return json.loads(EXPECTED.read_text())["workloads"][workload]
    return reference_digests(runner, workload, seed)


def source_digest() -> str:
    """Hash of the program and benchmark sources a reference depends on."""
    h = hashlib.sha256()
    for directory in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(directory.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_digests(runner: Runner, workload: str, seed: int) -> list:
    """Simulate the workload's cells once with the staged engine, untimed.

    The digests are kept under ``.bench_work`` keyed by the source hash,
    so repeated runs of one seed pay for the reference once per version
    of the code.
    """
    memo = WORK_ROOT / f"reference-{workload}-s{seed}-{source_digest()}.json"
    if memo.is_file():
        return json.loads(memo.read_text())
    ref = runner.child(
        ["--reference", "--workload", workload, "--seed", str(seed)],
        engine="staged",
    )
    if ref["engine"] != "staged":
        raise BenchError(f"reference ran under {ref['engine']!r}, not staged")
    if all(digest is not None for _, digest in ref["digests"]):
        tmp = memo.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ref["digests"]))
        tmp.replace(memo)
    return ref["digests"]


def check(passes: List[dict], expected: list) -> tuple:
    """(attempted, failed, problems) over every digest list of every pass."""
    attempted = failed = 0
    problems: List[str] = []
    for p in passes:
        problems.extend(p["errors"])
        for digests in p["digests"]:
            if len(digests) != len(expected):
                problems.append(
                    f"{len(digests)} unique cells, expected {len(expected)}"
                )
            for (label, digest), (want_label, want) in zip(digests, expected):
                attempted += 1
                if label != want_label:
                    problem = f"cell {label} is not the expected {want_label}"
                elif digest is None:
                    problem = f"cell {label} raised"
                elif digest != want:
                    problem = f"cell {label}: result digest differs from expected"
                else:
                    continue
                failed += 1
                problems.append(problem)
    return attempted, failed, problems


#: A calibration sample's median time on a 2-core container; times are
#: reported at the host speed it stands for.
CALIBRATION_REF_S = 0.044


def host_factor(p: dict) -> float:
    """Reference over measured host speed during one cold pass: the
    nominal calibration sample over the median of the pass's samples."""
    return CALIBRATION_REF_S / median(p["calibration_s"])


def cold_pass_s(p: dict) -> float:
    """One cold pass at the reference host speed: its wall time less its
    calibration samples, scaled by its host factor."""
    return (p["sweep_s"] - sum(p["calibration_s"])) * host_factor(p)


def median_or_count(values: list):
    """The median; a value every pass agrees on (a count) stays as is."""
    return values[0] if len(set(values)) == 1 else median(values)


def pass_rounds(workload: str, seconds: float, trace: int) -> int:
    """Untraced passes of a run, or untraced/traced pairs of a traced run,
    that fit ``seconds`` at the workload's nominal pass time."""
    fitting = round(seconds / PASS_S[workload])
    if trace:
        return min(max(fitting // 2, MIN_TRACED_PAIRS), MAX_PASSES // 2)
    return min(max(fitting, MIN_PASSES), MAX_PASSES)


def measure(args: argparse.Namespace, runner: Runner) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    untraced: List[dict] = []
    traced: List[dict] = []
    # Traced runs alternate the order within each untraced/traced pair
    # (ABBA), so a steady drift in host speed cancels out of the tracing
    # overhead.
    for k in range(pass_rounds(args.workload, args.seconds, args.trace)):
        if not args.trace:
            untraced.append(runner.child(base))
        elif k % 2 == 0:
            untraced.append(runner.child(base))
            traced.append(runner.child(base + ["--trace", "1"]))
        else:
            traced.append(runner.child(base + ["--trace", "1"]))
            untraced.append(runner.child(base))
    # Extra starts each time set-up and one more warm block, against the
    # last pass's cache: warm passes of one block run within a second,
    # and their fastest follows the host's speed in that second.
    warm_only: List[dict] = []
    while not args.trace and len(untraced) + len(warm_only) < MIN_SETUP_SAMPLES:
        warm_only.append(runner.child(
            base + ["--warm-cache", str(untraced[-1]["passdir"] / "cache")]))
    setups = [p["setup_s"] for p in untraced + warm_only]

    expected = expected_digests(runner, args.workload, args.seed)
    attempted, failed, problems = check(untraced + traced + warm_only, expected)
    sweep = median([cold_pass_s(p) for p in untraced])
    if args.trace:
        layers = traced[0]["layers"]
        metrics = {
            name: median_or_count([p["layers"][name] for p in traced])
            for name in layers
        }
        traced_sweep = median([cold_pass_s(p) for p in traced])
        metrics.update(tracing_metrics(metrics, traced_sweep, sweep))
        shutil.copy(traced[-1]["passdir"] / "spans.json",
                    WORK_ROOT / f"spans-{args.workload}.json")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": median(setups),
            "sweep_s": sweep,
            "warm_s": min(w for p in untraced + warm_only for w in p["warm_s"]),
            "accesses_per_s": untraced[0]["accesses"] / sweep,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        }
        units = E2E_UNITS
    engines = sorted({p["engine"] for p in untraced + traced})
    print(f"workload {args.workload}, seed {args.seed}, engine {', '.join(engines)}, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{len(setups)} set-ups")
    print("cold pass wall, host factor per pass: " + ", ".join(
        f"{p['sweep_s']:.3f} s x {host_factor(p):.3f}" for p in untraced))
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    if len(problems) > 20:
        print(f"FAILED: ... and {len(problems) - 20} more")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


#: Unit of a per-layer metric, by name suffix; anything else is seconds.
LAYER_UNIT_SUFFIXES = (
    (("_calls", "_lines_probed", "_lines_hit", "page_faults", "migrations",
      "_misses"), "count"),
    (("accesses_per_s",), "1/s"),
    (("_ratio", "_fraction", "_share"), "ratio"),
    (("_holds",), "flag"),
    (("_ns_per_access",), "ns"),
    (("_us_per_fault", "_us_per_migration"), "us"),
)


def layer_unit(name: str) -> str:
    for suffixes, unit in LAYER_UNIT_SUFFIXES:
        if name.endswith(suffixes):
            return unit
    return "s"


#: The layers of the ROADMAP baseline ranking, and their metrics.
RANKED_LAYERS = {
    "replay": ("replay.s",),
    "invalidation": ("cache.invalidate_s",),
    "trace build": ("trace.build_s",),
    "fold": ("engine.fold_s",),
    "machine build": ("machine.build_s",),
    "cache I/O": ("parallel.cold_cache_io_s",),
}


def tracing_metrics(layers: Dict[str, float], traced: float, untraced: float) -> dict:
    """Tracing overhead, and whether the ROADMAP baseline ranking holds:
    replay >> invalidation > trace build > fold, machine build > cache I/O."""
    t = {name: sum(layers[m] for m in ms) for name, ms in RANKED_LAYERS.items()}
    print("layer ranking: " + " > ".join(
        f"{name} {t[name]:.3f} s" for name in sorted(t, key=t.get, reverse=True)))
    ranking = (
        t["replay"] > 5 * t["invalidation"]
        and t["invalidation"] > t["trace build"]
        and t["trace build"] > max(t["fold"], t["machine build"])
        and min(t["fold"], t["machine build"]) > t["cache I/O"]
    )
    return {
        "tracing.sweep_s": traced,
        "tracing.untraced_sweep_s": untraced,
        "tracing.overhead_s": traced - untraced,
        "tracing.overhead_share": (traced - untraced) / untraced,
        "tracing.ranking_holds": 1.0 if ranking else 0.0,
    }


def write_expected(runner: Runner) -> None:
    workloads = {
        name: reference_digests(runner, name, DEFAULT_SEED)
        for name in WORKLOAD_NAMES
    }
    EXPECTED.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "engine": "staged", "workloads": workloads},
        indent=1,
    ) + "\n")


def steady(args: argparse.Namespace) -> int:
    """Repeat a workload with consecutive seeds; report spread vs bounds."""
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    values: Dict[str, List[float]] = {}
    print(f"{args.workload}: {args.steady} runs of "
          f"{pass_rounds(args.workload, args.seconds, 0)} passes each")
    for k in range(args.steady):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed + k),
               "--seconds", str(args.seconds), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_DEADLINE_S + 30)
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + k} ({elapsed:.0f} s): " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
    steady_ok = True
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, mid, q3 = quantiles(vals, n=4)
        spread = (q3 - q1) / mid
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE" if spread > bound else "fair"
        # setup_s is reported but exempt; see the module docstring.
        if name != "setup_s" and spread > bound:
            steady_ok = False
        print(f"{name:16s} {mid:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{spread:7.3f} {bound:6.2f} {verdict}")
    return 0 if steady_ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="quick-j1")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat the workload N times and report spread")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json with the staged engine")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.write_expected:
            write_expected(runner)
            return 0
        result = measure(args, runner)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
