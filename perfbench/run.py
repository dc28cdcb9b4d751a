"""sinegate benchmark: one workload, timed in fresh interpreters, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcspc-bright --seed 1 --seconds 20 --trace 0

Each iteration starts `perfbench/worker.py` in a fresh interpreter, which
imports `sinegate.cli`, loads the workload config and calls
`sinegate.cli.main` once. Iterations repeat with the same seed for
`--seconds` seconds (at least two, so that reruns can be compared). With
`--trace 0` the last line of stdout is a JSON object holding the end-to-end
metrics; with `--trace 1` untraced and traced iterations alternate and it
holds the per-layer metrics instead. A results file with the environment and
every sample goes to `.perfbench_work/results/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path("perfbench")
WORK_DIR = Path(".perfbench_work")
# A run must end within 180 s; stop starting workers after this long.
DEADLINE_S = 165.0
MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5

# default 70 ps detector jitter (pinned in the config) with the 30 ps laser
BRIGHT_FWHM_PS = math.hypot(70.0, 30.0)
BRIGHT_FWHM_TOLERANCE = 0.10
# max |count - mean| / sqrt(mean) over 8 Poisson-like segments; p < 1e-5
MAX_POISSON_Z = 5.0


def _summary(out: Path, base: str) -> dict:
    """A key/value table emitted as CSV or JSON, as {key: value}."""
    json_path = out / f"{base}.json"
    if json_path.exists():
        return {k: v for k, v in json.loads(json_path.read_text())["rows"]}
    with open(out / f"{base}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = {"true": True, "false": False}
    return {k: parsed.get(v, v) for k, v in rows}


def _check_tcspc_bright(out: Path) -> list[str]:
    s = _summary(out, "summary")
    fwhm = float(s["fwhm_ps"])
    errors = []
    if abs(fwhm / BRIGHT_FWHM_PS - 1.0) > BRIGHT_FWHM_TOLERANCE:
        errors.append(f"fwhm_ps {fwhm:.2f} not within {BRIGHT_FWHM_TOLERANCE:.0%} "
                      f"of {BRIGHT_FWHM_PS:.2f}")
    if int(s["n_dark"]) != 0 or int(s["n_afterpulse"]) != 0:
        errors.append("darks and afterpulses are off but were generated")
    if int(s["n_records"]) <= 0:
        errors.append("no records")
    return errors


def _check_tcspc_afterpulse(out: Path) -> list[str]:
    n = int(_summary(out, "summary")["n_afterpulse"])
    return [] if n > 0 else [f"n_afterpulse is {n}, expected > 0"]


def _check_link_stability(out: Path) -> list[str]:
    s = _summary(out, "stability_summary")
    z = float(s["max_abs_poisson_z"])
    errors = [] if z < MAX_POISSON_Z else [f"max_abs_poisson_z {z:.3f} >= {MAX_POISSON_Z}"]
    if int(s["n_segments"]) != 8:
        errors.append(f"n_segments is {s['n_segments']}, expected 8")
    return errors


def _check_chain_demo(out: Path) -> list[str]:
    s = _summary(out, "summary")
    errors = [] if s["filter_contract_ok"] is True else ["filter_contract_ok is not true"]
    if int(s["n_crossings"]) != int(s["n_avalanches"]):
        errors.append(f"n_crossings {s['n_crossings']} != n_avalanches {s['n_avalanches']}")
    return errors


# name -> (sinegate subcommand and format, output check)
WORKLOADS = {
    "tcspc-bright": (["tcspc", "--format", "csv"], _check_tcspc_bright),
    "tcspc-afterpulse": (["tcspc", "--format", "json"], _check_tcspc_afterpulse),
    "link-stability": (["stability", "--format", "csv"], _check_link_stability),
    "chain-demo": (["chain-demo", "--format", "csv"], _check_chain_demo),
}


def check_manifest(out: Path) -> tuple[dict, list[str]]:
    """Digests of every file in `out`, and errors if the manifest misreports one."""
    errors = []
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["name"]: f for f in manifest["emitted_files"]}
    on_disk = sorted(p.name for p in out.iterdir())
    if set(on_disk) != set(listed) | {"manifest.json"}:
        errors.append(f"files {on_disk} do not match the manifest {sorted(listed)}")
    digests = {}
    for name in on_disk:
        data = (out / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        entry = listed.get(name)
        if entry and (entry["sha256"] != digests[name] or entry["bytes"] != len(data)):
            errors.append(f"manifest digest or size of {name} does not match the file")
    return digests, errors


class Runner:
    """Starts workers for one workload and checks what they write."""

    def __init__(self, workload: str, seed: int):
        self.command, self.check = WORKLOADS[workload]
        self.config = str(BENCH_DIR / "workloads" / f"{workload}.json")
        self.work = WORK_DIR / workload
        self.out = self.work / "out"
        self.report = self.work / "report.json"
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.reference_digests = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _spawn(self, trace: bool, cli_args: list[str]) -> tuple[dict | None, str]:
        self.report.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "worker.py")]
        spawn = time.monotonic()
        argv += [repr(spawn), str(self.report), self.config, "1" if trace else "0", *cli_args]
        try:
            proc = subprocess.run(argv, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
        if proc.returncode != 0 or not self.report.exists():
            return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return json.loads(self.report.read_text()), ""

    def setup_only(self) -> dict | None:
        report, error = self._spawn(False, [])
        if report is None:
            print(f"set-up failed: {error}", file=sys.stderr)
        return report

    def iteration(self, trace: bool) -> dict | None:
        """One checked `sinegate` call; None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        cli_args = [*self.command, "--config", self.config, "--seed", str(self.seed),
                    "--out", str(self.out), "--workers", "1"]
        report, error = self._spawn(trace, cli_args)
        errors = [error] if report is None else []
        if report is not None:
            if report["exit_code"] != 0:
                errors.append(f"sinegate exited {report['exit_code']}")
            else:
                try:
                    digests, errors = check_manifest(self.out)
                    errors += self.check(self.out)
                except (OSError, KeyError, ValueError) as exc:
                    digests, errors = None, [f"output unreadable: {exc!r}"]
                if digests is not None:
                    if self.reference_digests is None:
                        self.reference_digests = digests
                    elif digests != self.reference_digests:
                        kind = "traced and untraced" if trace else "repeated"
                        errors.append(f"{kind} runs with seed {self.seed} emitted "
                                      "different bytes")
                    report["bytes_out"] = sum(p.stat().st_size for p in self.out.iterdir())
        if errors:
            self.failed += 1
            self.failures += [f"iteration {self.attempted}: {e}" for e in errors]
            return None
        return report


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = Path(".git") / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (Path(".git") / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "workers": 1,
    }


def _keep_going(runner: Runner, started: float, done: int, minimum: int,
                seconds: float) -> bool:
    """Start another iteration unless it would end past `seconds` or the deadline."""
    elapsed = time.monotonic() - started
    per_iteration = elapsed / max(done, 1)
    if per_iteration >= runner.remaining():
        return False
    return done < minimum or elapsed + per_iteration <= seconds


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics from untraced iterations."""
    keys = ("setup_s", "setup_wall_s", "setup_probe_s")
    samples = {k: [] for k in (*keys, "run_s", "run_wall_s", "run_probe_s", "peak_rss_mb")}
    started, done = time.monotonic(), 0
    while _keep_going(runner, started, done, MIN_ITERATIONS, seconds):
        done += 1
        report = runner.iteration(trace=False)
        if report is not None:
            for key, values in samples.items():
                values.append(report[key])
    while (samples["run_s"] and len(samples["setup_s"]) < MIN_SETUP_SAMPLES
           and runner.remaining() > 10.0):
        report = runner.setup_only()
        if report is None:
            break
        for key in keys:
            samples[key].append(report[key])
    if not samples["run_s"]:
        return {}
    return {"samples": samples,
            "medians": {k: statistics.median(v) for k, v in samples.items()}}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics from traced iterations, each paired with an untraced one."""
    plain, traced = [], []
    started, pairs = time.monotonic(), 0
    while _keep_going(runner, started, pairs, 1, seconds):
        pairs += 1
        a = runner.iteration(trace=False)
        b = runner.iteration(trace=True)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
    if not traced:
        return {}
    values: dict[str, list[float]] = {}
    for report in traced:
        layers = dict(report["layers"])
        layers["setup.import_sinegate.s"] = report["import_s"]
        layers["setup.modules_loaded"] = report["modules_loaded"]
        layers["setup.scipy_stats_loaded"] = report["scipy_stats_loaded"]
        layers["cli.bytes_out"] = report["bytes_out"]
        layers["wall.run_s"] = report["run_wall_s"]
        layers["speed.probe_us"] = report["run_probe_s"] * 1e6
        for key, value in layers.items():
            values.setdefault(key, []).append(value)
    values["trace.overhead_s"] = [statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain)]
    values["fail_rate"] = [runner.failed / runner.attempted]
    return {"samples": {"untraced_run_s": [r["run_s"] for r in plain],
                        "traced_run_s": [r["run_s"] for r in traced],
                        "layers": values},
            "medians": {k: statistics.median(v) for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "sinegate" / "cli.py").is_file():
        print("no sinegate sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    runner.work.mkdir(parents=True, exist_ok=True)
    # warm-up: compiles bytecode, validates the workload; not a sample
    if runner.setup_only() is None:
        return 2

    result = (measure_traced if args.trace else measure)(runner, args.seconds)
    correct = bool(result) and runner.failed == 0
    # metric names and units are defined once, in BENCHMARK.json
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {}
    if result:
        metrics = {m["name"]: {"value": result["medians"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "attempted": runner.attempted,
              "failed": runner.failed, "fail_rate": runner.failed / max(runner.attempted, 1),
              "failures": runner.failures, "samples": result.get("samples"),
              "metrics": metrics}
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for failure in runner.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"failed {runner.failed} of {runner.attempted} iterations")
    print(f"results: {results_path}")
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed if runner.attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
