"""One `sinegate` call in a fresh interpreter, timed from the inside.

Started by `run.py` once per iteration, from the root of the checkout:

    python3 perfbench/worker.py SPAWN_TIME REPORT CONFIG TRACE [CLI ARG ...]

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide on Linux), so set-up time includes
interpreter start. With no CLI arguments the worker only sets up, validates
the workload and exits. REPORT receives one JSON object.

`setup_s` and `run_s` are wall times scaled to a nominal machine speed by
the probe in `speed.py`, which runs during set-up and during the call; the
raw wall times are `setup_wall_s` and `run_wall_s`.
"""

import time
import sys

from speed import SpeedProbe, scaled  # perfbench/ is sys.path[0]


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    spawn_time, report_path, config_path, trace = sys.argv[1:5]
    cli_args = sys.argv[5:]

    t0 = time.perf_counter()
    import sinegate.cli
    import_s = time.perf_counter() - t0

    recorder = None
    if trace == "1":
        from spans import SpanRecorder  # perfbench/ is sys.path[0]

        recorder = SpanRecorder()
        recorder.install()

    cfg = sinegate.cli.load_config(config_path)
    setup_wall_s = time.monotonic() - float(spawn_time)
    setup_probe_s = probe.stop()
    modules_loaded = len(sys.modules)
    scipy_stats_loaded = int("scipy.stats" in sys.modules)

    import json
    import math
    import resource
    from sinegate.config import validate_config

    errors = validate_config(cfg.merged)
    if errors:
        print(f"workload config {config_path} is invalid: {errors}", file=sys.stderr)
        return 3
    det = cfg.merged["detector"]
    ap = det["afterpulse"]
    if ap["enabled"]:
        gate_period_ns = 1e9 / det["gate"]["gate_frequency_hz"]
        branching = (ap["trap_fill_per_detection"] * ap["trigger_prob_per_gate"]
                     / (1.0 - math.exp(-gate_period_ns / ap["release_lifetime_ns"])))
        if branching >= 1.0:
            print(f"workload config {config_path}: afterpulse branching ratio "
                  f"{branching:.3g} >= 1 would run away; refusing to run", file=sys.stderr)
            return 3

    report = {"setup_s": scaled(setup_wall_s, setup_probe_s), "setup_wall_s": setup_wall_s,
              "setup_probe_s": setup_probe_s, "import_s": import_s,
              "modules_loaded": modules_loaded, "scipy_stats_loaded": scipy_stats_loaded}
    if cli_args:
        probe.start()
        t0 = time.perf_counter()
        report["exit_code"] = sinegate.cli.main(cli_args)
        run_wall_s = time.perf_counter() - t0
        run_probe_s = probe.stop()
        report["run_s"] = scaled(run_wall_s, run_probe_s)
        report["run_wall_s"] = run_wall_s
        report["run_probe_s"] = run_probe_s
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            from spans import holdoff_probe, layer_metrics

            recorder.uninstall()
            report["layers"] = layer_metrics(recorder, holdoff_probe(recorder))
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
