"""The environment block written into every report."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict

from repro import columnar

import spec
from common import Options

#: threads the benchmark itself runs beside the program's workers
#: (serve_mixed: one query scheduler and one writer); must fit the cores.
GENERATOR_THREADS = 2


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(options: Options) -> Dict[str, Any]:
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    warnings = []
    if load > cores:
        warnings.append(f"1-min load average {load:.2f} exceeds {cores} cores: "
                        "timings will be noisy")
    if GENERATOR_THREADS > cores:
        warnings.append(f"{GENERATOR_THREADS} generator threads on {cores} cores: "
                        "serve_mixed generators will run late")
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": columnar.have_numpy(),
        "columnar_backend": columnar.active_backend(),
        "nproc": cores,
        "load_1min": load,
        "generator_threads": GENERATOR_THREADS,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": options.seed,
        "seconds": options.seconds,
        "scale": options.scale,
        "traced": options.trace,
        "warnings": warnings,
    }
