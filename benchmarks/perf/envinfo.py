"""The machine a result was measured on, recorded in every results file."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

#: Pinned to one thread before numpy is imported: two shards times N
#: BLAS threads on two cores would measure oversubscription.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for name in THREAD_PINS:
        os.environ[name] = "1"


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints instead of returning
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint(root: Path) -> Dict[str, object]:
    """What is known when a run starts; :func:`finish` adds the rest."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_sha": _git_sha(root),
        "platform": platform.platform(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def finish(env: Dict[str, object]) -> Dict[str, object]:
    """Close the fingerprint. A run is ``noisy`` (not failed) when the
    one-minute load average was above the core count as it *started*:
    by the end it mostly reflects the benchmark's own threads and
    worker processes, so the end value is recorded but not judged."""
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["noisy"] = env["loadavg_1m_start"] > (env["nproc"] or 1)
    return env
