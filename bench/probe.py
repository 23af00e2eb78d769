"""Fresh-process probe: import time and versions.

Usage: PYTHONPATH=src python3 bench/probe.py
Prints one JSON object.  `import_s` is the time to `import fracwave.cli`
in this fresh interpreter.
"""

from __future__ import annotations

import json
import sys
import time

t0 = time.perf_counter()
import fracwave.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    print(json.dumps({
        "import_s": import_s,
        "fracwave_file": fracwave.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
    }))
