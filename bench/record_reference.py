"""Record the reference tables that bench/run.py compares against.

Usage, from the repository root, at the commit whose outputs are the
reference:  python3 bench/record_reference.py
Runs every (subcommand, m_traj) the workloads use at REFERENCE_SEED with
one thread and writes the error and stderr columns to bench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import parse_table
from run import BENCH, REFERENCE_SEED, ROOT, WORKLOADS, Runner


def main() -> int:
    work = ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tables: dict = {}
    try:
        for wl in WORKLOADS.values():
            for m_traj in (1, wl.m_traj):
                slot = tables.setdefault(wl.command, {})
                if str(m_traj) in slot:
                    continue
                runner = Runner(wl, work, {"seed": None})
                if runner.cli(m_traj, REFERENCE_SEED, 1).returncode != 0:
                    print(f"{wl.command} m_traj={m_traj} failed", file=sys.stderr)
                    return 1
                out = max(p for p in work.glob("out*") if p.is_dir())
                slot[str(m_traj)] = {}
                for path in sorted(out.glob("*.csv")):
                    table = parse_table(path.read_text())
                    slot[str(m_traj)][path.name] = {"error": table.errors,
                                                    "stderr": table.stderrs}
                shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "reference.json", "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "tables": tables}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
