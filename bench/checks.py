"""Output checks on the CSV tables that `fracwave table1|table2` writes.

One table is one check.  A table written at the reference seed is compared
number by number with the values recorded from the seed program
(`reference.json`, made by `record_reference.py`); the `# build` line is
not compared, because it carries `git describe`.  A table written at any
other seed is checked for properties every correct run has: finite
positive errors that fall as the resolution is refined and, for table 1,
a Monte Carlo mean close to the exact expectation (`exact.py`).

This module needs only the standard library, so the benchmark can check
outputs without importing the program.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

#: Relative tolerances against the recorded values, per subcommand.  Table 1
#: must agree to 1e-12; table 2 to 1e-10, which admits an exact error formula
#: that does not cancel in place of today's one at 1/h <= 100.
REL_TOL = {"table1": 1e-12, "table2": 1e-10}

#: Largest accepted distance, in exact standard errors, between the Monte
#: Carlo mean squared error and its exact expectation.  Mode 1 dominates the
#: error, so the sample mean of M squared errors is close to a scaled
#: chi-square with M degrees of freedom; its upper tail at 7 standard errors
#: is below 1e-7 for M >= 64.  The check catches gross excess error; the
#: recorded values at the reference seed are the precise check.
Z_MAX = 7.0


@dataclass
class Table:
    meta: dict
    resolutions: list
    errors: list
    stderrs: list


def parse_table(text: str) -> Table:
    """Parse a rate-table CSV; raises ValueError when it is malformed."""
    meta, rows = {}, []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].partition("=")
            if not sep:
                raise ValueError(f"bad metadata line {line!r}")
            meta[key.strip()] = val.strip()
        elif not header_seen:
            if line != "resolution,error,rate,stderr":
                raise ValueError(f"bad header {line!r}")
            header_seen = True
        elif line:
            cells = line.split(",")
            if len(cells) != 4:
                raise ValueError(f"bad row {line!r}")
            rows.append((float(cells[0]), float(cells[1]), float(cells[3])))
    if not header_seen or not rows:
        raise ValueError("no table")
    res, err, se = (list(col) for col in zip(*rows))
    return Table(meta=meta, resolutions=res, errors=err, stderrs=se)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_pinned(table: Table, ref: dict, rel_tol: float) -> str | None:
    """Compare errors and stderrs with recorded values; None when they match."""
    for key, got_all in (("error", table.errors), ("stderr", table.stderrs)):
        want_all = ref[key]
        if len(got_all) != len(want_all):
            return f"{key}: {len(got_all)} rows, expected {len(want_all)}"
        for i, (got, want) in enumerate(zip(got_all, want_all)):
            if not _close(got, want, rel_tol):
                return f"{key}[{i}] = {got!r}, recorded {want!r}"
    return None


def check_properties(table: Table, m_traj: int, moments=None) -> str | None:
    """Checks that hold at every seed; None when all pass.

    moments, when given, lists the exact (mean, variance) of one
    trajectory's squared error for each row.  The exact means must then
    strictly fall along the rows, and each Monte Carlo mean must lie near
    its exact one.  The Monte Carlo errors themselves need not fall where
    adjacent exact errors differ by less than the sampling noise (table 1,
    alpha = 1.1, dt = 1/100 against 1/125: a ratio of 1.17 at M = 64).
    Without moments (table 2, whose errors fall by 1.6x or more per row)
    the Monte Carlo errors must strictly fall.
    """
    errs = table.errors
    if not all(math.isfinite(e) and e > 0.0 for e in errs):
        return f"errors not finite and positive: {errs}"
    falling = [mean for mean, _ in moments] if moments else errs
    if not all(a > b for a, b in zip(falling, falling[1:])):
        kind = "exact mean squared errors" if moments else "errors"
        return f"{kind} do not strictly fall with the resolution: {falling}"
    if not all(math.isfinite(s) and s >= 0.0 for s in table.stderrs):
        return f"stderrs not finite and non-negative: {table.stderrs}"
    for i, (err, (mean, var)) in enumerate(zip(errs, moments or ())):
        z = (err * err - mean) / math.sqrt(var / m_traj)
        if abs(z) > Z_MAX:
            return f"row {i}: mean squared error {err * err!r} is {z:.1f} exact SEs from {mean!r}"
    return None


def check_table(path: str, expect: dict, ref: dict | None, rel_tol: float,
                moments=None) -> str | None:
    """All checks on one CSV file; returns the first failure or None.

    expect holds the metadata the table must carry (alpha, beta, m_traj,
    seed) and its resolution column.
    """
    try:
        with open(path) as fh:
            table = parse_table(fh.read())
    except (OSError, ValueError) as exc:
        return f"{os.path.basename(path)}: {exc}"
    for key in ("alpha", "beta", "m_traj", "seed"):
        if table.meta.get(key) != str(expect[key]):
            return f"{os.path.basename(path)}: {key} = {table.meta.get(key)}, expected {expect[key]}"
    if table.resolutions != expect["resolutions"]:
        return f"{os.path.basename(path)}: resolutions {table.resolutions}"
    if ref is not None:
        msg = check_pinned(table, ref, rel_tol)
    else:
        msg = check_properties(table, expect["m_traj"], moments)
    return f"{os.path.basename(path)}: {msg}" if msg else None
