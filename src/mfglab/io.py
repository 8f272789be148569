"""Deterministic on-disk formats: CSV tables and JSON metadata.

Every writer produces byte-identical output for identical inputs: floats go
through repr-faithful %.17g, JSON keys are sorted, newlines are fixed, and
no timestamps are recorded.  Tables carry header rows; metadata is JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .grid import Grid, Prism, make_grid
from .kernels import Kernel
from .carleman import CarlemanReport, LemmaReport
from .mfg import MFGTriple
from .stability import StabilityParams, SweepReport

__all__ = [
    "fmt",
    "save_field_csv",
    "load_field_csv",
    "save_grid_json",
    "load_grid_json",
    "save_triple_dir",
    "save_history_csv",
    "save_carleman_family",
    "save_lemma_reports",
    "save_sweep_report",
    "stability_params_to_dict",
    "save_provenance",
]


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return "%.17g" % float(x)


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A header row and comma-joined rows of already-formatted cells."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_array_csv(path: str, index_names: Sequence[str], values: np.ndarray) -> None:
    """One row per entry in C order: its indices, then its value.  Each
    line of the last axis is one write: its index prefix is formatted once,
    and each value through a tail that holds its last index."""
    prefix = "%d," * (values.ndim - 1)
    tails = [f"{j},%.17g\n" for j in range(values.shape[-1])]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([*index_names, "value"]) + "\n")
        for idx in np.ndindex(values.shape[:-1]):
            head = prefix % idx
            fh.write("".join([head + tail % x for tail, x in zip(tails, values[idx].tolist())]))


# ---------------------------------------------------------------------------
# fields and grids


def save_field_csv(values: np.ndarray, path: str) -> None:
    """One row per node of a space-time array: spatial indices, time index,
    value."""
    names = [f"i{a}" for a in range(values.ndim - 1)] + ["j"]
    _write_array_csv(path, names, values)


def load_field_csv(grid: Grid, path: str) -> np.ndarray:
    """Read the space-time array ``save_field_csv`` wrote on ``grid``.  Every
    row holds exactly the node's indices and a finite value, and sets a node
    no other row sets, and every node is set.  Rows count from the header,
    row 1."""
    values = np.full(grid.shape, np.nan)
    seen = np.zeros(grid.shape, dtype=bool)
    columns = grid.dim + 2
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != columns:
            raise ValueError(f"{path}: expected {columns} columns, found {len(header)}")
        for n, row in enumerate(reader, 2):
            if len(row) != columns:
                raise ValueError(
                    f"{path}: expected {columns} fields, found {len(row)} in row {n}"
                )
            try:
                idx = tuple(int(c) for c in row[:-1])
                value = float(row[-1])
            except ValueError:
                raise ValueError(f"{path}: non-numeric index or value {row} in row {n}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value {row[-1]} in row {n}")
            if not all(0 <= i < m for i, m in zip(idx, grid.shape)):
                raise ValueError(
                    f"{path}: index {idx} outside the grid shape {grid.shape} in row {n}"
                )
            if seen[idx]:
                raise ValueError(f"{path}: node {idx} set a second time in row {n}")
            seen[idx] = True
            values[idx] = value
    if not seen.all():
        idx = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise ValueError(f"{path}: node {idx} is never set")
    return values


def save_grid_json(grid: Grid, path: str) -> None:
    p = grid.prism
    _write_json(path, {"a": p.a, "b": p.b, "half_widths": list(p.half_widths), "T": p.T,
                       "nx": grid.nx, "nt": grid.nt})


def load_grid_json(path: str) -> Grid:
    with open(path) as fh:
        d = json.load(fh)
    return make_grid(Prism(d["a"], d["b"], tuple(d["half_widths"]), d["T"]), d["nx"], d["nt"])


# ---------------------------------------------------------------------------
# triples and histories


def save_triple_dir(triple: MFGTriple, outdir: str, *, f: np.ndarray, kernel: Kernel) -> None:
    """Write grid.json, u.csv, m.csv, k.csv, f.csv, kernel.json and the
    solver report."""
    os.makedirs(outdir, exist_ok=True)
    g = triple.grid
    save_grid_json(g, os.path.join(outdir, "grid.json"))
    save_field_csv(triple.u, os.path.join(outdir, "u.csv"))
    save_field_csv(triple.m, os.path.join(outdir, "m.csv"))
    _write_array_csv(
        os.path.join(outdir, "k.csv"), [f"i{a}" for a in range(g.dim)], triple.k
    )
    save_field_csv(f, os.path.join(outdir, "f.csv"))
    _write_json(os.path.join(outdir, "kernel.json"), dataclasses.asdict(kernel))
    report = {
        key: val for key, val in triple.report.items() if key != "history"
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    history = triple.report.get("history")
    if history is not None:
        save_history_csv(history, os.path.join(outdir, "history.csv"))


def save_history_csv(history: Sequence[float], path: str) -> None:
    _write_csv(
        path, ["iteration", "change"], ([str(i), fmt(c)] for i, c in enumerate(history))
    )


# ---------------------------------------------------------------------------
# carleman reports


def save_carleman_family(
    reports: Sequence[CarlemanReport], outdir: str, c0: float | None, lambda0: float | None
) -> None:
    """Family sweep: one CSV row per (member, sign, lambda) plus summary JSON."""
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "carleman.csv"),
        ["member", "sign", "lambda", "lhs", "main", "boundary",
         "negligible", "negligible_log", "passed"],
        (
            [str(idx), str(rep.sign), fmt(lam), fmt(rep.lhs[i]),
             fmt(rep.main[i]), fmt(rep.boundary[i]),
             fmt(rep.negligible[i]), fmt(rep.negligible_log[i]),
             str(int(rep.passed[i]))]
            for idx, rep in enumerate(reports)
            for i, lam in enumerate(rep.lambdas)
        ),
    )
    _write_json(
        os.path.join(outdir, "carleman.json"),
        {
            "c0": c0,
            "lambda0": lambda0,
            "members": len(reports),
            "restricted": bool(reports[0].restricted) if reports else False,
        },
    )


def save_lemma_reports(reports: Sequence[LemmaReport], outdir: str) -> None:
    """lemmas.csv, one row per report and lambda, and lemmas.json, one entry
    per report.  ``reports`` come lemma by lemma, as ``verify_lemma``
    returns them; the ``sample`` column numbers them within each lemma."""
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "lemmas.csv"),
        ["which", "sample", "lambda", "ratio"],
        (
            [rep.which, str(sample), fmt(lam), fmt(ratio)]
            for _, lemma_reports in itertools.groupby(reports, key=lambda rep: rep.which)
            for sample, rep in enumerate(lemma_reports)
            for lam, ratio in zip(rep.lambdas, rep.ratios)
        ),
    )
    summary = [
        {
            "which": rep.which,
            "c_bound": rep.c_bound,
            "spread": rep.spread,
            "slope": rep.slope,
            "passed": rep.passed,
            "degenerate": rep.degenerate,
        }
        for rep in reports
    ]
    _write_json(os.path.join(outdir, "lemmas.json"), summary)


# ---------------------------------------------------------------------------
# sweep reports and parameters


def stability_params_to_dict(params: StabilityParams) -> dict:
    return {
        "rho": str(params.rho),
        "epsilon": str(params.epsilon),
        "T": str(params.T),
        "a": str(params.a),
        "b": str(params.b),
        "lam1": params.lam1,
        "s": str(params.s),
        "beta": str(params.beta),
        "alpha": str(params.alpha),
        "d": str(params.d),
        "beta_float": float(params.beta),
        "alpha_float": float(params.alpha),
        "d_float": float(params.d),
        "delta0": params.delta0,
    }


def save_sweep_report(report: SweepReport, outdir: str, params: StabilityParams) -> None:
    """sweep.csv with one row per scale, fit.json and params.json."""
    os.makedirs(outdir, exist_ok=True)
    cols = ["scale", "delta", "err_k", "err_u_s0", "err_u_s1", "err_u_s2",
            "err_m_s0", "err_m_s1", "err_m_s2"]
    _write_csv(
        os.path.join(outdir, "sweep.csv"),
        cols,
        ([fmt(row[c]) for c in cols] for row in report.rows),
    )
    def _num(x: float):
        return None if x != x else x

    _write_json(
        os.path.join(outdir, "fit.json"),
        {
            "slope": _num(report.slope),
            "intercept": _num(report.intercept),
            "r_squared": _num(report.r_squared),
            "delta_decades": report.delta_decades(),
            "completeness": report.completeness,
            "excluded": list(report.excluded),
        },
    )
    _write_json(os.path.join(outdir, "params.json"), stability_params_to_dict(params))


def save_provenance(outdir: str, payload: Mapping) -> None:
    """Re-run recipe for an output directory; deliberately timestamp-free."""
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "provenance.json"), dict(payload))
