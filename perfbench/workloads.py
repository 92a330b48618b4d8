"""The four benchmark workloads: their inputs, CLI commands and output checks.

Each op is one CLI unit driven through `capcmk.cli.main(argv)`.  k, p and the
grid are fixed per workload; theta and the data come from the seed.  Inputs
are a randomly shifted Halton sequence, so every prefix of a run's inputs
spreads evenly over the stated ranges and a run's median does not hinge on a
few draws.  The program sees only the config and field files written here.

capcmk is imported inside functions: the runner imports this module before
it times the import of capcmk.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

XGAP_GATE = 1e-3  # the acceptance gate on the 2-D vs 1-D gap
_PRIMES = (2, 3, 5)


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def draws(seed: int, count: int, dims: int):
    """`count` points of [0, 1)^dims: Halton points with a seeded shift."""
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(dims)]
    return [[(_halton(i + 1, b) + s) % 1.0 for b, s in zip(_PRIMES, shift)]
            for i in range(count)]


def _lerp(u, lo, hi):
    return lo + (hi - lo) * u


def _config_text(k, p, theta, nbeta, nphi, phi_lines):
    return "".join(
        f"{line}\n" for line in (
            "n = 2", f"k = {k}", f"p = {p!r}", f"theta = {theta!r}",
            f"grid.nbeta = {nbeta}", f"grid.nphi = {nphi}", *phi_lines,
        )
    )


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _oracle_gap(cfg_path: Path, solution: Path, k=None, p=None, theta=None):
    """Largest 2-D vs 1-D gap of one stored solution, via the library."""
    from dataclasses import replace

    from capcmk.config import load_config
    from capcmk.fields import load_field
    from capcmk.geometry import CapParams
    from capcmk.rotsym import cross_check_gap, solve_rotsym

    cfg = load_config(cfg_path)
    if p is not None:
        cfg = replace(cfg, params=CapParams(n=2, k=k, p=p, theta=theta))
    profile, _ = solve_rotsym(cfg.phi_profile(), cfg.params, cfg.schedule,
                              n_cells=cfg.oracle_cells)
    return cross_check_gap(profile, load_field(solution))


def _solve_checks(out: Path, log_tail: str):
    """Checks shared by a `solve` output directory (or a sweep member's).

    Returns (failure reasons, 2-D Newton iterations, stall record or None).
    """
    reasons, iters, stall = [], 0, None
    report_path = out / "report.json"
    if not report_path.is_file():
        reasons.append(f"{out.name}: no report.json ({log_tail})")
        return reasons, iters, {"t": None, "last_residual": None, "message": log_tail}
    solve = _read_json(report_path)["solve"]
    iters = int(sum(solve["newton_iters"]))
    if not solve["converged"]:
        last = solve["residual_norms"][-1] if solve["residual_norms"] else None
        stall = {"t": solve["stalled_at"], "last_residual": last, "message": log_tail}
        reasons.append(f"{out.name}: not converged, stalled at t = {solve['stalled_at']}"
                       f" (last accepted residual {last}; {log_tail})")
        return reasons, iters, stall
    audit_path = out / "audit.json"
    if not audit_path.is_file():
        reasons.append(f"{out.name}: no audit.json")
    elif not _read_json(audit_path)["mandatory_pass"]:
        reasons.append(f"{out.name}: audit mandatory_pass is false")
    return reasons, iters, stall


class Workload:
    """One workload; subclasses fill in inputs, commands and checks."""

    name = ""
    k = 1
    p = 1.5
    nbeta, nphi = 128, 256
    pool = 16  # distinct inputs made at set-up; ops cycle through them
    dims = 2

    def __init__(self, grid=None):
        if grid is not None:
            self.nbeta, self.nphi = grid

    def make_inputs(self, seed: int, root: Path):
        """Write the input pool under `root`; return (dirs, specs)."""
        dirs, specs = [], []
        for i, u in enumerate(draws(seed, self.pool, self.dims)):
            d = root / f"in{i}"
            d.mkdir(parents=True)
            specs.append(self.write_input(u, d))
            dirs.append(d)
        return dirs, specs

    def write_input(self, u, d: Path) -> dict:
        raise NotImplementedError

    def setup(self, inputs) -> None:
        """Extra set-up work on the input pool (only `check` has any)."""

    def commands(self, inp: Path, out: Path):
        raise NotImplementedError

    def outputs(self, out: Path):
        """Deterministic output files that must repeat byte for byte."""
        return [out / n for n in ("report.json", "audit.json", "solution.csv")]

    def check(self, inp: Path, out: Path, rcs, log_tail: str) -> dict:
        raise NotImplementedError


def _rcs_reasons(rcs):
    return [f"exit code {rc}" for rc in rcs if rc != 0]


class Fine(Workload):
    """`capcmk solve`, k=1, p=1.5, 128x256, rotsym data 1 + c1(1 - cos beta)."""

    name = "fine"

    def write_input(self, u, d):
        c1 = _lerp(u[0], 0.2, 0.4)
        theta = _lerp(u[1], math.pi / 6, math.pi / 3)
        (d / "run.cfg").write_text(_config_text(
            self.k, self.p, theta, self.nbeta, self.nphi,
            ["phi.kind = rotsym_expr", f"phi.coeffs = 1.0,{c1!r}"]))
        return {"c1": c1, "theta": theta}

    def commands(self, inp, out):
        return [["solve", "--config", str(inp / "run.cfg"), "--out", str(out), "--quiet"]]

    def check(self, inp, out, rcs, log_tail):
        reasons = _rcs_reasons(rcs)
        more, iters, stall = _solve_checks(out, log_tail)
        reasons += more
        xgap = None
        if not more:
            xgap = _oracle_gap(inp / "run.cfg", out / "solution.csv")
            if not xgap <= XGAP_GATE:
                reasons.append(f"xgap {xgap:.3e} above {XGAP_GATE:g}")
        return {"reasons": reasons, "newton_iters": iters, "stall": stall, "xgap": xgap}


class Aniso(Fine):
    """`capcmk solve`, k=1, 128x256, even data that is not rotationally
    symmetric: 1 + c1(1 - cos beta) + a cos(2 phi) sin^2(beta), given as a
    field file."""

    name = "aniso"
    pool = 4
    dims = 3

    def write_input(self, u, d):
        import numpy as np

        from capcmk.fields import CapField, CapGrid, save_field

        c1 = _lerp(u[0], 0.2, 0.4)
        theta = _lerp(u[1], math.pi / 6, math.pi / 3)
        a = _lerp(u[2], 0.01, 0.05)
        g = CapGrid(self.nbeta, self.nphi, theta)
        bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
        raw = 1.0 + c1 * (1.0 - np.cos(bb)) + a * np.cos(2.0 * pp) * np.sin(bb) ** 2
        save_field(CapField(g, raw, even=True), d / "phi.csv")
        (d / "run.cfg").write_text(_config_text(
            self.k, self.p, theta, self.nbeta, self.nphi,
            ["phi.kind = file", f"phi.path = {d / 'phi.csv'}"]))
        return {"c1": c1, "theta": theta, "a": a}

    def check(self, inp, out, rcs, log_tail):
        # no 1-D oracle exists for data that is not rotationally symmetric
        reasons = _rcs_reasons(rcs)
        more, iters, stall = _solve_checks(out, log_tail)
        return {"reasons": reasons + more, "newton_iters": iters, "stall": stall,
                "xgap": None}


class Sweep(Workload):
    """`capcmk sweep`, k=2, 64x128, the default 3x3 (p, theta) lattice."""

    name = "sweep"
    k = 2
    nbeta, nphi = 64, 128
    pool = 12
    dims = 1

    def write_input(self, u, d):
        c1 = _lerp(u[0], 0.2, 0.4)
        # theta is a placeholder: every member sets its own from the lattice
        (d / "run.cfg").write_text(_config_text(
            self.k, self.p, math.pi / 4, self.nbeta, self.nphi,
            ["phi.kind = rotsym_expr", f"phi.coeffs = 1.0,{c1!r}"]))
        return {"c1": c1}

    def commands(self, inp, out):
        return [["sweep", "--config", str(inp / "run.cfg"), "--out", str(out), "--quiet"]]

    def _members(self, out):
        path = out / "sweep_summary.json"
        return _read_json(path)["members"] if path.is_file() else []

    def outputs(self, out):
        files = [out / "sweep_summary.json"]
        for m in self._members(out):
            files += super().outputs(out / m["name"])
        return files

    def check(self, inp, out, rcs, log_tail):
        reasons = _rcs_reasons(rcs)
        path = out / "sweep_summary.json"
        if not path.is_file():
            return {"reasons": reasons + ["no sweep_summary.json"], "newton_iters": 0,
                    "stall": None, "xgap": None}
        summary = _read_json(path)
        if not summary["all_ok"]:
            reasons.append("sweep_summary all_ok is false")
        iters, stalls, gaps = 0, [], []
        for m in summary["members"]:
            mdir = out / m["name"]
            more, n, stall = _solve_checks(mdir, m.get("error", log_tail))
            reasons += more
            iters += n
            if stall:
                stalls.append({"member": m["name"], **stall})
            if not more:
                gap = _oracle_gap(inp / "run.cfg", mdir / "solution.csv",
                                  k=self.k, p=m["p"], theta=m["theta"])
                gaps.append(gap)
                if not gap <= XGAP_GATE:
                    reasons.append(f"{m['name']}: xgap {gap:.3e} above {XGAP_GATE:g}")
        return {"reasons": reasons, "newton_iters": iters, "stall": stalls or None,
                "xgap": max(gaps) if gaps else None}


class Check(Workload):
    """`capcmk verify` then `capcmk oracle --solution` on one stored 128x256
    k=1 solution that set-up computes once per run."""

    name = "check"
    pool = 1

    write_input = Fine.write_input

    def setup(self, inputs):
        from capcmk import cli

        for d in inputs:
            rc = cli.main(["solve", "--config", str(d / "run.cfg"),
                           "--out", str(d / "stored"), "--quiet"])
            if rc != 0:
                raise RuntimeError(f"stored solve for `check` exited with {rc}")

    def commands(self, inp, out):
        common = ["--config", str(inp / "run.cfg"),
                  "--solution", str(inp / "stored" / "solution.csv"),
                  "--out", str(out), "--quiet"]
        return [["verify", *common], ["oracle", *common]]

    def outputs(self, out):
        return [out / n for n in ("audit.json", "report.json", "profile.csv")]

    def check(self, inp, out, rcs, log_tail):
        reasons = _rcs_reasons(rcs)
        xgap = None
        if not (out / "audit.json").is_file():
            reasons.append("no audit.json from verify")
        elif not _read_json(out / "audit.json")["mandatory_pass"]:
            reasons.append("verify: audit mandatory_pass is false")
        if not (out / "report.json").is_file():
            reasons.append(f"no report.json from oracle ({log_tail})")
        else:
            report = _read_json(out / "report.json")
            if not report["solve"]["converged"]:
                reasons.append("oracle: not converged")
            xgap = report.get("cross_check_gap")
            if xgap is None or not xgap <= XGAP_GATE:
                reasons.append(f"oracle: cross_check_gap {xgap} above {XGAP_GATE:g}")
        return {"reasons": reasons, "newton_iters": 0, "stall": None, "xgap": xgap}


WORKLOADS = {w.name: w for w in (Fine, Sweep, Check, Aniso)}
