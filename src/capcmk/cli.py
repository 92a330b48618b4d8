"""Command-line front end: solve, verify, oracle, sweep, and selftest.

Exit codes: 0 success, 1 configuration, input or usage error, 2 solve did
not converge (a continuation stall; report.json records where and why), 3 a
mandatory audit failed.  Commands raise; `main` maps the exception to
its exit code and prints one stderr line, `<command>: <message>`.
A stored solution (`verify`, `oracle --solution`) brings its own grid; only
its theta must match the config's.
Output files are deterministic for identical inputs: JSON is written with
sorted keys, wall-clock timing is excluded, and the selftest battery takes
its seed from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .audit import (
    af_inequality_check,
    estimates_audit,
    mixed_volume,
    save_embedding,
    steiner_sigma_check,
    steiner_volume_check,
    mixed_volume_repeated,
    surface_points,
)
from .config import ConfigError, RunConfig, load_config
from .fields import (
    CapField,
    CapGrid,
    boundary_tau_identity_residual,
    load_field,
    save_field,
    tau_sharp,
)
from .geometry import (
    CapParams,
    ell_field,
    make_capillary_test_function,
    random_capillary_field,
    random_neumann_factor,
)
from .rotsym import barrier_height_check, cross_check_gap, save_profile, solve_rotsym
from .solver import ContinuationStall, jacobian_fd_error, phi_q, residual, solve_path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_AUDIT = 3


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _jsonable(obj):
    """Strict-JSON copy: non-finite floats (corrupted-input audits) become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _parse_grid(text: str):
    m = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not m:
        raise ConfigError(f"--grid expects NbetaxNphi (e.g. 64x128), got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.grid:
        nb, np_ = _parse_grid(args.grid)
        cfg = replace(cfg, nbeta=nb, nphi=np_)
        cfg.grid()
    return cfg


def _stored_solution(path, cfg: RunConfig) -> CapField:
    """The stored field at path, on its own grid; only its theta must match
    the config's."""
    s = load_field(path)
    if abs(s.grid.theta - cfg.params.theta) > 1e-12:
        raise ConfigError(f"theta mismatch: solution grid has {s.grid.theta!r}, "
                          f"config wants {cfg.params.theta!r}")
    return s


def _solution_audit(s: CapField, phi: CapField, cfg: RunConfig, pts) -> dict:
    """Residual recheck plus the full geometric audit battery on one field;
    pts is surface_points(s), which serves the reconstruction and the base
    volume (and, in solve, the embedding)."""
    params = cfg.params
    # one tau_sharp(s) serves the residual and every audit below
    tau = tau_sharp(s)
    # stored fields are untrusted: a negative value under the fractional power
    # yields NaN, which correctly fails the threshold test below
    with np.errstate(invalid="ignore"):
        fint, gbd = residual(s, params.p, phi, params, tau=tau)
    imax = float(np.max(np.abs(fint)))
    bmax = float(np.max(np.abs(gbd)))
    g = s.grid
    scale = max(1.0, float(np.max(phi.values)))
    # a stored continuum solution carries the O(h^2) discretization residual,
    # so the acceptance line sits above it but far below any real corruption
    threshold = max(10.0 * cfg.schedule.tol_solve, 50.0 * g.dbeta**2 * scale)
    res = {
        "interior_max": imax,
        "robin_max": bmax,
        "threshold": threshold,
        "pass": bool(math.isfinite(imax) and math.isfinite(bmax)
                     and max(imax, bmax) <= threshold),
    }
    est = estimates_audit(s, phi, params, tau=tau, pts=pts)
    st_sigma = [steiner_sigma_check(s, t, params, tau=tau) for t in (0.1, 0.5, 1.0)]
    st_volume = steiner_volume_check(s, (0.1, 0.5, 1.0), params, tau=tau, pts=pts)
    mandatory = (
        res["pass"]
        and est["all_passed"]
        and all(c["pass"] for c in st_sigma)
        and all(c["pass"] for c in st_volume)
    )
    return {
        "residual": res,
        "estimates": est,
        "steiner_sigma": st_sigma,
        "steiner_volume": st_volume,
        "mandatory_pass": bool(mandatory),
    }


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# what a command raises for a request it cannot serve (ConfigError is a ValueError)
_FAILURES = (ContinuationStall, ValueError, OSError)


def _exit_code(exc: Exception) -> int:
    return EXIT_NO_CONVERGENCE if isinstance(exc, ContinuationStall) else EXIT_CONFIG


def _solve_reported(report: dict, out: Path, solve, *args, **kwargs):
    """solve(*args, **kwargs) -> (solution, SolveReport), with its record in
    report["solve"].  A ContinuationStall propagates after report.json, with
    the partial record, is written into out (made if missing)."""
    try:
        sol, rep = solve(*args, **kwargs)
    except ContinuationStall as stall:
        report["solve"] = stall.report.to_dict()
        out.mkdir(parents=True, exist_ok=True)
        _write_json(report, out / "report.json")
        raise
    report["solve"] = rep.to_dict()
    return sol, rep


def _solve_and_write(cfg: RunConfig, phi: CapField, out: Path):
    """Solve for phi and write report.json into out; on convergence also
    solution.csv and audit.json.

    Returns (s, SolveReport, audit, surface_points(s)).  A
    ContinuationStall propagates after its partial report.json is written; a
    ValueError from solve_path (an invalid problem) propagates with nothing
    written.
    """
    report = {
        "problem": asdict(cfg.params),
        "grid": {"nbeta": cfg.nbeta, "nphi": cfg.nphi},
        "phi": cfg.phi,
    }
    s, rep = _solve_reported(report, out, solve_path, phi, cfg.params, cfg.schedule)
    ref = cfg.manufactured_reference(phi.grid)
    if ref is not None:
        report["manufactured_sup_error"] = float(np.max(np.abs(s.values - ref.values)))
    pts = surface_points(s)
    audit = _solution_audit(s, phi, cfg, pts)
    save_field(s, out / "solution.csv")
    _write_json(report, out / "report.json")
    _write_json(audit, out / "audit.json")
    return s, rep, audit, pts


# -- commands ------------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = _load(args)
    phi = cfg.phi_field(cfg.grid())
    out = _outdir(args)
    _say(args, f"solve: n={cfg.params.n} k={cfg.params.k} p={cfg.params.p:g} "
               f"theta={cfg.params.theta:.6g} grid={cfg.nbeta}x{cfg.nphi}")
    s, rep, audit, pts = _solve_and_write(cfg, phi, out)
    save_embedding(s, out / "embedding.csv", pts=pts)
    fallback = f" (direct Newton failed: {rep.direct_failure})" if rep.direct_failure else ""
    _say(args, f"converged by {rep.method}{fallback} on {' -> '.join(dict.fromkeys(rep.grids))} "
               f"in {len(rep.t_steps)} steps ({sum(rep.newton_iters)} Newton steps, "
               f"{sum(rep.factorizations)} LU factorizations); "
               f"residual {rep.residual_norms[-1]:.3e}, relative {rep.relative_residual:.3e}; "
               f"audits {'pass' if audit['mandatory_pass'] else 'FAIL'}")
    return EXIT_OK if audit["mandatory_pass"] else EXIT_AUDIT


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if cfg.params.n != 2:
        raise ConfigError(f"full-field audits are restricted to n = 2, got n = "
                          f"{cfg.params.n}; use oracle")
    s = _stored_solution(args.solution, cfg)
    phi = cfg.phi_field(s.grid)
    audit = _solution_audit(s, phi, cfg, surface_points(s))
    out = _outdir(args)
    _write_json(audit, out / "audit.json")
    ok = audit["mandatory_pass"]
    _say(args, f"verify: residual {audit['residual']['interior_max']:.3e} "
               f"(threshold {audit['residual']['threshold']:.3e}); "
               f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    if args.solution and cfg.params.n != 2:
        raise ConfigError(f"--solution takes an n = 2 solution, got n = {cfg.params.n}")
    profile_fn = cfg.phi_profile()
    s2 = _stored_solution(args.solution, cfg) if args.solution else None
    report = {
        "problem": asdict(cfg.params),
        "phi": cfg.phi,
        "oracle_cells": cfg.oracle_cells,
    }
    # solve_rotsym checks phi, so the directory is made only once it has passed
    profile, rep = _solve_reported(report, Path(args.out), solve_rotsym, profile_fn,
                                   cfg.params, cfg.schedule, n_cells=cfg.oracle_cells)
    out = _outdir(args)
    barrier = barrier_height_check(profile, cfg.params)
    report["barrier"] = barrier
    if s2 is not None:
        report["cross_check_gap"] = cross_check_gap(profile, s2)
        _say(args, f"cross-check gap vs 2-D solution: {report['cross_check_gap']:.3e}")
    save_profile(profile, cfg.params, out / "profile.csv")
    _write_json(report, out / "report.json")
    _say(args, f"oracle converged; barrier audit {'pass' if barrier['pass'] else 'FAIL'}")
    return EXIT_OK if barrier["pass"] else EXIT_AUDIT


def _sweep_member(cfg: RunConfig, name: str, p: float, theta: float, out: Path) -> dict:
    rec = {"name": name, "p": p, "theta": theta}
    try:
        params = CapParams(n=cfg.params.n, k=cfg.params.k, p=p, theta=theta)
        mcfg = replace(cfg, params=params)
        grid = mcfg.grid()
        phi = mcfg.phi_field(grid)
        mdir = out / name
        mdir.mkdir(parents=True, exist_ok=True)
        s, rep, audit, _ = _solve_and_write(mcfg, phi, mdir)
    except _FAILURES as exc:
        rec.update(exit=_exit_code(exc), error=(
            f"stalled at t = {exc.t:.6f}: {exc.report.failure}"
            if isinstance(exc, ContinuationStall) else str(exc)))
        return rec
    items = {it["name"]: it for it in audit["estimates"]["items"]}
    rec.update(
        exit=EXIT_OK if audit["mandatory_pass"] else EXIT_AUDIT,
        height=items["height_positive"]["lhs"],
        max_s=float(np.max(s.values)),
        max_bound_margin=items["max_lower_bound"]["margin"],
        slope_pass=items["slope_bound"]["pass"],
        path_lam1min=min(rep.lam1min_trace),
        newton_steps=int(sum(rep.newton_iters)),
        factorizations=int(sum(rep.factorizations)),
    )
    return rec


def _sweep_job(job: tuple) -> dict:
    """_sweep_member(*job), looked up per call: the pool pickles what it maps by
    name, and the benchmark tracer replaces `_sweep_member` with a local closure."""
    return _sweep_member(*job)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    points = cfg.sweep_points()
    _say(args, f"sweep: {len(points)} members over p in {list(cfg.sweep_p)}, "
               f"theta in {[f'{t:.6g}' for t in cfg.sweep_theta]}")
    # forked workers inherit the imported modules; one per CPU this process may
    # use, or one where the CPU count is unknown (os.cpu_count() may be None)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=min(cpus, len(points)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        members = list(pool.map(_sweep_job, [(cfg, *pt, out) for pt in points]))
    converged = [m for m in members if m["exit"] == EXIT_OK]
    summary = {
        "members": members,
        "all_ok": bool(all(m["exit"] == EXIT_OK for m in members)),
        "min_height": min((m["height"] for m in converged), default=None),
        "min_path_lam1min": min((m["path_lam1min"] for m in converged), default=None),
    }
    _write_json(summary, out / "sweep_summary.json")
    for m in members:
        status = "ok" if m["exit"] == EXIT_OK else f"exit {m['exit']}"
        _say(args, f"  {m['name']}: {status}")
    if summary["all_ok"]:
        _say(args, f"sweep complete; min height {summary['min_height']:.6g}")
        return EXIT_OK
    return max(m["exit"] for m in members)


def cmd_selftest(args) -> int:
    """Seeded identity battery against the pinned tolerances; no files written."""
    rng = np.random.default_rng(args.seed)
    theta = math.pi / 4
    params = CapParams(n=2, k=1, p=1.5, theta=theta)
    coarse = CapGrid(32, 64, theta)
    fine = CapGrid(64, 128, theta)
    checks = []

    tau = tau_sharp(ell_field(coarse))
    dev = max(
        float(np.max(np.abs(tau.a11 - 1.0))),
        float(np.max(np.abs(tau.a12))),
        float(np.max(np.abs(tau.a22 - 1.0))),
    )
    checks.append(("model endomorphism is the identity", dev, dev <= 4e-3))

    ok = True
    worst = 0.0
    for _ in range(3):
        v = random_neumann_factor(theta, rng)
        rc = boundary_tau_identity_residual(make_capillary_test_function(coarse, v))
        rf = boundary_tau_identity_residual(make_capillary_test_function(fine, v))
        worst = max(worst, rf / rc)
        ok = ok and rf < rc
    checks.append(("rim identity residual shrinks under refinement", worst, ok))

    s = random_capillary_field(coarse, rng)
    rec = steiner_sigma_check(s, 0.5, params)
    checks.append(("parallel-shift binomial expansion", rec["margin"], rec["pass"]))

    s0 = random_capillary_field(coarse, rng)
    s1 = random_capillary_field(coarse, rng)
    gap = abs(mixed_volume([s0, s1], params) - mixed_volume_repeated(s0, s1, params))
    rel = gap / max(1.0, abs(mixed_volume_repeated(s0, s1, params)))
    checks.append(("mixed volume matches the direct repeated form", rel, rel <= 1e-10))

    worst = 0.0
    ok = True
    for _ in range(5):
        a = random_capillary_field(coarse, rng)
        b = random_capillary_field(coarse, rng)
        m = af_inequality_check(a, b, params)["rel_margin"]
        worst = min(worst, m)
        ok = ok and m >= -1e-8
    eq = abs(af_inequality_check(s0, 1.3 * s0, params)["rel_margin"])
    checks.append(("quadratic mixed-volume inequality", worst, ok))
    checks.append(("inequality is tight on proportional pairs", eq, eq <= 1e-10))

    q = 1.0 + (params.p - 1.0)
    rhs = phi_q(CapField(coarse, np.full((33, 64), 1.2), even=True), q, params)
    v = CapField(coarse, rng.standard_normal((33, 64)))
    jerr = jacobian_fd_error(random_capillary_field(coarse, rng), q, rhs, params, v)
    checks.append(("Jacobian action matches finite differences", jerr, jerr <= 1e-5))

    failed = [c for c in checks if not c[2]]
    for name, value, ok in checks:
        _say(args, f"  {'ok  ' if ok else 'FAIL'} {name} ({value:.3e})")
    if failed:
        print(f"selftest: {len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_AUDIT
    _say(args, f"selftest: all {len(checks)} checks passed (seed {args.seed})")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="capcmk",
        description="Curvature-equation solver and verification suite on the spherical cap.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, *, grid=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if grid:
            p.add_argument("--grid", default=None, help="override grid as NbetaxNphi, e.g. 64x128")
        p.add_argument("--quiet", action="store_true", help="suppress status lines")
        return p

    command("solve", "run the continuation solve and audits")
    command("verify", "recheck a stored solution on its own grid", grid=False).add_argument(
        "--solution", required=True, help="stored solution CSV")
    command("oracle", "run the 1-D rotationally symmetric reduction", grid=False).add_argument(
        "--solution", default=None, help="optional 2-D solution CSV to cross-check against")
    command("sweep", "solve a (p, theta) lattice concurrently")
    p = sub.add_parser("selftest", help="run the seeded identity battery")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized battery")
    p.add_argument("--quiet", action="store_true", help="suppress status lines")
    return ap


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except _FAILURES as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
