"""capcmk benchmark runner.

    python3 perfbench/run.py --workload fine --seed 1 --seconds 20 --trace 0

Workloads: fine, sweep, check, aniso (see workloads.py and README.md), or
`all`, which runs the four one after another.  `--smoke` runs every workload
once on a tiny grid, traced and untraced, and checks that every metric named
in BENCHMARK.json is printed with its unit.

Each op runs in a child forked from this process after it has imported
capcmk, so no state outlives one op.  Set-up (importing capcmk, writing the
inputs, and `check`'s stored solve) runs several times, each in a child of
this process before it imports anything heavy, and `setup_s` is their median.
With `--trace 1`, every input runs twice, untraced then traced; the traced
op gives the per-layer numbers and the pair gives the tracing overhead.

End-to-end times are reported at a reference machine speed.  The host this
was written on is shared, and its speed drifts by a quarter over minutes, so
raw wall times of identical runs spread by more than any useful bound.  Right
after each set-up, and after an op at most once a second, a fresh child times
`probe()`, a fixed kernel that uses no capcmk code.  Each set-up and op time
is multiplied by PROBE_REF_S over the latest probe time.  The raw wall times
are printed beside the scaled ones.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Per-op records and the environment go
to `.perfbench/results/`, and the spans of a traced run to a trace file
beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_OPS = 2  # an input and its repeat, for the determinism check
START_LIMIT_S = 120.0  # no op starts later than this after launch
SMOKE_GRID = (16, 32)
PROBE_EVERY_S = 1.0  # at most one probe per second of run time
PROBE_REF_S = 0.06  # probe time at the reference speed (a quiet 2-core x86-64 VM)

END_TO_END = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.lu.s": "s", "solver.lu.n": "count", "solver.lu.fill": "count",
    "solver.jac.nnz": "count",
    "solver.linearize.s": "s", "solver.linearize.n": "count",
    "solver.residual.s": "s", "solver.residual.n": "count",
    "fields.tau_sharp.s": "s", "fields.tau_sharp.n": "count",
    "symfunc.sigma_k.s": "s",
    "solver.newton_iters": "count", "solver.cont_steps": "count",
    "solver.cont_rejects": "count", "solver.corrector_ok_ratio": "ratio",
    "solver.ls_accept_ratio": "ratio",
    "fields.ops_build.s": "s", "fields.ops_build.n": "count",
    "audit.estimates_audit.s": "s", "audit.steiner.s": "s", "fields.load_field.s": "s",
    "audit.save_embedding.s": "s", "fields.save_field.s": "s", "io.bytes_written": "B",
    "rotsym.solve_rotsym.s": "s", "rotsym.lu.n": "count",
    "cli.sweep.cpu_per_wall": "ratio",
    "xgap": "1",
    "trace.op_s.p50": "s", "trace.overhead_s": "s",
}


# -- child processes -------------------------------------------------------------


def in_child(fn, log: Path):
    """Run fn() in a forked child with stdout and stderr sent to `log`;
    return its JSON-able result.  The child ends before this returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(r)
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            try:
                payload = {"value": fn()}
            except Exception:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"child exited with status {status} without a result; see {log}")
    payload = json.loads(data)
    if "error" in payload:
        raise RuntimeError(f"child failed:\n{payload['error']}")
    return payload["value"]


def probe(reps: int = 3) -> float:
    """Median time of a fixed kernel that uses no capcmk code: a sparse LU
    of a 128x128 grid stencil, a solve, elementwise numpy and a Python loop.
    It measures how fast the machine runs this kind of work right now."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 128
    rng = np.random.default_rng(0)
    lap = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    off = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
    a = (sp.kron(sp.identity(n), lap) + sp.kron(off, sp.identity(n))
         + sp.diags(rng.random(n * n))).tocsc()
    x = rng.standard_normal(n * n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        z = a @ splu(a).solve(x)
        total = 0.0
        for v in (np.sqrt(np.abs(z)) * np.cos(z))[:20000].tolist():
            total += v
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _log_tail(log: Path) -> str:
    lines = [ln for ln in log.read_text(errors="replace").splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def setup_once(wl, seed: int, root: Path):
    """One set-up: import capcmk, write the input pool, workload set-up."""
    t0 = time.perf_counter()
    import capcmk.cli  # noqa: F401  (timed: the import is part of set-up)

    dirs, specs = wl.make_inputs(seed, root)
    wl.setup(dirs)
    return {"seconds": time.perf_counter() - t0, "specs": specs}


def run_op(wl, inp: Path, out: Path, log: Path, op_id: int, traced: bool):
    """Body of one op's child: the CLI commands, then the output checks."""
    from capcmk import cli

    rec = None
    if traced:
        rec = tracing.Recorder(op_id)
        rec.install()
        rec.start_op()
    rcs = []
    t0 = time.perf_counter()
    for argv in wl.commands(inp, out):
        rcs.append(cli.main(argv))
    wall = time.perf_counter() - t0
    if rec is not None:
        rec.end_op()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    sys.stderr.flush()
    result = {"wall_s": wall, "rss_mb": rss_mb, "exit_codes": rcs}
    result.update(wl.check(inp, out, rcs, _log_tail(log)))
    result["digests"] = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in wl.outputs(out) if p.is_file()
    }
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if rec is not None:
        layers = tracing.op_layers(rec.spans, wall)
        fill, nnz = tracing.lu_fill(rec.final_systems)
        layers.update({
            "solver.lu.fill": fill,
            "solver.jac.nnz": nnz,
            "solver.newton_iters": result["newton_iters"],
            "io.bytes_written": written,
        })
        result["layers"] = layers
        result["spans"] = rec.spans
        failures = [s[8] for s in rec.spans if s[1] == "solver.newton_solve" and s[8]]
        if failures:
            result["last_newton_failure"] = failures[-1]
    return result


# -- one workload ---------------------------------------------------------------------


def _median_or_none(values):
    return statistics.median(values) if values else None


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid": args.grid,
    }


def run_workload(args, launched: float):
    wl = WORKLOADS[args.workload](grid=_parse_grid(args.grid) if args.grid else None)
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    run_dir = WORK / f"run-{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(wl, args, run_dir, results_dir, tag, launched)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(wl, args, run_dir, results_dir, tag, launched):
    setups = []
    for rep in range(SETUP_REPS):
        root = run_dir / f"setup{rep}"
        setups.append(in_child(lambda: setup_once(wl, args.seed, root),
                               run_dir / f"setup{rep}.log"))
        setups[-1]["probe_s"] = in_child(probe, run_dir / "probe.log")
    inputs = sorted((run_dir / f"setup{SETUP_REPS - 1}").glob("in*"),
                    key=lambda p: int(p.name[2:]))
    specs = setups[-1]["specs"]

    import capcmk.cli  # noqa: F401  (children inherit it: op time excludes imports)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    ops = []
    probed_at, probe_s = None, None
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        elapsed = time.perf_counter() - t_start
        whole = i >= MIN_OPS and (not args.trace or i % 2 == 0)
        if whole and (elapsed >= args.seconds or time.perf_counter() - launched > START_LIMIT_S):
            break
        # trace 0: input 0, input 0 again, 1, 2, ...; trace 1: 0, 0, 1, 1, ...
        k = i // 2 if args.trace else max(0, i - 1)
        traced = bool(args.trace) and i % 2 == 1
        inp = inputs[k % len(inputs)]
        out, log = run_dir / f"op{i}", run_dir / f"op{i}.log"
        rec = in_child(lambda: run_op(wl, inp, out, log, i, traced), log)
        rec["probe_s"] = None
        if not args.trace and (
                probed_at is None or time.perf_counter() - probed_at >= PROBE_EVERY_S):
            probe_s = rec["probe_s"] = in_child(probe, run_dir / "probe.log")
            probed_at = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        rec.update(op=i, input=k % len(inputs), spec=specs[k % len(inputs)], traced=traced,
                   ref_s=rec["wall_s"] * PROBE_REF_S / probe_s if probe_s else None)
        ops.append(rec)
        status = "ok" if not rec["reasons"] else "FAILED " + "; ".join(rec["reasons"])
        print(f"op {i} input {rec['input']} {'traced ' if traced else ''}"
              f"wall {rec['wall_s']:.4f} s: {status}")

    # determinism: an op on a repeated input must reproduce its first run
    pairs = range(1, len(ops), 2) if args.trace else [1]
    for i in pairs:
        a, b = ops[i - 1], ops[i]
        diff = sorted(n for n in set(a["digests"]) | set(b["digests"])
                      if a["digests"].get(n) != b["digests"].get(n))
        if diff:
            b["reasons"].append(f"outputs differ from op {a['op']}: {', '.join(diff)}")

    failed = sum(1 for o in ops if o["reasons"])
    ok = [o for o in ops if not o["reasons"]]
    if args.trace:
        metrics = _layer_metrics(ops)
        _write_trace(results_dir / f"{wl.name}-s{args.seed}-trace.json", ops, env)
    else:
        op_time = sum(o["ref_s"] for o in ops)
        metrics = {
            "op_s.p50": _median_or_none([o["ref_s"] for o in ok]),
            "ops_per_s": len(ok) / op_time,
            "ok_frac": len(ok) / len(ops),
            "setup_s": statistics.median(
                s["seconds"] * PROBE_REF_S / s["probe_s"] for s in setups),
            "peak_rss_mb": max(o["rss_mb"] for o in ops),
        }
        raw = {
            "op_s.p50": _median_or_none([o["wall_s"] for o in ok]),
            "ops_per_s": len(ok) / sum(o["wall_s"] for o in ops),
            "setup_s": statistics.median(s["seconds"] for s in setups),
        }
        print(f"samples op_s.p50 n={len(ok)}; ops_per_s {len(ok)} ok ops over "
              f"{op_time:.3f} s of op time; setup_s over {SETUP_REPS} set-ups; "
              f"{sum(1 for o in ops if o['probe_s'])} op probes")
        for name, value in raw.items():
            print(f"raw wall {name} = {value} {END_TO_END[name]}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")

    for o in ops:
        o.pop("spans", None)
    record = {"env": env, "setups": setups, "ops": ops, "metrics": metrics}
    if not args.trace:
        record["raw_wall"] = raw
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def _layer_metrics(ops):
    traced = [o for o in ops if o["traced"]]
    metrics = {}
    for name in PER_LAYER:
        values = [o["layers"][name] for o in traced if name in o.get("layers", {})]
        if values:
            metrics[name] = statistics.median(values)
    gaps = [o["xgap"] for o in traced if o["xgap"] is not None]
    metrics["xgap"] = max(gaps) if gaps else None
    metrics["trace.op_s.p50"] = statistics.median(o["wall_s"] for o in traced)
    metrics["trace.overhead_s"] = statistics.median(
        ops[i]["wall_s"] - ops[i - 1]["wall_s"] for i in range(1, len(ops), 2))
    return {name: metrics.get(name) for name in PER_LAYER}


def _write_trace(path: Path, ops, env):
    # span ids are unique within an op, so self time is taken op by op
    traced = [o for o in ops if o["traced"]]
    self_s = {}
    for o in traced:
        for name, secs in tracing.self_times(o["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + secs / len(traced)
    spans = [s for o in traced for s in o["spans"]]
    fields = ["id", "name", "start", "end", "parent", "op", "thread", "cpu_s", "error"]
    path.write_text(json.dumps({
        "env": env,
        "span_fields": fields,
        "spans": spans,
        "self_s_per_op": dict(sorted(self_s.items())),
    }))
    print("self time per traced op (span minus its children):")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  self {name} = {secs:.6f} s")


# -- several workloads -------------------------------------------------------------------


def _subrun(argv, timeout):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run {' '.join(argv)} failed ({proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return lines


def run_all(args):
    """Every workload one after another; prints each workload's metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--grid", args.grid] if args.grid else [])
        lines = _subrun(argv, timeout=600)
        res = json.loads(lines[-1])
        for ln in lines[:-1]:
            if ln.startswith(("metric ", "samples ", "raw wall ")):
                print(f"{name}: {ln}")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def smoke(args):
    """Every workload once per trace mode on a tiny grid; every metric named in
    BENCHMARK.json must be printed, with its unit.  Returns the failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    grid = f"{SMOKE_GRID[0]}x{SMOKE_GRID[1]}"
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            lines = _subrun(["--workload", name, "--seed", str(args.seed), "--seconds", "0",
                             "--trace", str(trace), "--grid", grid], timeout=300)
            res = json.loads(lines[-1])
            for m in want[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace {trace}: {m['name']} [{m['unit']}] "
                                    f"not printed (got {got})")
                elif f"metric {m['name']} = " not in "\n".join(lines):
                    problems.append(f"{name} trace {trace}: no `metric {m['name']}` line")
            print(f"smoke {name} trace {trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}")
    return problems


# -- entry point ------------------------------------------------------------------------


def _parse_grid(text):
    nb, nphi = text.lower().split("x")
    return int(nb), int(nphi)


def main(argv=None):
    launched = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", default=None, help="override the workload grid, e.g. 16x32")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-grid run of every workload; checks the metric names")
    args = ap.parse_args(argv)
    if args.workload is None and not args.smoke:
        ap.error("--workload is required")

    if not (SRC / "capcmk" / "cli.py").is_file():
        print(f"capcmk sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    if args.smoke:
        problems = smoke(args)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print("smoke: " + ("FAILED" if problems else "every metric printed with its unit"))
        return 1 if problems else 0
    result = run_all(args) if args.workload == "all" else run_workload(args, launched)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
