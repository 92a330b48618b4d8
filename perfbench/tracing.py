"""Span tracing for the benchmark, installed from outside the package.

`Recorder.install()` replaces module attributes of capcmk (every binding of a
traced function in the traced modules) with wrappers that record one span per
call: name, start, end, parent span, op id, thread id, thread CPU time, and
the exception text if the call raised.  Nothing under `src/` changes; the
wrappers live here and are installed only in the forked child that runs a
traced op, so the child exits with them and no other op sees them.

Span names are `<defining module>.<function>`, except sparse LU calls, which
are named after the calling module (`solver.lu`, `rotsym.lu`), and the first
`CapGrid.ops()` call per grid object (`fields.ops_build`).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import weakref

# Modules whose attributes are wrapped.  `config` is included only so that the
# `phi.kind = file` read shows up under fields.load_field.
TRACED_MODULES = ("cli", "solver", "fields", "symfunc", "audit", "rotsym", "config")

# capcmk functions traced under their own name, wherever they are bound.
TRACED_FUNCTIONS = (
    ("solver", "solve_path"),
    ("solver", "newton_solve"),
    ("solver", "linearize"),
    ("solver", "residual"),
    ("fields", "tau_sharp"),
    ("symfunc", "sigma_k"),
    ("fields", "load_field"),
    ("fields", "save_field"),
    ("audit", "save_embedding"),
    ("audit", "estimates_audit"),
    ("audit", "steiner_sigma_check"),
    ("audit", "steiner_volume_check"),
    ("rotsym", "solve_rotsym"),
    ("cli", "_sweep_member"),
)

# Sparse factorizations, named after the module that calls them.
LU_BINDINGS = (
    ("solver", ("spsolve", "splu", "factorized"), "solver.lu"),
    ("rotsym", ("spsolve", "splu", "factorized"), "rotsym.lu"),
)

ROOT_SPAN = "op"


class Recorder:
    """In-memory span store for one op; see the module docstring."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []  # (id, name, start, end, parent, op, thread, cpu_s, error)
        self.active = False
        self.final_systems = []  # last matrix each solve_path factorized
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._last_matrix = {}
        self._grids_seen = {}

    # -- spans ---------------------------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        error = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op_id,
                               threading.get_ident(), cpu, error))

    def start_op(self):
        """Open the op's root span and start recording."""
        self._root = next(self._ids)
        self._root_start = time.perf_counter()
        self._root_cpu = time.thread_time()
        self.active = True

    def end_op(self):
        """Close the root span and stop recording; later calls pass through."""
        self.active = False
        self.spans.append((self._root, ROOT_SPAN, self._root_start, time.perf_counter(),
                           None, self.op_id, threading.get_ident(),
                           time.thread_time() - self._root_cpu, None))

    # -- installation ----------------------------------------------------------
    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_lu(self, name, fn):
        def traced(a, *args, **kwargs):
            if self.active:
                self._last_matrix[threading.get_ident()] = a
            return self._call(name, fn, (a,) + args, kwargs)

        return traced

    def _wrap_solve_path(self, fn):
        def traced(*args, **kwargs):
            try:
                return self._call("solver.solve_path", fn, args, kwargs)
            finally:
                last = self._last_matrix.pop(threading.get_ident(), None)
                if self.active and last is not None:
                    self.final_systems.append(last)

        return traced

    def _wrap_ops(self, fn):
        # a span only for the first call per grid object: that call builds
        recorder = self

        def ops(grid):
            key = id(grid)
            ref = recorder._grids_seen.get(key)
            if ref is not None and ref() is grid:
                return fn(grid)
            recorder._grids_seen[key] = weakref.ref(grid)
            return recorder._call("fields.ops_build", fn, (grid,), {})

        return ops

    def install(self):
        mods = {m: importlib.import_module(f"capcmk.{m}") for m in TRACED_MODULES}
        for home, attr in TRACED_FUNCTIONS:
            original = getattr(mods[home], attr)
            name = f"{home}.{attr}"
            wrapper = (self._wrap_solve_path(original) if name == "solver.solve_path"
                       else self._wrap(name, original))
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for home, attrs, name in LU_BINDINGS:
            for attr in attrs:
                original = getattr(mods[home], attr, None)
                if original is not None:
                    setattr(mods[home], attr, self._wrap_lu(name, original))
        grid_cls = mods["fields"].CapGrid
        grid_cls.ops = self._wrap_ops(grid_cls.ops)


# -- aggregation --------------------------------------------------------------------


def _inclusive(spans, names):
    """Busy seconds of spans with one of `names`, not counting a span nested
    inside another span of the same name twice."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p = s[4]
        nested = False
        while p is not None and p in by_id:
            if by_id[p][1] in names:
                nested = True
                break
            p = by_id[p][4]
        if not nested:
            total += s[3] - s[2]
    return total


def self_times(spans):
    """Per-name self time: each span's duration minus the union of the
    intervals its children cover (children may run on other threads)."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(children.get(s[0], [])):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s[1]] = out.get(s[1], 0.0) + (end - start) - covered
    return out


def op_layers(spans, op_wall):
    """Per-layer numbers of one traced op from its spans."""

    def n(name):
        return sum(1 for s in spans if s[1] == name)

    def busy(*names):
        return _inclusive(spans, set(names))

    by_id = {s[0]: s for s in spans}
    newton = [s for s in spans if s[1] == "solver.newton_solve"]
    rejects = sum(1 for s in newton if s[8] and s[8].startswith("NewtonFailure"))
    ls_failures = sum(1 for s in newton if s[8] and "line search" in s[8])
    trials = sum(1 for s in spans if s[1] == "solver.residual"
                 and s[4] in by_id and by_id[s[4]][1] == "solver.newton_solve") - len(newton)
    accepted_steps = n("solver.linearize") - ls_failures
    member_cpu = sum(s[7] for s in spans if s[1] == "cli._sweep_member")
    return {
        "solver.lu.s": busy("solver.lu"),
        "solver.lu.n": n("solver.lu"),
        "solver.linearize.s": busy("solver.linearize"),
        "solver.linearize.n": n("solver.linearize"),
        "solver.residual.s": busy("solver.residual"),
        "solver.residual.n": n("solver.residual"),
        "fields.tau_sharp.s": busy("fields.tau_sharp"),
        "fields.tau_sharp.n": n("fields.tau_sharp"),
        "symfunc.sigma_k.s": busy("symfunc.sigma_k"),
        "solver.cont_steps": len(newton) - rejects,
        "solver.cont_rejects": rejects,
        "solver.corrector_ok_ratio": (len(newton) - rejects) / len(newton) if newton else 0.0,
        "solver.ls_accept_ratio": accepted_steps / trials if trials > 0 else 0.0,
        "fields.ops_build.s": busy("fields.ops_build"),
        "fields.ops_build.n": n("fields.ops_build"),
        "audit.estimates_audit.s": busy("audit.estimates_audit"),
        "audit.steiner.s": busy("audit.steiner_sigma_check", "audit.steiner_volume_check"),
        "fields.load_field.s": busy("fields.load_field"),
        "audit.save_embedding.s": busy("audit.save_embedding"),
        "fields.save_field.s": busy("fields.save_field"),
        "rotsym.solve_rotsym.s": busy("rotsym.solve_rotsym"),
        "rotsym.lu.n": n("rotsym.lu"),
        "cli.sweep.cpu_per_wall": member_cpu / op_wall if op_wall > 0 else 0.0,
    }


def lu_fill(systems):
    """(max nnz(L)+nnz(U), max nnz(A)) over the given matrices, refactorized
    once each with splu's defaults, which are spsolve's."""
    from scipy.sparse.linalg import splu

    fill = nnz = 0
    for a in systems:
        a = a.tocsc()
        lu = splu(a)
        fill = max(fill, lu.L.nnz + lu.U.nnz)
        nnz = max(nnz, a.nnz)
    return fill, nnz
