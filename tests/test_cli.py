import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from capcmk.cli import main as cli_main
from capcmk.config import ConfigError, load_config, parse_kv_text
from capcmk.fields import CapGrid, load_field, save_field
from capcmk.geometry import ell, ell_field
from capcmk.solver import Schedule

BASE = """\
n = 2
k = 1
p = 1.5
theta = pi/3
"""

SOLVE_CFG = BASE + """\
grid.nbeta = 16
grid.nphi = 32
phi.kind = cap_manufactured
phi.r = 1.3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out):
    """report.json of an output directory; every step names its grid."""
    report = json.loads((out / "report.json").read_text())
    assert len(report["solve"]["grids"]) == len(report["solve"]["t_steps"])
    return report


# -- config parsing -----------------------------------------------------------------


def test_parse_kv_text_strips_comments_and_blanks():
    table = parse_kv_text("# header\n\nn = 2  # trailing\n k = 1\n")
    assert table == {"n": "2", "k": "1"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n = 2\nn = 3\n", "duplicate"),
        ("n = 2\nbogus.key = 1\n", "unknown"),
        (" = 2\n", "empty key"),
        ("just a line\n", "key = value"),
    ],
)
def test_parse_kv_text_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_kv_text(text)


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.params.n == 2 and cfg.params.k == 1
    assert cfg.params.theta == pytest.approx(math.pi / 3)
    assert (cfg.nbeta, cfg.nphi) == (64, 128)
    assert cfg.phi == {"kind": "constant", "value": 1.0}
    assert cfg.oracle_cells == 512
    assert cfg.sweep_p == (1.2, 1.5, 1.8)
    assert cfg.sweep_theta == pytest.approx((math.pi / 6, math.pi / 4, math.pi / 3))
    assert cfg.schedule == Schedule()


@pytest.mark.parametrize(
    "theta_text,value",
    [("pi/6", math.pi / 6), ("0.25*pi", math.pi / 4), ("1.0471975511965976", 1.0471975511965976)],
)
def test_load_config_angle_forms(tmp_path, theta_text, value):
    text = f"n = 2\nk = 1\np = 1.5\ntheta = {theta_text}\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.params.theta == pytest.approx(value)


@pytest.mark.parametrize(
    "text",
    [
        "n = 2\nk = 1\np = 3.0\ntheta = pi/3\n",              # p outside (1, k+1)
        "n = 2\nk = 1\ntheta = pi/3\n",                        # missing p
        "n = 2\nk = 1\np = 1.5\ntheta = sixty\n",              # unparseable angle
        "n = 2\nk = 1\np = 1.5\ntheta = pi\n",                 # theta outside (0, pi/2)
        "n = 2\nk = 1\np = 1.5\ntheta = pi/0\n",               # zero denominator
        BASE + "phi.kind = quadratic\n",                        # unknown phi kind
        BASE + "phi.kind = file\n",                             # file kind without path
        BASE + "phi.kind = constant\nphi.value = -1\n",         # nonpositive data
        BASE + "phi.kind = cap_manufactured\nphi.r = 0\n",      # nonpositive scale
        BASE + "phi.kind = constant\nphi.value = nan\n",        # non-finite data
        BASE + "phi.kind = cap_manufactured\nphi.r = inf\n",    # non-finite scale
        BASE + "schedule.dt_min = 0\n",                         # nonpositive step floor
        BASE + "schedule.tol_solve = 0\n",                      # nonpositive tolerance
        BASE + "schedule.tol_solve = nan\n",                    # non-finite tolerance
        BASE + "schedule.newton_max = 2.5\n",                   # non-integer budget
        BASE + "schedule.newton_max = -3\n",                    # negative budget
        BASE + "grid.nbeta = 4\n",                              # grid too coarse
        BASE + "phi.kind = rotsym_expr\nphi.coeffs = 1,oops\n", # bad coefficient list
        BASE + "phi.kind = rotsym_expr\nphi.coeffs = 1,nan\n",  # non-finite coefficient
        BASE + "oracle.cells = 4\n",                            # oracle grid too coarse
        BASE + "sweep.p_list = 1.5, 1.5\n",                     # repeated sweep member
        BASE + "sweep.theta_list = pi/3, 1.0471975\n",          # sweep members named alike
    ],
)
def test_load_config_rejects_bad_values(tmp_path, text):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize(
    "phi_lines,unread",
    [
        ("phi.coeffs = 1, 0.3\n", "phi.coeffs"),                 # no kind: constant
        ("phi.kind = constant\nphi.r = 2\nphi.path = a.csv\n", "phi.path, phi.r"),
        ("phi.kind = cap_manufactured\nphi.value = 2\n", "phi.value"),
        ("phi.kind = rotsym_expr\nphi.coeffs = 1\nphi.r = 1.3\n", "phi.r"),
        ("phi.kind = file\nphi.path = a.csv\nphi.coeffs = 1\n", "phi.coeffs"),
    ],
    ids=["no-kind", "constant", "cap_manufactured", "rotsym_expr", "file"],
)
def test_a_phi_key_the_kind_does_not_read_is_an_error(tmp_path, capsys, phi_lines, unread):
    cfg = write_cfg(tmp_path, BASE + phi_lines)
    with pytest.raises(ConfigError, match=f"^{re.escape(unread)}: not read by phi.kind"):
        load_config(cfg)
    assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and unread in err
    assert not (tmp_path / "o").exists()


def test_the_readme_example_config_loads(tmp_path):
    """The indented example under "Command line" in README.md is a valid config."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"\n\n((?: {4}.*\n)+)", section).group(1)
    cfg = load_config(write_cfg(tmp_path, block.replace("\n    ", "\n").strip() + "\n"))
    assert cfg.phi["kind"] == "rotsym_expr"


@pytest.mark.parametrize("key", [
    "schedule.dt0", "schedule.dt_max", "schedule.grow", "schedule.shrink",
    "schedule.fast_iters", "schedule.backtrack_max", "schedule.delta_cone",
    "audit.slope_slack", "audit.steiner_tol",
])
def test_load_config_rejects_the_fixed_controls_as_unknown(tmp_path, key):
    """The continuation, line-search and audit constants are not settable."""
    with pytest.raises(ConfigError, match=f"^unknown keys: {re.escape(key)}$"):
        load_config(write_cfg(tmp_path, BASE + f"{key} = 1\n"))


def test_phi_field_kinds(tmp_path):
    theta = math.pi / 3
    grid = CapGrid(16, 32, theta)

    cfg = load_config(write_cfg(tmp_path, BASE + "phi.value = 2.5\n", "a.cfg"))
    f = cfg.phi_field(grid)
    assert np.all(f.values == 2.5) and f.even

    cfg = load_config(write_cfg(
        tmp_path, BASE + "phi.kind = cap_manufactured\nphi.r = 1.3\n", "b.cfg"))
    f = cfg.phi_field(grid)
    want = 2.0 * 1.3**0.5 * ell(theta, grid.beta_all) ** (-0.5)
    assert np.max(np.abs(f.values - want[:, None])) < 1e-14

    cfg = load_config(write_cfg(
        tmp_path, BASE + "phi.kind = rotsym_expr\nphi.coeffs = 1.0, 0.3\n", "c.cfg"))
    f = cfg.phi_field(grid)
    want = 1.0 + 0.3 * (1.0 - np.cos(grid.beta_all))
    assert np.max(np.abs(f.values - want[:, None])) < 1e-14


def test_phi_field_from_file_round_trip(tmp_path):
    grid = CapGrid(16, 32, math.pi / 3)
    stored = tmp_path / "phi.csv"
    save_field(2.0 * ell_field(grid), stored)
    cfg = load_config(write_cfg(
        tmp_path, BASE + f"phi.kind = file\nphi.path = {stored}\n"))
    f = cfg.phi_field(grid)
    assert np.array_equal(f.values, 2.0 * ell_field(grid).values)
    with pytest.raises(ConfigError, match="grid"):
        cfg.phi_field(CapGrid(32, 64, math.pi / 3))
    with pytest.raises(ConfigError, match="rotationally symmetric"):
        cfg.phi_profile()


def test_manufactured_reference(tmp_path):
    grid = CapGrid(16, 32, math.pi / 3)
    cfg = load_config(write_cfg(
        tmp_path, BASE + "phi.kind = cap_manufactured\nphi.r = 1.3\n"))
    ref = cfg.manufactured_reference(grid)
    assert np.max(np.abs(ref.values - 1.3 * ell_field(grid).values)) < 1e-15
    cfg = load_config(write_cfg(tmp_path, BASE, "plain.cfg"))
    assert cfg.manufactured_reference(grid) is None


# -- commands -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_cli(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_solve")
    cfg = write_cfg(root, SOLVE_CFG)
    out = root / "out"
    code = cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    return root, cfg, out


def test_solve_writes_all_outputs(solved_cli):
    _, _, out = solved_cli
    for name in ("solution.csv", "embedding.csv", "report.json", "audit.json"):
        assert (out / name).exists()
    report = read_report(out)
    assert report["problem"] == {"n": 2, "k": 1, "p": 1.5, "theta": pytest.approx(math.pi / 3)}
    assert report["grid"] == {"nbeta": 16, "nphi": 32}
    assert report["phi"] == {"kind": "cap_manufactured", "r": 1.3}
    assert report["solve"]["converged"]
    assert "wall_time" not in report["solve"]
    factorizations = report["solve"]["factorizations"]
    assert len(factorizations) == len(report["solve"]["t_steps"])
    assert factorizations[0] == 1
    assert all(0 <= f <= n for f, n in zip(factorizations, report["solve"]["newton_iters"]))
    assert report["manufactured_sup_error"] < 5e-3
    audit = json.loads((out / "audit.json").read_text())
    assert audit["mandatory_pass"]
    assert audit["residual"]["pass"]


def test_solve_is_deterministic(solved_cli):
    root, cfg, out = solved_cli
    out2 = root / "out2"
    assert cli_main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("solution.csv", "report.json", "audit.json", "embedding.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_grid_override_is_reflected(tmp_path):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "out"
    code = cli_main(["solve", "--config", cfg, "--out", str(out),
                     "--grid", "12x24", "--quiet"])
    assert code == 0
    report = read_report(out)
    assert report["grid"] == {"nbeta": 12, "nphi": 24}
    assert cli_main(["solve", "--config", cfg, "--out", str(out),
                     "--grid", "16x", "--quiet"]) == 1


def test_solve_rejects_bad_config(tmp_path):
    cfg = write_cfg(tmp_path, "n = 2\nk = 1\np = 3.0\ntheta = pi/3\n")
    assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_solve_rejects_missing_phi_file(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "phi.kind = file\nphi.path = no_such_file.csv\n")
    assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_verify_accepts_stored_solution(solved_cli, tmp_path):
    _, cfg, out = solved_cli
    code = cli_main(["verify", "--config", cfg, "--solution", str(out / "solution.csv"),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 0
    audit = json.loads((tmp_path / "v" / "audit.json").read_text())
    assert audit["mandatory_pass"]


def test_verify_detects_a_corrupted_value(solved_cli, tmp_path):
    _, cfg, out = solved_cli
    s = load_field(out / "solution.csv")
    s.values[5, 7] += 0.5
    bad = tmp_path / "bad.csv"
    save_field(s, bad)
    code = cli_main(["verify", "--config", cfg, "--solution", str(bad),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 3


def test_verify_writes_strict_json_for_corrupted_input(solved_cli, tmp_path):
    # a sign flip drives the fractional power to NaN; the audit file must
    # still come out as strictly valid JSON with the residual check failed
    _, cfg, out = solved_cli
    s = load_field(out / "solution.csv")
    s.values[3, 2] = -s.values[3, 2]
    bad = tmp_path / "neg.csv"
    save_field(s, bad)
    code = cli_main(["verify", "--config", cfg, "--solution", str(bad),
                     "--out", str(tmp_path / "v"), "--quiet"])
    assert code == 3

    def no_constants(name):
        raise ValueError(f"non-strict JSON constant {name!r}")

    audit = json.loads((tmp_path / "v" / "audit.json").read_text(),
                       parse_constant=no_constants)
    assert audit["residual"]["interior_max"] is None
    assert not audit["residual"]["pass"]


def test_verify_audits_on_the_solutions_grid(solved_cli, tmp_path):
    # the config's grid keys (32x64) are not the stored solution's (16x32)
    _, cfg, out = solved_cli
    cfg32 = write_cfg(tmp_path, SOLVE_CFG.replace("nbeta = 16", "nbeta = 32")
                      .replace("nphi = 32", "nphi = 64"), "cfg32.cfg")
    for name, config in (("v16", cfg), ("v32", cfg32)):
        assert cli_main(["verify", "--config", config, "--solution",
                         str(out / "solution.csv"), "--out", str(tmp_path / name),
                         "--quiet"]) == 0
    audit = (tmp_path / "v32" / "audit.json").read_bytes()
    assert audit == (tmp_path / "v16" / "audit.json").read_bytes()


def test_oracle_solves_the_reduction(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "phi.kind = rotsym_expr\nphi.coeffs = 1.0, 0.3\n"
                    + "oracle.cells = 64\n")
    out = tmp_path / "out"
    code = cli_main(["oracle", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "profile.csv").exists()
    report = read_report(out)
    assert report["oracle_cells"] == 64
    assert len(report["solve"]["factorizations"]) == len(report["solve"]["t_steps"])
    assert report["barrier"]["pass"]
    assert "cross_check_gap" not in report


def test_oracle_cross_checks_a_solution(solved_cli, tmp_path):
    _, _, out2d = solved_cli
    cfg = write_cfg(tmp_path, SOLVE_CFG + "oracle.cells = 128\n")
    out = tmp_path / "out"
    code = cli_main(["oracle", "--config", cfg, "--out", str(out),
                     "--solution", str(out2d / "solution.csv"), "--quiet"])
    assert code == 0
    report = read_report(out)
    assert report["cross_check_gap"] < 5e-3


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_stored_solution_rejects_theta_mismatch(solved_cli, tmp_path, capsys, command):
    _, _, out2d = solved_cli
    cfg = write_cfg(tmp_path, SOLVE_CFG.replace("pi/3", "pi/4") + "oracle.cells = 64\n")
    code = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--solution", str(out2d / "solution.csv"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"{command}: theta mismatch")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_finite_phi_is_rejected(solved_cli, tmp_path, capsys, command, bad):
    _, _, out2d = solved_cli
    grid = CapGrid(16, 32, math.pi / 3)
    phi = ell_field(grid)
    phi.values[5, [3, 3 + grid.nphi // 2]] = bad  # an even pair of nodes
    save_field(phi, tmp_path / "phi.csv")
    cfg = write_cfg(tmp_path, BASE + "grid.nbeta = 16\ngrid.nphi = 32\n"
                    + f"phi.kind = file\nphi.path = {tmp_path / 'phi.csv'}\n")
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    if command == "verify":
        argv += ["--solution", str(out2d / "solution.csv")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err
    assert not (tmp_path / "o").exists()


def test_oracle_rejects_file_phi(tmp_path, solved_cli):
    _, _, out2d = solved_cli
    cfg = write_cfg(tmp_path, BASE
                    + f"phi.kind = file\nphi.path = {out2d / 'solution.csv'}\n")
    assert cli_main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_failed_solve_writes_a_stall_report(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SOLVE_CFG + "oracle.cells = 64\nschedule.newton_max = 0\n")
    out = tmp_path / "out"
    assert cli_main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = read_report(out)
    assert report["solve"]["converged"] is False
    assert report["solve"]["stalled_at"] == 0.0
    assert report["solve"]["t_steps"] == []
    assert "0 iterations" in report["solve"]["failure"]
    assert report["solve"]["failure"] in capsys.readouterr().err


def test_sweep_over_a_small_lattice(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "grid.nbeta = 16\ngrid.nphi = 32\n"
                    + "sweep.p_list = 1.2, 1.5\nsweep.theta_list = pi/3\n")
    out = tmp_path / "out"
    code = cli_main(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["all_ok"]
    assert len(summary["members"]) == 2
    assert summary["min_height"] > 0.0
    assert summary["min_path_lam1min"] > 0.0
    for m in summary["members"]:
        assert m["exit"] == 0
        assert m["slope_pass"]
        assert m["max_bound_margin"] > 0.0
        assert 1 <= m["factorizations"] <= m["newton_steps"]
        assert (out / m["name"] / "solution.csv").exists()
        assert (out / m["name"] / "audit.json").exists()
        assert read_report(out / m["name"])["solve"]["failure"] is None


def test_a_stalled_sweep_member_names_its_failure(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "grid.nbeta = 16\ngrid.nphi = 32\n"
                    + "sweep.p_list = 1.5\nsweep.theta_list = pi/3\n"
                    + "schedule.newton_max = 0\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    [m] = json.loads((out / "sweep_summary.json").read_text())["members"]
    failure = read_report(out / m["name"])["solve"]["failure"]
    assert "0 iterations" in failure
    assert m["exit"] == 2 and m["error"] == f"stalled at t = 0.000000: {failure}"


def test_sweep_rejects_colliding_member_names(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "grid.nbeta = 16\ngrid.nphi = 32\n"
                    + "sweep.p_list = 1.5\nsweep.theta_list = pi/3, 1.0471975\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()  # no member started
    err = capsys.readouterr().err
    assert "1.0471975511965976" in err and "1.0471975)" in err and "p1.5_theta1.0472" in err


@pytest.mark.parametrize(
    "text",
    [
        BASE.replace("n = 2", "n = 3"),                       # no 2-D solver for n = 3
        BASE + "phi.kind = file\nphi.path = {tmp}/missing.csv\n",  # data file not found
    ],
)
def test_sweep_reports_an_invalid_problem_as_a_config_error(tmp_path, text):
    cfg = write_cfg(tmp_path, text.format(tmp=tmp_path) + "grid.nbeta = 16\n"
                    + "grid.nphi = 32\nsweep.p_list = 1.5\nsweep.theta_list = pi/3\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [m["exit"] for m in summary["members"]] == [1]


def test_selftest_passes(capsys):
    assert cli_main(["selftest", "--quiet"]) == 0


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--config", "{n3}", "--solution", "{sol}", "--out", "{out}"], 1),
        (["solve", "--config", "{cfg}", "--out", "{cfg}"], 1),
        (["solve", "--config", "{cfg}", "--bogus"], 1),
        (["solve"], 1),
        (["solve", "--config", "{cfg}", "--seed", "1"], 1),
        (["selftest", "--out", "{out}"], 1),
        (["--help"], 0),
    ],
    ids=["verify-n3", "out-is-a-file", "unknown-flag", "no-config", "seed-on-solve",
         "out-on-selftest", "help"],
)
def test_every_exit_path_returns_its_code(solved_cli, tmp_path, capsys, argv, code):
    _, _, out2d = solved_cli
    paths = {
        "cfg": write_cfg(tmp_path, SOLVE_CFG),
        "n3": write_cfg(tmp_path, SOLVE_CFG.replace("n = 2", "n = 3"), "n3.cfg"),
        "sol": str(out2d / "solution.csv"),
        "out": str(tmp_path / "out"),
    }
    assert cli_main([a.format(**paths) for a in argv]) == code
    assert not (tmp_path / "out").exists()
    assert (capsys.readouterr().err != "") == (code != 0)
