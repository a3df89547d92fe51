import importlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from modone import (GOLDEN_ALPHA, GeneratorConfig, ResultRecord, ScaleFunction,
                    read_points, write_points)
from modone.cli import run_cli
from modone.experiments import _KIND_PARAMETER
from modone.generators import _SCALE_PARAMETER


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.splitlines() if line]


# ---------------------------------------------------------------------------
# points files

def test_points_round_trip_exact(tmp_path, rng):
    vals = np.concatenate([rng.random(50) * 1e6, -rng.random(10), [0.1, 1e-300]])
    path = tmp_path / "pts.csv"
    write_points(path, vals)
    assert_array_equal(read_points(path), vals)


def test_points_header_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_points(p)
    p.write_text("# modone-points v1 n=3\n0.5\n")
    with pytest.raises(ValueError, match="n=3"):
        read_points(p)


def test_points_v1_golden_bytes(tmp_path):
    vals = [0.1, -0.0, 5e-324, 1e-300, 1e16, 1e22, 123456789.5, -2.5, 2.0**53, 1 / 3]
    path = tmp_path / "pts.csv"
    write_points(path, vals)
    assert path.read_bytes() == (
        b"# modone-points v1 n=10\n"
        b"0.10000000000000001\n-0\n4.9406564584124654e-324\n1e-300\n"
        b"10000000000000000\n1e+22\n123456789.5\n-2.5\n9007199254740992\n"
        b"0.33333333333333331\n")
    back = read_points(path)
    assert_array_equal(back, vals)
    assert np.signbit(back[1]) and back[2] == 5e-324


def test_points_crlf_and_blank_lines_accepted(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"# modone-points v1 n=3\r\n0.25\r\n\r\n -0.5 \r\n\t\r\n1e3\r\n\n")
    assert_array_equal(read_points(p), [0.25, -0.5, 1e3])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", [
    "# modone-points v1 n=0\n",              # empty sequence
    "# modone-points v1 n=0\n\n\n",
    "# modone-points v1 n=2\n",              # body missing
    "# modone-points v1 n=2\n1.5 2.5\n",     # two values on one line
    "# modone-points v1 n=4\n1.5 2.5\n3 4\n",
    "# modone-points v1 n=1\nabc\n",
    "# modone-points v1 n=1\n#2.5\n",
    "# modone-points v1 n=2\n0.5\n0.5x\n",
])
def test_stat_rejects_bad_points_files(tmp_path, capsys, body):
    pts = tmp_path / "bad_points.csv"
    pts.write_text(body)
    code, out, err = run(capsys, "stat", "--in", str(pts), "--ppc")
    assert code == 1 and out == ""
    assert err.startswith("modone: error:") and err.count("\n") == 1
    if "n=0" not in body:
        assert "bad_points.csv" in err


def test_result_record_round_trip():
    rec = ResultRecord(command="stat", statistic="pair_correlation",
                       value=1.995, n=100, seed=7, window="s=1",
                       error=0.01, error_kind="standard_error",
                       wall_time_ms=12.5)
    line = rec.to_json_line()
    assert ResultRecord.from_json_line(line) == rec
    # --no-timing drops only the timing field
    assert "wall_time_ms" not in rec.to_json_line(include_timing=False)


# ---------------------------------------------------------------------------
# subcommands

def test_gen_stat_pipeline(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    code, out, err = run(capsys, "gen", "--kind", "theorem1", "--c", "1",
                         "--n", "1000", "--seed", "7", "--out", str(pts))
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "stat", "--in", str(pts), "--ppc", "--s", "1.0")
    assert code == 0
    recs = records_of(out)
    assert len(recs) == 1
    assert recs[0]["statistic"] == "pair_correlation"
    assert recs[0]["n"] == 1000


def test_stat_disc_two_point_example(tmp_path, capsys):
    pts = tmp_path / "two.csv"
    write_points(pts, [0.25, 0.75])
    code, out, _ = run(capsys, "stat", "--in", str(pts), "--disc", "--no-timing")
    assert code == 0
    recs = records_of(out)
    assert recs[0]["statistic"] == "discrepancy"
    assert recs[0]["value"] == 0.5
    assert recs[1]["statistic"] == "star_discrepancy"
    assert recs[1]["value"] == 0.25


def test_stat_all_statistics(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(capsys, "gen", "--kind", "van_der_corput", "--base", "2", "--n", "200",
        "--out", str(pts))
    code, out, _ = run(capsys, "stat", "--in", str(pts), "--ppc", "--s", "0.5",
                       "--klevel", "--k", "3", "--windows", "0:1,0:1",
                       "--disc", "--profile", "geom", "--energy", "--gamma", "0.5",
                       "--gaps", "--no-timing")
    assert code == 0
    names = [r["statistic"] for r in records_of(out)]
    assert names == ["pair_correlation", "k_level_correlation", "discrepancy",
                     "star_discrepancy", "max_n_discrepancy", "additive_energy",
                     "gap_ks_vs_exponential"]


def test_exp_single_trial_matches_stat(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(capsys, "gen", "--kind", "arithmetic", "--alpha", repr(GOLDEN_ALPHA),
        "--n", "500", "--out", str(pts))
    code, out, _ = run(capsys, "stat", "--in", str(pts), "--ppc", "--s", "1.0",
                       "--no-timing")
    stat_value = records_of(out)[0]["value"]

    config = tmp_path / "plan.json"
    config.write_text(json.dumps({
        "generator": {"kind": "arithmetic", "alpha": GOLDEN_ALPHA},
        "n_schedule": [500],
        "windows": [{"pair_s": 1.0}],
        "trials": 1,
        "master_seed": 7,
        "alpha_mode": {"fixed": 1.0},
    }))
    code, out, _ = run(capsys, "exp", "--config", str(config), "--no-timing")
    assert code == 0
    rec = records_of(out)[0]
    assert rec["value"] == stat_value
    assert rec["error_kind"] == "standard_error"


def test_check_gcond(capsys):
    code, out, _ = run(capsys, "check", "--what", "gcond", "--scale", "beck",
                       "--c", "1", "--kind", "arithmetic",
                       "--alpha", repr(GOLDEN_ALPHA), "--n", "20000",
                       "--ratio", "1.12", "--no-timing")
    assert code == 0
    recs = records_of(out)
    assert [r["statistic"] for r in recs] == [
        "g_over_discrepancy_diverges", "n_times_g_diverges",
        "stretch_ratio_to_one"]
    assert all(r["value"] == 1.0 for r in recs)


def test_check_energy(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    run(capsys, "gen", "--kind", "theorem1", "--c", "1", "--n", "256",
        "--seed", "5", "--out", str(pts))
    code, out, _ = run(capsys, "check", "--what", "energy", "--in", str(pts),
                       "--gamma", "0.2", "--no-timing")
    assert code == 0
    recs = records_of(out)
    assert recs[0]["statistic"] == "energy_normalized"
    assert recs[1]["value"] == 1.0    # upper bound holds


# ---------------------------------------------------------------------------
# determinism and error handling

def test_cli_byte_determinism(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        pts = tmp_path / "pts.csv"
        run(capsys, "gen", "--kind", "theorem1", "--c", "1", "--n", "500",
            "--seed", "42", "--out", str(pts))
        blob = pts.read_bytes()
        _, out1, _ = run(capsys, "stat", "--in", str(pts), "--ppc", "--s", "1",
                         "--gaps", "--disc", "--no-timing")
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({
            "generator": {"kind": "theorem1", "c": 1.0},
            "n_schedule": [200, 400],
            "windows": [{"pair_s": 1.0}, {"k": 3, "intervals": [[0, 1], [0, 1]]}],
            "trials": 3, "master_seed": 9,
            "alpha_mode": {"uniform": [1.0, 2.0]}}))
        _, out2, _ = run(capsys, "exp", "--config", str(config), "--no-timing")
        outputs.append((blob, out1, out2))
    assert outputs[0] == outputs[1]


def test_exit_code_validation_errors(tmp_path, capsys):
    code, _, err = run(capsys, "stat", "--in", str(tmp_path / "nope.csv"), "--ppc")
    assert code == 1 and err.startswith("modone: error:")
    code, _, err = run(capsys, "gen", "--kind", "arithmetic", "--n", "5",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    code, _, err = run(capsys, "stat", "--in", str(tmp_path / "nope.csv"))
    assert code == 1
    code, _, err = run(capsys, "bogus-subcommand")
    assert code == 1
    code, _, err = run(capsys, "gen", "--kind", "theorem1", "--n", "5",
                       "--out", str(tmp_path / "x.csv"))   # missing seed and c
    assert code == 1
    code, _, err = run(capsys, "gen", "--kind", "converse", "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))   # missing c
    assert code == 1 and "needs c" in err and err.count("\n") == 1
    code, _, err = run(capsys, "check", "--what", "gcond", "--scale", "beck", "--c", "1",
                       "--kind", "power", "--n", "100")   # missing theta
    assert code == 1 and "needs theta" in err and err.count("\n") == 1
    vdc, thm = tmp_path / "vdc.pts", tmp_path / "thm.pts"
    run(capsys, "gen", "--kind", "van_der_corput", "--n", "64", "--out", str(vdc))
    run(capsys, "gen", "--kind", "theorem1", "--c", "1", "--n", "64", "--seed", "1",
        "--out", str(thm))
    gcond = ("check", "--what", "gcond", "--scale", "beck", "--c", "1")
    missing = str(tmp_path / "nope.csv")   # flags are checked before the file is read
    for argv, needle in [
            (("stat", "--in", missing, "--klevel"), "--windows"),
            (("stat", "--in", missing, "--energy"), "--gamma"),
            (("stat", "--in", str(vdc), "--ppc", "--s", "nan"), "need s > 0"),
            (("stat", "--in", str(vdc), "--energy", "--gamma", "nan"), "need gamma > 0"),
            (("check", "--what", "energy", "--in", str(thm), "--gamma", "nan"),
             "need gamma > 0"),
            ((*gcond, "--n", "1"), "fewer than two sizes"),
            ((*gcond, "--n", "100", "--ratio", "inf"), "finite grid ratio > 1"),
            ((*gcond, "--n", "100", "--ratio", "nan"), "finite grid ratio > 1")]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1, argv
        assert err.startswith("modone: error:") and needle in err, argv
    # a ratio barely above 1 gives every size; the grid loop once stalled on it
    start = time.perf_counter()
    code, out, _ = run(capsys, *gcond, "--n", "100", "--ratio", "1.0000000000000002")
    assert code == 0 and out and time.perf_counter() - start < 1.0


def test_stat_rejects_non_finite_points(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("# modone-points v1 n=3\n0.1\nnan\n0.3\n")
    code, out, err = run(capsys, "stat", "--in", str(pts), "--ppc", "--disc")
    assert code == 1 and out == ""
    assert err.startswith("modone: error:") and err.count("\n") == 1


def test_result_record_refuses_nan():
    rec = ResultRecord(command="stat", statistic="pair_correlation",
                       value=float("nan"), n=3)
    with pytest.raises(ValueError):
        rec.to_json_line()


@pytest.mark.parametrize("n_schedule, intervals", [
    ([2, 100], [[0, 1], [0, 1]]),     # N < k
    ([4, 100], [[-1, 1], [-1, 1]]),   # window width / N = 1/2
])
def test_exp_rejects_windows_the_plan_cannot_score(tmp_path, capsys, n_schedule, intervals):
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({
        "generator": {"kind": "theorem1", "c": 1.0}, "n_schedule": n_schedule,
        "windows": [{"k": 3, "intervals": intervals}], "trials": 1, "master_seed": 1}))
    code, out, err = run(capsys, "exp", "--config", str(config))
    assert code == 1 and out == ""
    assert err.startswith("modone: error: window k=3") and err.count("\n") == 1


def test_stat_klevel_requires_windows(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [0.1, 0.2, 0.3])
    code, _, err = run(capsys, "stat", "--in", str(pts), "--klevel")
    assert code == 1 and "windows" in err


def test_malformed_windows_spec(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    code, _, err = run(capsys, "stat", "--in", str(pts), "--klevel", "--k", "3",
                       "--windows", "0:1,zz")
    assert code == 1


def test_config_requires_master_seed(tmp_path, capsys):
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({
        "generator": {"kind": "theorem1", "c": 1.0},
        "n_schedule": [100], "windows": [{"pair_s": 1.0}], "trials": 1}))
    code, _, err = run(capsys, "exp", "--config", str(config))
    assert code == 1 and "master_seed" in err


@pytest.mark.parametrize("field, value, needle", [
    ("master_seed", -1, "master_seed"),
    ("master_seed", 1.5, "master_seed"),
    ("master_seed", "7", "master_seed"),
    ("trials", 2.7, "trials"),
    ("trials", "3", "trials"),
    ("trials", True, "trials"),
    ("n_schedule", [100.5], "n_schedule"),
    ("alpha_mode", {"uniform": [2.0, 1.0]}, "lo < hi"),
    ("alpha_mode", {"uniform": [1.0, 1.0]}, "lo < hi"),
    ("alpha_mode", {"uniform": [1.0, float("inf")]}, "finite"),
    ("alpha_mode", {"fixed": float("nan")}, "finite"),
    ("alpha_mode", {"fixed": None}, "numbers"),
    ("alpha_mode", {"uniform": [1.0, "2"]}, "numbers"),
    ("alpha_mode", {"uniform": None}, "alpha_mode"),
    ("generator", {"kind": "theorem1"}, "needs c as a finite number"),
    ("generator", {"kind": "nosuch"}, "unknown generator kind 'nosuch'"),
    ("generator", {"kind": "arithmetic"}, "needs alpha as a finite number"),
    ("generator", {"kind": "van_der_corput", "base": 2.5}, "needs base as an integer"),
    ("windows", [{"pair_s": None}], "need s > 0"),
    ("windows", [[0, 1]], "window must be a dict"),
    ("windows", [{"k": 3, "intervals": 5}], "intervals must be"),
    ("generator", None, "generator must be a dict"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": "beck", "c": None}},
     "beck family needs c > 0"),
    ("windows", [{"k": 3.7, "intervals": [[0, 1], [0, 1]]}], "integer k"),
    ("windows", [{"k": "3", "intervals": [[0, 1], [0, 1]]}], "integer k"),
    ("generator", {"kind": "converse", "c": 0.9}, "0 < c <= 1/2"),
    ("generator", {"kind": "arithmetic", "alpha": 0}, "alpha must be nonzero"),
    ("generator", {"kind": "theorem1", "c": -1}, "c > 0"),
    ("generator", {"kind": "power", "theta": -0.5}, "theta > 0"),
    ("generator", {"kind": "van_der_corput", "base": 1}, "base >= 2"),
    ("windows", 5, "windows must be a list"),
    ("n_schedule", 5, "n_schedule must be a list"),
    ("generator", {"kind": ["theorem1"], "c": 1.0}, "unknown generator kind"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": "table", "values": None}},
     "table widths must be numbers"),
    ("windows", [{"k": 3, "intervals": [["0", "1"], [0, 1]]}], "intervals must be"),
    ("windows", [{"k": 3, "intervals": [[0, 1], [True, 2]]}], "intervals must be"),
    ("alpha_mod", {"uniform": [1, 2]}, "config has unknown key 'alpha_mod'"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scael": {"family": "beck", "c": 1}},
     "generator has unknown key 'scael'"),
    ("windows", [{"pair_s": 1, "k": 3}], "window has unknown key 'k'"),
    ("windows", [{"k": 3, "intervals": [[0, 1], [0, 1]], "s": 1}], "window has unknown key 's'"),
    ("generator", {"kind": "theorem1", "c": 1, "alpha": 5, "theta": -3},
     "generator theorem1 takes c but not alpha, theta"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": "beck"}},
     "beck family needs c > 0, got None"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": "constant", "g0": 0.1,
                                                           "c": 1}}, "scale has unknown key 'c'"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": ["beck"]}},
     "unknown scale family"),
    ("generator", {"c": 1.0}, "unknown generator kind None"),
    ("alpha_mode", {"fixed": 1.0, "uniform": [1, 2]}, "alpha_mode"),
    ("windows", [], "windows must be nonempty"),
    ("generator", {"kind": "theorem1", "c": 1.0,
                   "scale": {"family": "table", "values": [0.1, float("nan"), 0.1]}},
     "table widths must be finite"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scale": {"family": "table", "values": [0.1]}},
     "index beyond the table of length 1"),
    ("alpha_mode", {"fixed": 1e308}, "alpha 1e+308 dilates the theorem1 values at N=100"),
    ("generator", {"kind": "power", "theta": 200.0}, "the power values at N=100"),
])
def test_exp_rejects_bad_plans_before_any_trial(tmp_path, capsys, field, value, needle):
    plan = {"generator": {"kind": "theorem1", "c": 1.0}, "n_schedule": [100],
            "windows": [{"pair_s": 1.0}], "trials": 2, "master_seed": 3}
    plan[field] = value
    config = tmp_path / "plan.json"
    config.write_text(json.dumps(plan))
    code, out, err = run(capsys, "exp", "--config", str(config))
    assert code == 1 and out == ""
    assert err.startswith("modone: error:") and err.count("\n") == 1
    assert needle in err


def test_symmetric_k2_window_scores_alike_in_stat_and_exp(tmp_path, capsys):
    # the points j/1024 make the strict-< pair count and the half-open
    # k-level count differ at the window ends
    pts = tmp_path / "vdc.pts"
    run(capsys, "gen", "--kind", "van_der_corput", "--base", "2", "--n", "1024",
        "--out", str(pts))
    code, out, _ = run(capsys, "stat", "--in", str(pts), "--klevel", "--k", "2",
                       "--windows=-1:1", "--no-timing")
    assert code == 0
    stat_rec = records_of(out)[0]
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({
        "generator": {"kind": "van_der_corput", "base": 2}, "n_schedule": [1024],
        "windows": [{"k": 2, "intervals": [[-1, 1]]}], "trials": 1, "master_seed": 0}))
    code, out, _ = run(capsys, "exp", "--config", str(config), "--no-timing")
    assert code == 0
    exp_rec = records_of(out)[0]
    assert stat_rec["window"] == exp_rec["window"] == "k=2:-1:1"
    assert stat_rec["value"] == exp_rec["value"] == 2 / 1024


def _choices(err):
    # argparse lists the accepted names of an invalid choice in parentheses
    names = re.search(r"choose from (.*)\)", err).group(1)
    return {name.strip(" '") for name in names.split(",")}


def test_cli_uses_the_library_vocabulary(tmp_path, capsys):
    kinds = set(_KIND_PARAMETER)
    for kind, param in _KIND_PARAMETER.items():
        GeneratorConfig(kind=kind, **{param: 2 if param == "base" else 0.5})
    code, _, err = run(capsys, "gen", "--kind", "arith", "--alpha", "1", "--n", "5",
                       "--out", str(tmp_path / "x.pts"))
    assert code == 1 and err.count("\n") == 1 and "arithmetic" in err
    assert _choices(err) == kinds == {"arithmetic", "power", "van_der_corput",
                                      "theorem1", "converse"}

    scalar_families = set()
    for family in _SCALE_PARAMETER:
        try:
            getattr(ScaleFunction, family)(0.5)
            scalar_families.add(family)
        except ValueError:
            pass
    code, _, err = run(capsys, "check", "--what", "gcond", "--scale", "powerlog",
                       "--c", "1", "--n", "100")
    assert code == 1 and err.count("\n") == 1
    assert _choices(err) == scalar_families == {"beck", "power_log", "constant"}


def test_out_flag_writes_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [0.25, 0.75])
    target = tmp_path / "records.jsonl"
    code, out, _ = run(capsys, "stat", "--in", str(pts), "--disc",
                       "--no-timing", "--out", str(target))
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 2


def test_trace_hooks_find_every_patched_name(monkeypatch):
    # the benchmark's --trace 1 swaps these module attributes by name
    import modone
    from modone import cli, experiments

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = (cli.run_trials, experiments.derive_trial)
    with tracing.Tracer().patched(modone):
        assert (cli.run_trials, experiments.derive_trial) != originals
    assert (cli.run_trials, experiments.derive_trial) == originals
