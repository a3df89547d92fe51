import ctypes
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from modone import (GOLDEN_ALPHA, GeneratorConfig, ResultRecord, ScaleFunction,
                    gen_theorem1, read_points, write_points)
from modone import cli
from modone.cli import run_cli
from modone.experiments import _KIND_PARAMETER
from modone.generators import _SCALE_PARAMETER
from modone.io import _BLOCK, _CHUNK, SCHEMA_VERSION, _decode_fast
from oracles import points_loadtxt_oracle, points_text_oracle


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


def assert_reads_like_loadtxt(path):
    """read_points and the one-loadtxt reader agree on the file: the same values,
    bit for bit, or both refuse it (read_points refuses the non-finite values
    that loadtxt returns)."""
    try:
        want = points_loadtxt_oracle(path)
        refused = not np.isfinite(want).all()
    except ValueError:
        refused = True
    try:
        got = read_points(path)
    except ValueError:
        assert refused, path.read_bytes()[:200]
        return
    assert not refused, path.read_bytes()[:200]
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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


def _writer_sweeps():
    rng = np.random.Generator(np.random.Philox(key=20260418))
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    # binary exponents -14..53: the kernel's range 1e-4 <= |x| < 2**51 and both its edges
    near = (rng.integers(0, 2**52, 200_000, dtype=np.uint64)
            | (rng.integers(1009, 1077, 200_000).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, 200_000).astype(np.uint64) << np.uint64(63))).view(np.float64)
    tens = np.array([10.0 ** e for e in range(-6, 19)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    j = np.arange(20_000, dtype=np.float64)
    # exact ties at the 17th digit: 2**48 + j/16 and 2**45 + j/32 for j = 2 mod 4,
    # 1 + j/2**17 and j/2**18 for odd j
    odd = 2 * j + 1
    ties = np.concatenate([2.0**48 + j / 16, 2.0**45 + j / 32, 1 + odd[:5000] / 2**17,
                           (odd[-5000:] + 2**16) / 2**18])
    sub = np.nextafter(2.2250738585072014e-308, 0.0)
    specials = [0.0, -0.0, 5e-324, -5e-324, sub, -sub, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-4, 9.9999999999999991e15]
    return {"random_bits": bits[np.isfinite(bits)], "kernel_range_bits": near,
            "powers_of_ten": np.concatenate([tens, -tens]),
            "half_way_ties": np.concatenate([ties, -ties]), "specials": np.array(specials)}


@pytest.mark.parametrize("name", list(_writer_sweeps()))
def test_write_points_equals_percent_g(tmp_path, name):
    vals = _writer_sweeps()[name]
    path = tmp_path / "pts.csv"
    write_points(path, vals)
    assert path.read_bytes() == points_text_oracle(vals)
    assert_reads_like_loadtxt(path)


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_write_points_chunk_edges(tmp_path, rng, n):
    vals = rng.uniform(-1e7, 1e7, n)
    vals[::97] = rng.uniform(-1e-5, 1e-5, vals[::97].size)   # the "%.17g" rows, every chunk
    path = tmp_path / "pts.csv"
    write_points(path, vals)
    assert path.read_bytes() == points_text_oracle(vals)
    assert_reads_like_loadtxt(path)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@settings(max_examples=300, deadline=None)
def test_write_points_equals_oracle_on_any_floats(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("pts") / "pts.csv"
    write_points(path, vals)
    assert path.read_bytes() == points_text_oracle(vals)


@pytest.mark.parametrize("values, needle", [
    (np.ones((3, 2)), "one-dimensional"),
    (0.5, "one-dimensional"),
    ([1.0, float("nan"), 2.0], "finite, found nan at index 1"),
    ([-np.inf], "finite"),
])
def test_write_points_rejects_before_opening(tmp_path, values, needle):
    path = tmp_path / "pts.csv"
    with pytest.raises(ValueError, match=needle):
        write_points(path, values)
    assert not path.exists()
    write_points(path, [0.25])
    with pytest.raises(ValueError, match=needle):
        write_points(path, values)
    assert path.read_bytes() == b"# modone-points v1 n=1\n0.25\n"


def test_points_crlf_and_blank_lines_accepted(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"# modone-points v1 n=3\r\n0.25\r\n\r\n -0.5 \r\n\t\r\n1e3\r\n\n")
    assert_array_equal(read_points(p), [0.25, -0.5, 1e3])


def test_fast_path_certifies_every_writer_line_in_its_range():
    # the lines "%.17g" prints with a dot for 1e-4 <= |x| < 2**51 never need the
    # loadtxt path, including the ulp steps the candidate D / 10**f can need
    vals = np.concatenate([_writer_sweeps()[name] for name in
                           ("kernel_range_bits", "powers_of_ten", "half_way_ties")])
    vals = np.concatenate([vals, [1e-4, -1e-4, np.nextafter(2.0**51, 0.0)]])
    a = np.abs(vals)
    vals = vals[(a >= 1e-4) & (a < 2.0**51) & (vals != np.floor(vals))]
    body = points_text_oracle(vals).split(b"\n", 1)[1]
    got, lines = _decode_fast(body)
    assert lines == vals.size
    assert_array_equal(got.view(np.uint64), vals.view(np.uint64))


def _digits(lo, hi):
    return st.text("0123456789", min_size=lo, max_size=hi)


_ODD_LINES = [".5", "5.", " 0.25", "0.25 ", "\t1.5", "+2.5", "1_0", "0x1p-2", "", "  ", "\t",
              "-0", "-0.0", "7", "1E5", "0.1 0.2", "-.5", "--1.5", "1-1.5", "12.-5", "1.5-",
              "0.10000000000000000", "2251799813685247.9", "0.00009999999999999999"]
_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(1e-4, 2.0**51, exclude_max=True).flatmap(
        lambda v: st.sampled_from(["%.17g" % v, "-%.17g" % v])),
    st.builds(lambda i, f: f"{i}.{f}", _digits(1, 4), _digits(1, 4)),          # short decimals
    st.builds(lambda d, k: d[:k] + "." + d[k:], _digits(18, 25), st.integers(1, 17)),
    st.builds(lambda m, e: f"{m}e{e}", _digits(1, 5), st.integers(-330, 330)),
    st.sampled_from(_ODD_LINES),
)


@given(st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n"])), max_size=12),
       st.booleans())
@example([(line, "\n") for line in _ODD_LINES], True)
@settings(max_examples=300, deadline=None)
def test_read_points_equals_loadtxt_on_mixed_bodies(tmp_path_factory, lines, last_newline):
    body = "".join(line + end for line, end in lines)
    if not last_newline:
        body = body.rstrip("\r\n")
    n = sum(1 for line, _ in lines if line.strip())
    path = tmp_path_factory.mktemp("pts") / "pts.csv"
    path.write_bytes(f"# modone-points v1 n={n}\n{body}".encode("ascii"))
    assert_reads_like_loadtxt(path)
    for line, _ in lines:   # every value the fast path accepts is the line's own
        got = _decode_fast(f"{line}\n".encode("ascii"))
        if got is not None:
            assert got[0].view(np.uint64)[0] == np.float64(float(line)).view(np.uint64)


def test_read_points_across_block_edges(tmp_path, rng):
    lines = ["%.17g" % v for v in rng.uniform(-1e3, 1e3, 3 * _BLOCK // 18)]
    body = "".join(line + "\n" for line in lines)
    assert body[_BLOCK - 1] != "\n"   # a line straddles the first block's end
    bodies = {
        "straddle": body,
        "no final newline": body + "0.25",
        "no final newline, loadtxt path": body + "1e3",
        "line longer than a block": body + " " * (_BLOCK + 5) + "0.5\n" + body,
        "crlf": body.replace("\n", "\r\n"),
    }
    for name, text in bodies.items():
        path = tmp_path / "pts.csv"
        n = sum(1 for line in text.splitlines() if line.strip())
        path.write_bytes(f"# modone-points v1 n={n}\n{text}".encode("ascii"))
        assert_reads_like_loadtxt(path)
        assert read_points(path).size == n, name


def test_read_points_working_set_is_one_block(tmp_path, rng):
    # the values go straight into one array of the header's n; beyond it the
    # reader holds one block's arrays, whatever n is
    vals = rng.uniform(0.0, 6e6, 400_000)
    path = tmp_path / "pts.csv"
    write_points(path, vals)
    tracemalloc.start()
    try:
        got = read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(got, vals)
    assert peak - got.nbytes < 3e6


def test_read_points_from_a_pipe(tmp_path):
    fifo = tmp_path / "pts.fifo"
    os.mkfifo(fifo)

    def read(text):
        feeder = threading.Thread(target=fifo.write_text, args=(text,))
        feeder.start()
        try:
            return read_points(fifo)
        finally:
            feeder.join(timeout=10)
            assert not feeder.is_alive()

    assert_array_equal(read("# modone-points v1 n=2\n0.5\n0.25\n"), [0.5, 0.25])
    # a pipe has no size, and no address space holds 10**16 values
    with pytest.raises(ValueError, match="n=10000000000000000, more values than fit"):
        read("# modone-points v1 n=10000000000000000\n0.5\n")


@pytest.mark.parametrize("first, later, needle", [
    ("0.5x", "nan", "line 100001: not a number: '0.5x'"),
    ("nan", "0.5x", "line 100001: points must be finite, found nan"),
])
def test_read_points_names_the_earliest_bad_line(tmp_path, rng, first, later, needle):
    lines = ["%.17g" % v for v in rng.uniform(0.0, 1.0, 150_000)]
    lines[99_999], lines[140_000] = first, later   # body lines 100 000 and 140 001
    path = tmp_path / "pts.csv"
    path.write_text(f"# modone-points v1 n={len(lines)}\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_points(path)
    assert str(exc.value) == f"{path}: {needle}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, needle", [pytest.param(body, needle, id=body) for body, needle in [
    ("# modone-points v1 n=0\n", "at least one value"),          # empty sequence
    ("# modone-points v1 n=0\n\n\n", "at least one value"),
    ("# modone-points v1 n=2\n", "n=2 but the file has only 0 bytes"),   # body missing
    ("# modone-points v1 n=2\n1.5 2.5\n", "line 2: expected one value per line, found 2"),
    ("# modone-points v1 n=4\n1.5 2.5\n3 4\n", "line 2: expected one value per line, found 2"),
    ("# modone-points v1 n=1\nabc\n", "line 2: not a number: 'abc'"),
    ("# modone-points v1 n=1\n#2.5\n", "line 2: not a number: '#2.5'"),
    ("# modone-points v1 n=2\n0.5\n0.5x\n", "line 3: not a number: '0.5x'"),
    ("# modone-points v1 n=2\n0.5\n0.5\u00e9\n", "line 3: not a number: '0.5\\ufffd\\ufffd'"),
    ("# modone-points v1 n=3\n0.1\nnan\n0.3\n", "line 3: points must be finite, found nan"),
    ("# modone-points v1 n=2\n-inf\n0.5\n", "line 2: points must be finite, found -inf"),
    ("# modone-points v1 n=2\n0.5\n\n1e999\n", "line 4: points must be finite, found inf"),
    ("# modone-points v1 n=1_0\n" + "0.5\n" * 10, "malformed points header"),
    ("# modone-points v1 n=+2\n0.5\n0.5\n", "malformed points header"),
    ("# modone-points v1 n= 2\n0.5\n0.5\n", "malformed points header"),
    ("# modone-points v1 n=-1\n", "malformed points header"),
    ("# modone-points v1 n=\n0.5\n", "malformed points header"),
    ("# modone-points v1 n=3\n0.5\n0.5\n", "n=3 but found 2 values"),
    # checked against the file's size before the output array is allocated
    ("# modone-points v1 n=99999999999999999999\n0.5\n", "only 4 bytes after it"),
    ("# modone-points v1 n=5\n0.5\n0.5", "n=5 but the file has only 7 bytes"),
]])
def test_stat_rejects_bad_points_files(tmp_path, capsys, body, needle):
    pts = tmp_path / "bad_points.csv"
    pts.write_text(body)
    code, out, err = run(capsys, "stat", "--in", str(pts), "--ppc")
    assert code == 1 and out == ""
    assert err.startswith("modone: error:") and err.count("\n") == 1
    assert needle in err, err
    if "n=0" not in body:
        assert "bad_points.csv" in err


def test_result_record_round_trip():
    rec = ResultRecord(command="stat", statistic="pair_correlation",
                       value=1.995, n=100, seed=7, window="s=1",
                       error=0.01, wall_time_ms=12.5)
    # every field comes back, in the fixed key order; an error is a standard error
    assert list(json.loads(rec.to_json_line()).items()) == [
        ("schema_version", SCHEMA_VERSION), ("command", "stat"),
        ("statistic", "pair_correlation"), ("n", 100), ("seed", 7), ("window", "s=1"),
        ("value", 1.995), ("error", 0.01), ("error_kind", "standard_error"),
        ("wall_time_ms", 12.5)]
    bare = ResultRecord(command="stat", statistic="discrepancy", value=0.5, n=3)
    assert list(json.loads(bare.to_json_line())) == [
        "schema_version", "command", "statistic", "n", "value"]
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


STAT_FLAGS = {"ppc": ["--ppc", "--s", "1"],
              "klevel": ["--klevel", "--k", "3", "--windows", "0:1,0:1"],
              "disc": ["--disc"],
              "profile": ["--profile", "geom"],
              "energy": ["--energy", "--gamma", "0.5"],
              "gaps": ["--gaps"]}


def test_stat_with_every_flag_gives_each_flag_alone(tmp_path, capsys):
    # the profile and the energy read the raw values, which the points are
    # reduced beside, and the gaps, computed last, overwrite the points
    pts = tmp_path / "pts.pts"
    write_points(pts, -GOLDEN_ALPHA * gen_theorem1(1.0, 2000, 4).values)
    alone = []
    for argv in STAT_FLAGS.values():
        code, out, _ = run(capsys, "stat", "--in", str(pts), *argv, "--no-timing")
        assert code == 0
        alone += out.splitlines()
    code, out, _ = run(capsys, "stat", "--in", str(pts), *sum(STAT_FLAGS.values(), []),
                       "--no-timing")
    assert code == 0
    assert out.splitlines() == alone
    assert len(alone) == 7


def test_stat_works_in_the_array_it_reads(tmp_path, traced_peak):
    # above the 8 bytes per point that read_points returns: at most 2 bytes
    # per point, and the 7.9 MB of blocks that the k = 3 count holds at any N.
    # The points reduced into a second array, and the gaps built beside the
    # points, held 9 bytes per point
    n = 2**21
    pts = tmp_path / "dilated.pts"
    write_points(pts, GOLDEN_ALPHA * gen_theorem1(1.0, n, 5).values)
    peak = traced_peak(run_cli, ["stat", "--in", str(pts), "--ppc", "--klevel", "--k", "3",
                                 "--windows", "0:1,0:1", "--disc", "--gaps", "--no-timing",
                                 "--out", str(tmp_path / "stat.jsonl")])
    above = peak - 8 * n
    assert above <= 2 * n + 8e6, f"{above / n:.2f} bytes per point above the read array"


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


@pytest.mark.parametrize("family", ["beck", "power_log"])
def test_check_gcond_huge_c_caps_like_infinite_c(capsys, family):
    # c = 1e300 overflows the formula to +inf, which is capped as for c = inf
    outs = []
    for c in ("inf", "1e300"):
        code, out, err = run(capsys, "check", "--what", "gcond", "--scale", family,
                             "--c", c, "--n", "1000", "--no-timing")
        assert code == 0 and err == "", (c, err)
        outs.append(out)
    assert outs[0] == outs[1] and len(records_of(outs[0])) == 3


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
    near = tmp_path / "near.pts"   # gamma 1e-14 is below the spacing of these sums
    near.write_text("# modone-points v1 n=3\n1000.5\n2001.25\n3002.125\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"generator": {"kind": "van_der_corput", "base": 2},
                                "n_schedule": [100], "windows": [{"pair_s": 1.0}],
                                "trials": 1, "master_seed": 1}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"generator": {"kind": "arithmetic", "alpha": 0.5,
                                              "scale": {"family": "constant", "g0": 0.7}},
                                "n_schedule": [100], "windows": [{"pair_s": 1.0}],
                                "trials": 1, "master_seed": 1}))
    for argv, needle in [
            (("stat", "--in", missing, "--klevel"), "--windows"),
            (("stat", "--in", missing, "--energy"), "--gamma"),
            (("stat", "--in", missing, "--klevel", "--windows", "0:1:2,0:1"),
             "malformed --windows"),
            (("check", "--what", "gcond", "--scale", "beck", "--c", "1"),
             "requires --scale and --n"),
            (("check", "--what", "energy", "--gamma", "1"), "requires --in and --gamma"),
            (("stat", "--in", str(vdc), "--ppc", "--s", "nan"), "need s > 0"),
            (("stat", "--in", str(vdc), "--energy", "--gamma", "nan"), "need gamma > 0"),
            (("check", "--what", "energy", "--in", str(thm), "--gamma", "nan"),
             "need gamma > 0"),
            (("stat", "--in", str(thm), "--energy", "--gamma", "inf"), "finite gamma"),
            (("check", "--what", "energy", "--in", str(thm), "--gamma", "inf"), "finite gamma"),
            ((*gcond, "--n", "1"), "fewer than two sizes"),
            ((*gcond, "--n", "100", "--ratio", "inf"), "finite grid ratio > 1"),
            ((*gcond, "--n", "100", "--ratio", "nan"), "finite grid ratio > 1"),
            (("stat", "--in", str(near), "--energy", "--gamma", "1e-14"), "float spacing"),
            (("check", "--what", "energy", "--in", str(near), "--gamma", "1e-14"),
             "float spacing"),
            (("check", "--what", "gcond", "--scale", "constant", "--g0", "0", "--n", "1000"),
             "g(N) > 0"),
            (("check", "--what", "gcond", "--scale", "constant", "--g0", "1e-310", "--n", "1000"),
             "overflows float64"),
            (("exp", "--config", str(plan), "--threads", "0"), "threads >= 1"),
            (("exp", "--config", str(plan), "--threads", "-3"), "threads >= 1"),
            (("exp", "--config", str(wide)), "constant width 0.7 exceeds 0.45"),
            (("check", "--what", "gcond", "--scale", "constant", "--g0", "0.7", "--n", "1000"),
             "constant width 0.7 exceeds 0.45"),
            (("gen", "--kind", "arithmetic", "--alpha", "1", "--n", "5", "--seed", "-1",
              "--out", str(tmp_path / "x.csv")), "takes no --seed"),
            # a parameter flag the kind or width family does not take, as in a plan file
            (("gen", "--kind", "theorem1", "--c", "1", "--alpha", "7", "--n", "5", "--seed", "1",
              "--out", str(tmp_path / "x.csv")), "generator theorem1 takes c but not alpha"),
            (("gen", "--kind", "arithmetic", "--alpha", "1", "--base", "3", "--n", "5",
              "--out", str(tmp_path / "x.csv")), "generator arithmetic takes alpha but not base"),
            ((*gcond, "--n", "2000", "--theta", "5"),
             "generator arithmetic takes alpha but not theta"),
            ((*gcond, "--kind", "power", "--theta", "2", "--alpha", "1", "--n", "100"),
             "generator power takes theta but not alpha"),
            ((*gcond, "--n", "2000", "--g0", "0.1"), "scale has unknown key 'g0'")]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1, argv
        assert err.startswith("modone: error:") and needle in err, argv
    # a ratio barely above 1 gives every size; the grid loop once stalled on it
    start = time.perf_counter()
    code, out, _ = run(capsys, *gcond, "--n", "100", "--ratio", "1.0000000000000002")
    assert code == 0 and out and time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, needle", [
    (("--kind", "power", "--theta", "1000"),
     "n=10 to the power theta=1000 is past the float64 range"),
    (("--kind", "arithmetic", "--alpha", "1e308"),
     "alpha=1e+308 times n=10 is past the float64 range"),
    (("--kind", "arithmetic", "--alpha=-1e308"),
     "alpha=-1e+308 times n=10 is past the float64 range"),
    (("--kind", "theorem1", "--c", "1", "--seed", "-1"), "seed -1 is outside [0, 2**128)"),
    (("--kind", "converse", "--c", "0.5", "--seed", str(2**128)),
     f"seed {2**128} is outside [0, 2**128)"),
])
def test_gen_refuses_values_past_float64_and_seeds_past_philox(tmp_path, capsys, argv, needle):
    # pytest turns numpy's overflow warning into an error, so a warning exits 2
    pts = tmp_path / "x.pts"
    code, out, err = run(capsys, "gen", *argv, "--n", "10", "--out", str(pts))
    assert (code, out, err) == (1, "", f"modone: error: {needle}\n")
    assert not pts.exists()


def test_gen_takes_the_largest_seed(tmp_path, capsys):
    pts = tmp_path / "x.pts"
    code, _, err = run(capsys, "gen", "--kind", "theorem1", "--c", "1", "--n", "10",
                       "--seed", str(2**128 - 1), "--out", str(pts))
    assert code == 0 and err == ""
    assert read_points(pts).shape == (10,)


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
    ("generator", {"kind": "arithmetic", "alpha": 2.0, "scale": {"family": "beck", "c": None}},
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
    ("generator", {"kind": "arithmetic", "alpha": 2.0,
                   "scale": {"family": "table", "values": None}}, "table widths must be numbers"),
    ("windows", [{"k": 3, "intervals": [["0", "1"], [0, 1]]}], "intervals must be"),
    ("windows", [{"k": 3, "intervals": [[0, 1], [True, 2]]}], "intervals must be"),
    ("alpha_mod", {"uniform": [1, 2]}, "config has unknown key 'alpha_mod'"),
    ("generator", {"kind": "theorem1", "c": 1.0, "scael": {"family": "beck", "c": 1}},
     "generator has unknown key 'scael'"),
    ("windows", [{"pair_s": 1, "k": 3}], "window has unknown key 'k'"),
    ("windows", [{"k": 3, "intervals": [[0, 1], [0, 1]], "s": 1}], "window has unknown key 's'"),
    ("generator", {"kind": "theorem1", "c": 1, "alpha": 5, "theta": -3},
     "generator theorem1 takes c but not alpha, theta"),
    ("generator", {"kind": "arithmetic", "alpha": 2.0, "scale": {"family": "beck"}},
     "beck family needs c > 0, got None"),
    ("generator", {"kind": "arithmetic", "alpha": 2.0,
                   "scale": {"family": "constant", "g0": 0.1, "c": 1}},
     "scale has unknown key 'c'"),
    ("generator", {"kind": "arithmetic", "alpha": 2.0, "scale": {"family": ["beck"]}},
     "unknown scale family"),
    ("generator", {"c": 1.0}, "unknown generator kind None"),
    ("alpha_mode", {"fixed": 1.0, "uniform": [1, 2]}, "alpha_mode"),
    ("windows", [], "windows must be nonempty"),
    ("generator", {"kind": "arithmetic", "alpha": 2.0,
                   "scale": {"family": "table", "values": [0.1, float("nan"), 0.1]}},
     "table widths must be finite"),
    ("generator", {"kind": "arithmetic", "alpha": 2.0,
                   "scale": {"family": "table", "values": [0.1]}},
     "index beyond the table of length 1"),
    ("alpha_mode", {"fixed": 1e308}, "alpha 1e+308 dilates the theorem1 values at N=100"),
    ("generator", {"kind": "power", "theta": 200.0}, "the power values at N=100"),
    ("n_schedule", [0, 100], "n_schedule sizes must be at least 1, got 0"),
    ("n_schedule", [-5, 100], "n_schedule sizes must be at least 1, got -5"),
    ("generator", {"kind": "theorem1", "c": -5, "scale": {"family": "constant", "g0": 0.1}},
     "generator theorem1 carries its own widths and takes no scale"),
    ("generator", {"kind": "converse", "c": 0.5, "scale": {"family": "beck", "c": 1.0}},
     "generator converse carries its own widths and takes no scale"),
    ("alpha_mode", {"fixed": 0}, "fixed dilation must be nonzero"),
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


def test_readme_cli_lines_parse_and_build():
    # every `modone ...` line of README's CLI block parses, and the gen and
    # gcond lines build their generator and width family as the commands do
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("modone ")]
    assert len(lines) >= 8
    for argv in lines:
        args = cli._build_parser().parse_args(argv[1:])
        if args.cmd == "gen":
            cli._gen_generator(args)
        elif args.cmd == "check" and args.what == "gcond":
            cli._gcond_inputs(args)


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


def test_trace_hooks_see_every_reduce_and_gaps_stage(monkeypatch, tmp_path, capsys):
    # stat and reduce_scaled call frac_reduce and gap_distribution by the
    # names that the benchmark's --trace 1 swaps, so each stage is one span
    import modone

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    pts = tmp_path / "pts.csv"
    write_points(pts, gen_theorem1(1.0, 50, 3).values)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"generator": {"kind": "theorem1", "c": 1.0},
                                "n_schedule": [100], "windows": [{"pair_s": 1.0}],
                                "trials": 3, "master_seed": 1}))

    def counted(tracer, *argv):
        start = len(tracer.spans)
        assert run(capsys, *argv)[0] == 0
        names = [span.name for span in tracer.spans[start:]]
        return names.count("seqcore.reduce_sort"), names.count("stats.gap_distribution")

    tracer = tracing.Tracer()
    with tracer.patched(modone):
        assert counted(tracer, "stat", "--in", str(pts), "--disc", "--gaps",
                       "--no-timing") == (1, 1)
        assert counted(tracer, "exp", "--config", str(plan), "--no-timing") == (2 * 3, 0)


def test_trace_hooks_time_every_generator_build(monkeypatch):
    # the traced runs time GeneratorConfig.build through experiments' names
    import modone
    import modone.cli  # noqa: F401  (the hooks read modone.cli)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    configs = [GeneratorConfig(kind="theorem1", c=1.0),
               GeneratorConfig(kind="converse", c=0.5),
               GeneratorConfig(kind="arithmetic", alpha=GOLDEN_ALPHA,
                               scale=ScaleFunction.constant(0.1))]
    tracer = tracing.Tracer()
    with tracer.patched(modone):
        for n, config in enumerate(configs, start=5):
            config.build(n, 1)
    builds = [span for span in tracer.spans if span.name == "generators.build"]
    assert [span.attrs["points"] for span in builds] == [5, 6, 7]
    assert len(tracer.spans) == len(builds)


# ---------------------------------------------------------------------------
# heap policy

@pytest.mark.parametrize("cdll", [OSError("no C library"), object()],
                         ids=["no-library", "no-mallopt"])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, tmp_path, capsys, cdll):
    def fake_cdll(name):
        if isinstance(cdll, Exception):
            raise cdll
        return cdll

    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    cli._keep_freed_memory()
    code, _, err = run(capsys, "gen", "--kind", "arithmetic", "--alpha", "0.5", "--n", "10",
                       "--out", str(tmp_path / "x.pts"))
    assert (code, err) == (0, "")


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_trial_plans_keep_their_freed_memory(tmp_path):
    # glibc's dynamic thresholds trimmed the N-sized temporaries after each k = 3
    # window and faulted them back in: about 33 000 minor faults per run of this
    # plan, against about 10 once the heap keeps them
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"generator": {"kind": "theorem1", "c": 1.0},
                                "n_schedule": [200_000],
                                "windows": [{"pair_s": 1.0},
                                            {"k": 3, "intervals": [[-1, 1], [-1, 1]]}],
                                "trials": 4, "master_seed": 1}))
    script = (
        "import resource, sys\n"
        "from modone.cli import run_cli\n"
        "argv = ['exp', '--config', sys.argv[1], '--threads', '2', '--no-timing',\n"
        "        '--out', sys.argv[2]]\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert run_cli(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(plan), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 2000, f"{faults} minor faults in the third run of the plan"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_gen_and_stat_hold_few_bytes_per_point(tmp_path):
    # a fresh interpreter's peak RSS over gen, then stat with the benchmark's
    # statistics on a dilated realization: about 41 bytes per point at
    # N = 10**6, against about 84 while each stage held N-sized temporaries.
    # VmHWM is the peak of this process image; ru_maxrss would carry over the
    # peak of the test process that forked it
    n = 10**6
    dilated = tmp_path / "dilated.pts"
    write_points(dilated, GOLDEN_ALPHA * gen_theorem1(1.0, n, 5).values)
    script = (
        "import sys\n"
        "from modone.cli import run_cli\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "before = peak_kib()\n"
        "assert run_cli(['gen', '--kind', 'theorem1', '--c', '1', '--n', sys.argv[1],\n"
        "                '--seed', '5', '--out', sys.argv[2]]) == 0\n"
        "assert run_cli(['stat', '--in', sys.argv[3], '--ppc', '--klevel', '--k', '3',\n"
        "                '--windows', '0:1,0:1', '--disc', '--gaps', '--no-timing',\n"
        "                '--out', sys.argv[4]]) == 0\n"
        "print(peak_kib() - before)\n")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(n), str(tmp_path / "gen.pts"),
                           str(dilated), str(tmp_path / "stat.jsonl")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 / n < 48
