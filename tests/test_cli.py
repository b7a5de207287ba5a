import builtins
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sympeps import cli
from sympeps import exact
from sympeps import moser as mo
from sympeps import polyform as pf
from sympeps import suite
from sympeps import symplectic as sy
from sympeps.suite import random_ellipsoid


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.txt"
    sy.save_matrix(path, np.eye(4))
    return str(path)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fixture.txt"
    sy.save_matrix(path, sy.asymmetric_defect_map(0.1, 2.0))
    return str(path)


def test_analyze_identity(capsys, identity_file):
    code, out, err = run_cli(capsys, "analyze", identity_file)
    assert code == 0
    report = json.loads(out)
    assert report["defect"] == 0.0
    assert report["classification"] == "symplectic-like"
    assert "defect" in err


def test_analyze_worked_fixture(capsys, fixture_file):
    code, out, _ = run_cli(capsys, "analyze", fixture_file, "--eps", "0.15")
    assert code == 0
    report = json.loads(out)
    assert report["defect"] == pytest.approx(0.1, abs=1e-12)
    assert report["within_eps"] is True
    assert report["decomposition"]["rel_error"] <= 1e-8


def test_analyze_singular_reports_and_exits_zero(capsys, tmp_path):
    path = tmp_path / "singular.txt"
    sy.save_matrix(path, np.diag([0.0, 1.0, 1.0, 1.0]))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["classification"] == "singular"


@pytest.mark.parametrize(
    "scale, cond", [(None, "1.000e+06"), (2.0**-540, "2.691e+00")], ids=["cond-1e6", "scale-2^-540"]
)
def test_analyze_refuses_a_lost_plane(capsys, tmp_path, scale, cond):
    # Nonsingular maps whose Phi^T J Phi loses a plane: condition 1e6, and a
    # map of condition 2.69 whose squares underflow at scale 2^-540.
    if scale is None:
        phi = sy.plane_scaling([1e-3, 1e3])
    else:
        phi = scale * sy.random_symplectic(2, np.random.default_rng(4)) @ sy.plane_scaling([1.1, 0.95])
    path = tmp_path / "phi.txt"
    sy.save_matrix(path, phi)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: a plane of Phi^T J Phi was lost")
    assert f"(condition number {cond})" in err and "not resolved" in err
    assert "Traceback" not in err


def test_analyze_names_the_condition_of_a_failed_reconstruction(capsys, tmp_path):
    # condition 2.2e11: standard_form keeps every plane, but they rebuild
    # Phi^T J Phi only to a relative 1.3e-6
    rng = np.random.default_rng(94)
    U, V = sy.random_symplectic(2, rng), sy.random_symplectic(2, rng)
    r = 10 ** rng.uniform(4.5, 5.5)
    a, b = rng.uniform(0.5, 2, 2)
    path = tmp_path / "phi.txt"
    sy.save_matrix(path, U @ np.diag([r, 1 / r, a, b]) @ V)
    cond = float(sy._conditioning(sy.load_matrix(path)).cond)
    assert 2e11 < cond < 3e11
    code, out, err = run_cli_without_warnings(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: standard form reconstruction failed (relative error ")
    assert f") at condition number {cond:.3e}, so the lambda/mu invariants are not resolved\n" in err


def test_analyze_is_deterministic(capsys, fixture_file):
    _, out1, _ = run_cli(capsys, "analyze", fixture_file)
    _, out2, _ = run_cli(capsys, "analyze", fixture_file)
    assert out1 == out2


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.txt")
    assert code == 2
    assert "error" in err


def test_analyze_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


@pytest.mark.parametrize("command", [["analyze"], ["certify", "--eps", "0.1"]])
def test_overflowing_map_is_refused(capsys, tmp_path, command):
    path = tmp_path / "huge.txt"
    path.write_text("n 1\n1e308 0\n0 1e308\n")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert "overflows" in err
    assert "Warning" not in err


def test_non_finite_entry_is_refused(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("n 1\n1 0\nnan 1\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite entry nan at row 2, column 1" in err


def test_emit_refuses_non_finite_json():
    with pytest.raises(ValueError):
        cli._emit({"defect": float("inf")}, [])


def test_emit_refuses_non_finite_json_in_text_mode():
    # text mode prints no JSON, but still builds it to refuse the report
    with pytest.raises(ValueError):
        cli._emit({"defect": float("inf")}, [], "text")


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), np.float32(1), np.bool_(True), np.zeros(2)],
    ids=["nan", "inf", "-inf", "float32", "bool_", "ndarray"],
)
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: [1, x],
        lambda x: {"a": [[1.0, 2.0], [x, 3.0]]},
        lambda x: [{"k": 1}, {"k": x}],
        lambda x: {"a": {"b": [x, []]}},
        lambda x: {(1,) if isinstance(x, np.ndarray) else x: 1},
        lambda x: {"a": {(1,) if isinstance(x, np.ndarray) else x: [1]}},
    ],
    ids=["alone", "flat", "row", "dict-row", "nested", "key", "nested-key"],
)
def test_indented_json_refuses_what_json_dumps_refuses(capsys, bad, place):
    # named for the indented writer that _emit used before; the cases now pin
    # _emit itself: no value without a standard JSON form is converted
    tree = place(bad)
    with pytest.raises((ValueError, TypeError)) as expected:
        json.dumps(tree, allow_nan=False)
    with pytest.raises((ValueError, TypeError)) as raised:
        cli._emit(tree, [])
    assert type(raised.value) is expected.type
    assert capsys.readouterr().out == ""


def test_analyze_builds_the_standard_form_once(capsys, fixture_file, monkeypatch):
    calls = {"standard_form": 0, "defect": 0}
    for name in calls:
        original = getattr(sy, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sy, name, counted)
    code, out, _ = run_cli(capsys, "analyze", fixture_file)
    assert code == 0
    assert json.loads(out)["decomposition"]["rel_error"] <= 1e-8
    assert calls == {"standard_form": 1, "defect": 1}



def _count_calls(monkeypatch, names):
    """Patch each named function of symplectic to record its first argument."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(sy, name)

        def counted(*args, _original=original, _name=name):
            calls[_name].append(args[0])
            return _original(*args)

        monkeypatch.setattr(sy, name, counted)
    return calls


def test_analyze_checks_the_decomposition_once_by_its_public_name(capsys, fixture_file, monkeypatch):
    calls = _count_calls(monkeypatch, ("defect_decomposition_check",))
    code, out, _ = run_cli(capsys, "analyze", fixture_file)
    assert code == 0
    report = json.loads(out)
    assert calls == {"defect_decomposition_check": [report["defect"]]}
    assert report["decomposition"]["lhs"] == report["defect"] ** 2


def _count_svds(monkeypatch):
    """Patch np.linalg.svd to record the matrix or stack of each call."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda A, *args, **kwargs: calls.append(A) or svd(A, *args, **kwargs))
    return calls


def test_certify_builds_one_width_table(capsys, fixture_file, tmp_path, monkeypatch):
    # phi and the 4 random trials: 2 SVDs, since the 9 plane-diagonal
    # ellipsoids of the grid take their singular values and r1 from their
    # radii, the balls (phi scaled by powers of two) share phi's, and every
    # image phi A is cleared by the bound kappa(phi) kappa(A) < 5e11; the
    # trials, the 13 images and the 3 balls: 3 spectra.  Three separate
    # certificate passes took 10 SVDs and 7 spectra.
    svds = _count_svds(monkeypatch)
    calls = _count_calls(monkeypatch, ("_spectrum",))
    code, out, _ = run_cli(capsys, "certify", fixture_file, "--eps", "0.1", "--trials", "4")
    assert code == 0
    assert json.loads(out)["ellipsoids"] == 9 + 4
    assert [np.shape(a) for a in svds] == [(4, 4), (4, 4, 4)]
    np.testing.assert_array_equal(svds[1], suite.ellipsoid_batch(2, 4, cli.DEFAULT_SEED)[9:])
    assert [np.shape(a) for a in calls["_spectrum"]] == [(4, 4, 4), (13, 4, 4), (3, 4, 4)]
    # kappa(phi) = 4e11: only the ellipsoids with kappa(A) < 1.25 are cleared,
    # and the one extra SVD is of the images of the others; the first of them
    # that is singular, phi diag(0.5, 0.5, 2, 2) of condition 1.6e12, is named
    path = tmp_path / "cond-4e11.txt"
    sy.save_matrix(path, sy.plane_scaling([1e-6, 4e5]))
    ellipsoids = suite.ellipsoid_batch(2, 4, cli.DEFAULT_SEED)
    open_ = [A for A in ellipsoids if np.linalg.cond(A) >= 1.25]
    assert len(open_) == 9  # cleared: the unit ball, 0.5 I, 2 I and the third random one (kappa 1.20)
    svds.clear()
    code, _, err = run_cli(capsys, "certify", str(path), "--eps", "0.1", "--trials", "4")
    assert code == 2
    assert "error: singular matrix (condition number 1.600e+12)" in err
    assert [np.shape(a) for a in svds] == [(4, 4), (4, 4, 4), (9, 4, 4)]
    np.testing.assert_array_equal(svds[2], sy.plane_scaling([1e-6, 4e5]) @ np.array(open_))


def test_symplectify_computes_the_defect_twice(capsys, identity_file, tmp_path, monkeypatch):
    calls = []
    original = sy.defect

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sy, "defect", counted)
    monkeypatch.setattr(mo, "defect", counted)
    psi_path = str(tmp_path / "psi.txt")
    code, _, _ = run_cli(capsys, "symplectify", identity_file, "--eps", "0", "--out", psi_path)
    assert code == 0
    assert len(calls) == 2  # the input defect and the residual defect of phi @ psi


def test_certify_symplectic_passes(capsys, tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "symp.txt"
    sy.save_matrix(path, sy.random_symplectic(2, rng))
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0", "--trials", "8")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["eps_prime"] == 0.0


def test_certify_eps_symplectic_passes(capsys, tmp_path):
    path = tmp_path / "eps.txt"
    sy.save_matrix(path, sy.random_eps_symplectic(2, 0.05, seed=17))
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0.05", "--trials", "8")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_certify_squeezing_map_fails(capsys, tmp_path):
    path = tmp_path / "crush.txt"
    sy.save_matrix(path, sy.plane_scaling([0.1, 1.0]))
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0", "--trials", "4")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_certify_eps_out_of_range(capsys, identity_file):
    code, _, err = run_cli(capsys, "certify", identity_file, "--eps", "0.9")
    assert code == 2


def test_certify_deterministic(capsys, tmp_path):
    path = tmp_path / "eps.txt"
    sy.save_matrix(path, sy.random_eps_symplectic(2, 0.02, seed=3))
    _, out1, _ = run_cli(capsys, "certify", str(path), "--eps", "0.02", "--seed", "9")
    _, out2, _ = run_cli(capsys, "certify", str(path), "--eps", "0.02", "--seed", "9")
    assert out1 == out2


def _batch_sha256(batch):
    return hashlib.sha256(np.ascontiguousarray(batch, dtype="<f8").tobytes()).hexdigest()


def test_certify_names_its_batch_by_radii_seed_and_digest(capsys, tmp_path):
    path = tmp_path / "eps.txt"
    sy.save_matrix(path, sy.random_eps_symplectic(2, 0.02, seed=3))
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0.02", "--trials", "3", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 3
    assert "ellipsoid_matrices" not in report
    # the report's n, trials and seed regenerate the batch, and its digest proves it
    batch = suite.ellipsoid_batch(report["n"], report["batch"]["trials"], report["seed"])
    assert (report["n"], report["batch"]["trials"], report["seed"]) == (2, 3, 5)
    assert report["ellipsoids"] == len(batch) == 9 + 3
    assert report["batch"]["sha256"] == _batch_sha256(batch)
    assert report["batch"]["canonical_radii"] == [np.diag(A)[::2].tolist() for A in batch[:9]]
    assert report["batch"]["canonical_radii"][0] == [1.0, 1.0]  # the unit ball first
    rng = np.random.default_rng(5)
    np.testing.assert_array_equal(batch[9:], [random_ellipsoid(rng, 2) for _ in range(3)])
    # one width table; each record holds only its certificate's own fields
    widths = report["widths"]
    assert list(widths) == ["r1", "R1", "s_A", "e_A"] and all(len(col) == 12 for col in widths.values())
    for key, fields in (("nonsqueezing", ["margin", "pass"]), ("nonexpanding", ["margin", "pass"]),
                        ("capacity", ["lower_margin", "lower_pass", "upper_margin", "upper_pass", "pass"])):
        assert [list(rec) for rec in report[key]["records"]] == [fields] * 12
    # the witnesses: each ellipsoid that a worst names, once, in index order
    named = sorted({report[key]["worst"]["index"] for key in ("nonsqueezing", "nonexpanding", "capacity")})
    assert [w["index"] for w in report["witnesses"]] == named
    for witness in report["witnesses"]:
        i = witness["index"]
        assert witness["A"] == batch[i].tolist()
        assert float(sy.symplectic_spectrum(np.array(witness["A"]))[0]) == widths["r1"][i]


def test_certify_names_the_failing_worst_ellipsoid_among_its_witnesses(capsys, tmp_path):
    phi = sy.plane_scaling([0.1, 1.0])
    path = tmp_path / "crush.txt"
    sy.save_matrix(path, phi)
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0", "--trials", "4")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    worst = report["nonsqueezing"]["worst"]
    i = worst["index"]
    assert worst["margin"] < 0 and report["nonsqueezing"]["records"][i] == {"margin": worst["margin"], "pass": False}
    witnesses = {w["index"]: np.array(w["A"]) for w in report["witnesses"]}
    batch = suite.ellipsoid_batch(2, 4, cli.DEFAULT_SEED)
    assert report["batch"]["sha256"] == _batch_sha256(batch)
    np.testing.assert_array_equal(witnesses[i], batch[i])
    # the failing margin follows from the witness and the width table
    widths = report["widths"]
    assert float(sy.symplectic_spectrum(phi @ witnesses[i])[0]) == widths["R1"][i]
    assert widths["R1"][i] - widths["s_A"][i] * widths["r1"][i] == worst["margin"]


def test_certify_singular_map_has_no_width_table_and_no_witnesses(capsys, tmp_path):
    path = tmp_path / "singular.txt"
    sy.save_matrix(path, np.diag([0.0, 1.0, 1.0, 1.0]))
    code, out, _ = run_cli(capsys, "certify", str(path), "--eps", "0.1", "--trials", "2")
    assert code == 1
    report = json.loads(out)
    assert report["widths"] is None and report["witnesses"] == []
    assert report["batch"]["sha256"] == _batch_sha256(suite.ellipsoid_batch(2, 2, cli.DEFAULT_SEED))
    assert all(report[key]["records"] == [] for key in ("nonsqueezing", "nonexpanding", "capacity"))


def _canonical_ellipsoids_loop(n):
    """The per-matrix grid that the zero stack replaced: the reference."""
    batch = [np.eye(2 * n)]
    seen = {(1.0,) * n}
    radii = (0.5, 1.0, 2.0)
    combos = itertools.product(radii, repeat=n) if n <= 4 else ((r,) * n for r in radii)
    for combo in combos:
        if combo not in seen:
            seen.add(combo)
            batch.append(sy.plane_scaling(combo))
    return batch


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_ellipsoids_match_the_plane_scaling_list(n):
    grid, expected = suite.ellipsoid_batch(n, 0, 0), _canonical_ellipsoids_loop(n)
    assert len(grid) == len(expected) == (3**n if n <= 4 else 3)
    for A, B in zip(grid, expected):
        assert A.shape == B.shape and np.array_equal(A, B)
        assert not np.signbit(A).any()
    # plane_scaling builds a stack of radii as it builds each row, with +0.0
    # off the diagonal also for a negative radius or -0.0
    radii = np.random.default_rng(n).normal(size=(6, n))
    radii[0, 0], radii[1, -1] = -0.0, 0.0
    rows = [sy.plane_scaling(r) for r in radii]
    for r, A in zip(radii, rows):
        assert A.tobytes() == np.diag(np.repeat(r, 2)).tobytes()
    for shape in ((6, n), (2, 3, n)):
        stack = sy.plane_scaling(radii.reshape(shape))
        assert stack.shape == shape[:-1] + (2 * n, 2 * n)
        assert stack.tobytes() == np.array(rows).tobytes()


def _indented_sha256(text: str) -> str:
    """sha256 of the JSON text re-indented as json.dumps(indent=2), the layout
    the golden digests were recorded on, once text is checked to be the
    one-line json.dumps of itself: together they fix text byte for byte."""
    data = json.loads(text)
    assert text == json.dumps(data) + "\n"
    return hashlib.sha256((json.dumps(data, indent=2) + "\n").encode("utf-8")).hexdigest()


# sha256 of the stdout of `certify phi.txt --eps 0.06 --seed <10 + n>` with
# phi = random_eps_symplectic(n, 0.05, seed=n), re-indented (see
# _indented_sha256), recorded (numpy 2.4.6 on x86-64) when the report became
# schema 3: one width table, slim records, the batch named by its radii,
# trials and digest, and only the witness ellipsoids written out.  The
# schema-2 reports of the same runs, mapped to schema 3, equal these by repr
# of every value.  Another BLAS or LAPACK build may round differently and
# need its own digests.
CERTIFY_STDOUT_SHA256 = {
    1: "64f79ab1c2100f6c223336b9aad944facbfdbcd1adbe344e80717ace8cc27726",
    2: "8c7bb8aaea686729a697972799329b80a1375bf35aae4b39a2166a66555ed231",
    3: "72f0fa85865bbc83f32db16df7156c8d0ebb5982fe13d7a2cfc69b59374c4db6",
    4: "a9b74c833e0540382509b5b3ee217e2109bf7809ab60064985c4261f8d8d5fe9",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certify_stdout_matches_its_golden_digest(capsys, tmp_path, monkeypatch, n):
    monkeypatch.chdir(tmp_path)  # the report names the matrix file by the path given
    sy.save_matrix("phi.txt", sy.random_eps_symplectic(n, 0.05, seed=n))
    code, out, _ = run_cli(capsys, "certify", "phi.txt", "--eps", "0.06", "--seed", str(10 + n))
    assert code == 0
    assert _indented_sha256(out) == CERTIFY_STDOUT_SHA256[n]


# The homotopy input of the golden digests below: a 2-form on R^4 with
# rational coefficients, and three points.
_GOLDEN_FORM = pf.PolyForm(4, 2, {
    (1, 2): {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 1, 0): Fraction(-1)},
    (2, 4): {(1, 0, 0, 1): Fraction(1, 3), (0, 0, 0, 0): Fraction(5, 7)},
})
_GOLDEN_POINTS = [[0.1, 0.2, -0.3, 0.4], [1.0, 0.0, 0.5, -0.25], [0.0, 0.0, 0.0, 0.0]]

# sha256 of stdout (and of the file homotopy writes to --out), re-indented
# and recorded on the same platform as CERTIFY_STDOUT_SHA256; phi.txt is
# random_eps_symplectic(2, 0.05, seed=2).  "suite" was recorded again once
# the Moser field became a series about anchor times, and again once each
# anchor segment's RK4 steps became one scalar polynomial in the field: each
# time its moser entry moved in the last bits (worst_residual and the
# step-halving ratio).
GOLDEN_SHA256 = {
    "analyze": "c5cb15016bbdb167342ec422923587bb8a92313134ac4d21189fe559336bb00f",
    "bounds": "a74446dfccdf27cba5764c0035e4f093ef66339c0f762c08b09950a7b4a58803",
    "homotopy": "d02a91b627dae590eeb85a65ee2fe2524e950b9c81bae190c45d0c0f73c45486",
    "homotopy --out": "70c9c582c0829367bffc400391f79e6cbfcf9c21400da86d27d36712913b0cf5",
    "suite": "8747f1ddb5bab3c4b7a81a9dc1165de327a8ad17f6c946a8600e672b794c72ab",
}


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "phi.txt", "--eps", "0.06"],
        ["bounds", "--eps", "0.1", "--n", "3"],
        ["homotopy", "form.json", "points.json", "--out", "h.json"],
        ["suite", "--seed", "7", "--scale", "smoke"],
    ],
    ids=lambda command: command[0],
)
def test_stdout_matches_its_golden_digest(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # reports name their input files by the paths given
    sy.save_matrix("phi.txt", sy.random_eps_symplectic(2, 0.05, seed=2))
    (tmp_path / "form.json").write_text(json.dumps(_GOLDEN_FORM.to_json_dict()))
    (tmp_path / "points.json").write_text(json.dumps(_GOLDEN_POINTS))
    code, out, _ = run_cli(capsys, *command)
    assert code == 0
    digests = {command[0]: _indented_sha256(out)}
    if command[0] == "homotopy":
        digests["homotopy --out"] = _indented_sha256((tmp_path / "h.json").read_text(encoding="utf-8"))
    assert digests == {key: GOLDEN_SHA256[key] for key in digests}


def test_main_builds_one_parser_per_process(capsys, monkeypatch, identity_file):
    calls = [
        ["analyze", identity_file],
        ["certify", identity_file],  # no --eps: argparse exits 2
        ["--version"],
        ["certify", identity_file, "--eps", "0.1", "--trials", "2"],
        ["analyze", identity_file, "--eps", "0.1"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            out, err = capsys.readouterr()
            return code, out, err  # argparse's own messages carry no wall time
        return code, capsys.readouterr().out, None

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert len(builds) == 1


def test_certify_rejects_negative_trials(capsys, identity_file):
    code, out, err = run_cli(capsys, "certify", identity_file, "--eps", "0.1", "--trials", "-3")
    assert code == 2
    assert out == ""
    assert "--trials must be >= 0, got -3" in err


@pytest.mark.parametrize("command", [["certify", "MATRIX", "--eps", "0.1"], ["suite"]])
def test_negative_seed_is_refused_by_name(capsys, identity_file, command):
    argv = [identity_file if arg == "MATRIX" else arg for arg in command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed must be >= 0, got -1" in err


def test_symplectify_identity(capsys, identity_file, tmp_path):
    psi_path = str(tmp_path / "psi.txt")
    code, out, _ = run_cli(
        capsys, "symplectify", identity_file, "--eps", "0", "--out", psi_path
    )
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    np.testing.assert_allclose(sy.load_matrix(psi_path), np.eye(4), atol=1e-12)


def test_symplectify_out_over_its_input_reports_the_input_hash(capsys, tmp_path):
    path, phi = tmp_path / "phi.txt", sy.plane_scaling([0.9, 1.1])
    sy.save_matrix(path, phi)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    eps = repr(sy.defect(phi) + 1e-9)
    code, out, _ = run_cli(capsys, "symplectify", str(path), "--eps", eps, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != before  # psi replaced the input
    assert json.loads(out)["inputs"]["sha256"] == before


def test_each_input_file_is_opened_once_and_hashed_as_read(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    phi = sy.plane_scaling([0.9, 1.1])
    sy.save_matrix("phi.txt", phi)
    (tmp_path / "form.json").write_text(json.dumps(_GOLDEN_FORM.to_json_dict()))
    (tmp_path / "points.json").write_text(json.dumps(_GOLDEN_POINTS))
    eps = repr(sy.defect(phi) + 1e-9)
    opened = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    for argv, opens in [
        (["analyze", "phi.txt"], [("phi.txt", "rb")]),
        (["certify", "phi.txt", "--eps", eps, "--trials", "2"], [("phi.txt", "rb")]),
        (["homotopy", "form.json", "points.json"], [("form.json", "rb"), ("points.json", "rb")]),
        # the one other open is psi's write over the input
        (["symplectify", "phi.txt", "--eps", eps, "--out", "phi.txt"], [("phi.txt", "rb"), ("phi.txt", "w")]),
    ]:
        want = hashlib.sha256((tmp_path / argv[1]).read_bytes()).hexdigest()
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", recording_open)
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert opened == opens
        assert json.loads(out)["inputs"]["sha256"] == want


@pytest.mark.parametrize("name", ["phi.txt", "phi.json"])
def test_a_crlf_input_gives_the_same_report_and_the_hash_of_its_bytes(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    sy.save_matrix(name, sy.random_eps_symplectic(2, 0.05, seed=2))
    lf = (tmp_path / name).read_bytes()
    crlf = lf.replace(b"\n", b"\r\n")
    code, out_lf, _ = run_cli(capsys, "analyze", name)
    (tmp_path / name).write_bytes(crlf)
    assert run_cli(capsys, "analyze", name)[:2] == (
        code, out_lf.replace(hashlib.sha256(lf).hexdigest(), hashlib.sha256(crlf).hexdigest()))
    assert code == 0 and b"\r\n" in crlf


def test_symplectify_plane_scaling(capsys, tmp_path):
    path = tmp_path / "scale.txt"
    sy.save_matrix(path, sy.plane_scaling([0.9, 1.1]))
    eps = sy.defect(sy.plane_scaling([0.9, 1.1])) + 1e-9
    psi_path = str(tmp_path / "psi.txt")
    code, out, _ = run_cli(
        capsys, "symplectify", str(path), "--eps", repr(eps), "--out", psi_path
    )
    assert code == 0
    psi = sy.load_matrix(psi_path)
    np.testing.assert_allclose(psi, sy.plane_scaling([1 / 0.9, 1 / 1.1]), atol=1e-6)


def test_symplectify_reports_the_effective_step(capsys, identity_file, tmp_path):
    psi_path = str(tmp_path / "psi.txt")
    code, out, _ = run_cli(
        capsys, "symplectify", identity_file, "--eps", "0", "--step", "0.003", "--out", psi_path
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["steps"] == 333
    assert report["step_size"] == 0.003
    assert report["effective_step"] == 1.0 / 333


@pytest.mark.parametrize("step", ["1e-8", "1e-5", "0.05", "0", "nan"])
def test_symplectify_refuses_a_step_outside_its_range(capsys, identity_file, step):
    # a step below 1e-4 only grows the grid: at 1e-8 it would ask numpy for gigabytes
    code, out, err = run_cli(capsys, "symplectify", identity_file, "--eps", "0", "--step", step)
    assert code == 2
    assert out == ""
    assert f"step size must lie in [1e-4, 1e-2], got {float(step)}" in err


def test_symplectify_rejects_defect_above_eps(capsys, fixture_file):
    code, _, err = run_cli(capsys, "symplectify", fixture_file, "--eps", "0.01")
    assert code == 1
    assert "exceeds" in err


def test_symplectify_decides_exactly_inside_the_defect_rounding(capsys, tmp_path, fixture_file):
    # ||Phi||_F^2 = 1.49e6: the computed defect 2.6e-11 of this map lies within
    # its rounding bound 1.9e-9 of eps + 1e-12 at eps = 0, so the exact defect
    # 2.51e-11 of the saved matrix decides, and it exceeds the budget
    rng = np.random.default_rng(0)
    U, V = sy.random_symplectic(2, rng), sy.random_symplectic(2, rng)
    path = str(tmp_path / "big.txt")
    sy.save_matrix(path, U @ np.diag([1000.0, 1e-3, 1.0, 1.0]) @ V)
    phi = sy.load_matrix(path)
    d0, bound = sy.defect(phi), sy.defect_rounding_bound(phi)
    assert 1e-12 < d0 < bound
    assert 2.5e-11 < math.sqrt(exact.defect_squared(phi)) < 2.52e-11
    code, out, err = run_cli(capsys, "symplectify", path, "--eps", "0")
    assert (code, out) == (1, "")
    assert err == f"defect {d0:.6e} exceeds eps 0.000000e+00\n"
    # and at eps = 2.6e-11, within the same band, it meets the budget
    code, out, _ = run_cli(capsys, "symplectify", path, "--eps", "2.6e-11", "--out", str(tmp_path / "psi.txt"))
    assert code == 0 and json.loads(out)["report"]["input_defect"] == d0
    code, out, err = run_cli(capsys, "symplectify", fixture_file, "--eps", "0.05")  # defect 0.1
    assert (code, out) == (1, "")
    assert err == "defect 1.000000e-01 exceeds eps 5.000000e-02\n"


@pytest.mark.parametrize("eps", ["-0.5", "nan", "inf"])
def test_symplectify_refuses_negative_or_non_finite_eps(capsys, identity_file, eps):
    code, out, err = run_cli(capsys, "symplectify", identity_file, "--eps", eps)
    assert code == 2
    assert out == ""
    assert f"--eps must be finite and >= 0, got {float(eps)}" in err


@pytest.mark.parametrize("matrix", ["identity", "defect-1.25"])
@pytest.mark.parametrize("eps", ["0.8", repr(sy.EPS_LIMIT)])
def test_symplectify_refuses_eps_at_or_above_the_limit(capsys, tmp_path, identity_file, matrix, eps):
    # refused by name before the matrix is read: a map whose defect exceeds
    # such a budget gets no "exceeds" verdict
    path = identity_file
    if matrix == "defect-1.25":
        path = str(tmp_path / "steep.txt")
        sy.save_matrix(path, sy.plane_scaling([1.5, 1.0]))
        assert sy.defect(sy.plane_scaling([1.5, 1.0])) == 1.25
    code, out, err = run_cli(capsys, "symplectify", path, "--eps", eps)
    assert code == 2
    assert out == ""
    assert f"--eps must be < 1/sqrt(2), got {float(eps)}" in err
    assert "exceeds" not in err


def test_bounds_at_zero(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--eps", "0", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rho_linear"] == 1.0
    assert report["rho_nonlinear"] == 1.0
    assert report["K"] == 0.0
    assert report["s_I"] == 1.0


def test_bounds_worked_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--eps", "0.1", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rho_nonlinear"] == pytest.approx(0.7372, abs=1e-4)
    assert report["z0"] == pytest.approx(0.894, abs=5e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounds_identity_params_match_squeezing_params(capsys, n):
    code, out, _ = run_cli(capsys, "bounds", "--eps", "0.15", "--n", str(n))
    assert code == 0
    report = json.loads(out)
    params = sy.squeezing_params(np.eye(2 * n), 0.15)
    assert (report["s_I"], report["e_I"]) == (params.s_A, params.e_A)


def test_bounds_huge_n_is_answered_without_a_matrix(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--eps", "0.1", "--n", "1000000000000")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 10**12
    numbers = [v for v in report.values() if isinstance(v, float)]
    assert numbers and all(np.isfinite(numbers))


def test_bounds_eps_above_threshold(capsys):
    code, _, err = run_cli(capsys, "bounds", "--eps", "0.25", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bounds_rejects_nonpositive_n(capsys, n):
    code, out, err = run_cli(capsys, "bounds", "--eps", "0.1", "--n", n)
    assert code == 2
    assert out == ""
    assert "--n must be >= 1" in err


def test_homotopy_area_form(capsys, tmp_path):
    form = pf.PolyForm.basis(4, (1, 2))
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form.to_json_dict()))
    points_path = tmp_path / "points.json"
    points_path.write_text(json.dumps([[1.0, 0.0, 0.0, 0.0], [0.2, 0.3, 0.0, 0.1]]))
    out_path = tmp_path / "h.json"
    code, out, _ = run_cli(
        capsys, "homotopy", str(form_path), str(points_path), "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["identity_exact"] is True
    assert report["bounds"]["passed"] is True
    written = pf.PolyForm.from_json_dict(json.loads(out_path.read_text()))
    assert written == pf.h(form)


def test_homotopy_reduces_a_400_digit_fraction(capsys, tmp_path):
    x = 7**473
    form = {"m": 2, "k": 1, "terms": [{"index": [1], "poly": [{"exp": [1, 0], "num": str(10 * x), "den": str(3 * x)}]}]}
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form))
    points_path = tmp_path / "points.json"
    points_path.write_text("[[0.3, -0.2]]")
    code, out, _ = run_cli(capsys, "homotopy", str(form_path), str(points_path))
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report) + "\n"
    assert report["h"]["terms"] == [{"index": [], "poly": [{"exp": [2, 0], "num": "5", "den": "3"}]}]
    assert report["identity_exact"] is True and report["bounds"]["passed"] is True


def test_homotopy_reads_a_4000_digit_numerator(capsys, tmp_path):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(_form_with(["terms", 0, "poly", 0, "num"], "7" * 4000)))
    code, out, _ = run_cli(capsys, "homotopy", str(form_path))
    assert code == 0
    # 7...7 / 2 x1 dx1 has the primitive 7...7 / 4 x1^2
    assert json.loads(out)["h"]["terms"] == [{"index": [], "poly": [{"exp": [2, 0], "num": "7" * 4000, "den": "4"}]}]


def test_homotopy_refuses_a_primitive_of_more_digits_than_are_written(capsys, tmp_path):
    # 1/(10^2999 + 1) + 1/(10^2999 + 3) at x1 dx1 parses, but sums to a fraction whose
    # denominator has 5999 digits; h(f) is the first form written, so its index and exponent are named
    a = 10**2999
    entries = [{"exp": [1, 0], "num": "1", "den": str(a + 1)}, {"exp": [1, 0], "num": "1", "den": str(a + 3)}]
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps({"m": 2, "k": 1, "terms": [{"index": [1], "poly": entries}]}))
    code, out, err = run_cli(capsys, "homotopy", str(form_path))
    assert code == 2
    assert out == ""
    assert err == ("error: coefficient at index [], exponent [2, 0] has a numerator or denominator of 5999 digits, "
                   "more than the 4300 that are written\n")


def run_cli_without_warnings(capsys, *argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return result


@pytest.mark.parametrize(
    "form, points, message",
    [
        (pf.PolyForm.basis(4, (1, 2)), "[[0.1, NaN, 0.0, 0.0]]", "non-finite entry nan at point 1, coordinate 2"),
        (pf.PolyForm(3, 1, {(1,): {(2, 0, 0): 1}}), "[[0.5, 0, 0], [1e200, 0, 0]]",
         "norm bounds at point [1e+200, 0.0, 0.0] overflow"),
        (pf.PolyForm(3, 1, {(1,): {(2, 0, 0): 1}}), "[[1e160, 0, 0]]", "norm bounds at point [1e+160, 0.0, 0.0] overflow"),
        # 10^400 x1 dx1: h(f) is the first table built at the points, so its index and exponent are named
        (pf.PolyForm(2, 1, {(1,): {(1, 0): 10**400}}), "[[0.1, 0.2]]",
         "error: coefficient at index [], exponent [2, 0] is outside the float range\n"),
    ],
    ids=["nan-point", "overflowing-norm", "overflowing-values", "coefficient-beyond-floats"],
)
def test_homotopy_refuses_non_finite_points_and_bounds(capsys, tmp_path, form, points, message):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form.to_json_dict()))
    points_path = tmp_path / "points.json"
    points_path.write_text(points)
    code, out, err = run_cli_without_warnings(capsys, "homotopy", str(form_path), str(points_path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_analyze_refuses_non_finite_eps(capsys, identity_file, eps):
    code, out, err = run_cli_without_warnings(capsys, "analyze", identity_file, "--eps", eps)
    assert code == 2
    assert out == ""
    assert f"--eps must be finite, got {eps}" in err


_FORM = {"m": 2, "k": 1, "terms": [{"index": [1], "poly": [{"exp": [1, 0], "num": "3", "den": "2"}]}]}


def _form_with(path, value):
    """_FORM with the field at ``path`` (keys and list positions) set to value."""
    form = json.loads(json.dumps(_FORM))
    node = form
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return form


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("polyform", [_FORM], "polyform JSON must be an object, got list"),
        ("polyform", _form_with(["terms"], 5), "malformed polyform JSON"),
        ("polyform", _form_with(["terms", 0, "poly", 0, "den"], "0"), "JSON field 'den' must be nonzero"),
        ("polyform", _form_with(["terms", 0, "poly", 0, "num"], 1.5), "JSON field 'num' must hold integers, got 1.5"),
        ("polyform", _form_with(["terms", 0, "poly", 0, "exp"], [1.7, 0]), "JSON field 'exp' must hold integers, got 1.7"),
        ("polyform", _form_with(["terms", 0, "index"], [1.9]), "JSON field 'index' must hold integers, got 1.9"),
        ("polyform", _form_with(["m"], 2.9), "JSON field 'm' must hold integers, got 2.9"),
        ("polyform", _form_with(["terms", 0, "index"], "1"),
         "malformed polyform JSON: JSON field 'index' must be a list, got str"),
        ("polyform", _form_with(["terms", 0, "poly", 0, "exp"], "10"),
         "malformed polyform JSON: JSON field 'exp' must be a list, got str"),
        ("points", 5, "points JSON must be a list of points, got int"),
        ("matrix", {"n": 1.5, "rows": [[1, 0], [0, 1]]}, "JSON field 'n' must hold integers, got 1.5"),
        ("matrix", {"n": True, "rows": [[1, 0], [0, 1]]}, "JSON field 'n' must hold integers, got True"),
        ("matrix", {"n": 1, "rows": [[{}, 0], [0, 1]]}, "malformed matrix JSON: 'rows' must hold numbers"),
        ("points", [{"a": 1}], "points must hold numbers"),
        ("polyform", {"k": 1}, "malformed polyform JSON: missing field 'm'"),
        ("matrix", {"n": 1, "rows": [["1.5", 0], [0, 1]]},
         "malformed matrix JSON: 'rows' must hold numbers: '1.5' is a str, not a number"),
        ("matrix", {"n": 1, "rows": [[True, 0], [0, 1]]},
         "malformed matrix JSON: 'rows' must hold numbers: True is a bool, not a number"),
        ("points", [["0.5", 1]], "points must hold numbers: '0.5' is a str, not a number"),
        ("points", [[0.5, False]], "points must hold numbers: False is a bool, not a number"),
        # an integer, but of more digits than int() converts: the count and limit are named, not the digits
        ("polyform", _form_with(["terms", 0, "poly", 0, "num"], "7" * 5000),
         "JSON field 'num' holds an integer of 5000 digits, more than the 4300 that are read: 77777777777777777777...\n"),
        # not an integer at all: at most 20 characters of it are echoed
        ("polyform", _form_with(["terms", 0, "poly", 0, "num"], "x" + "7" * 5000),
         "JSON field 'num' must hold integers, got 'x777777777777777777...\n"),
        ("matrix", {"n": -1, "rows": []}, "half-dimension must be >= 1, got -1"),
        # a str is the file's text: unquoted integers of more digits than json's int() converts, named by
        # count, limit and place, not by the interpreter's advice to raise the limit
        ("matrix", '{"n": ' + "7" * 5000 + ', "rows": []}',
         "integer 77777777777777777777... of 5000 digits, more than the 4300 that are read: line 1 column 7 (char 6)\n"),
        ("polyform", json.dumps(_FORM).replace('"num": "3"', '"num": ' + "7" * 5000),
         "integer 77777777777777777777... of 5000 digits, more than the 4300 that are read: line 1 column 75 (char 74)\n"),
        ("points", "[[0.5,\n -" + "7" * 5000 + "]]",
         "integer -7777777777777777777... of 5000 digits, more than the 4300 that are read: line 2 column 2 (char 8)\n"),
    ],
    ids=["form-list", "terms-int", "den-zero", "num-float", "exp-float", "index-float", "m-float",
         "index-str", "exp-str", "points-int", "n-float", "n-bool", "rows-object", "point-object", "form-no-m",
         "rows-str", "rows-bool", "point-str", "point-bool", "num-5000-digits", "num-x-5000-digits", "n-negative",
         "n-5000-digit-literal", "num-5000-digit-literal", "point-5000-digit-literal"],
)
def test_malformed_json_inputs_are_refused_by_name(capsys, tmp_path, kind, content, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run_cli(capsys, *_reader_argv(tmp_path, kind, path))
    assert code == 2
    assert out == ""
    assert f"cannot read {kind} file {str(path)!r}: {message}" in err
    assert "set_int_max_str_digits" not in err


def _reader_argv(tmp_path, kind, path):
    """A command that reads ``path`` as a file of the given kind."""
    if kind == "matrix":
        return ["analyze", str(path)]
    if kind == "polyform":
        return ["homotopy", str(path)]
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(_FORM))
    return ["homotopy", str(form_path), str(path)]


@pytest.mark.parametrize("command", [["certify", "--eps", "0.1"], ["symplectify", "--eps", "0.1"]],
                         ids=["certify", "symplectify"])
def test_matrix_string_entry_is_refused_by_name(capsys, tmp_path, command):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 1, "rows": [["1.5", 0], [0, 1]]}))
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert f"cannot read matrix file {str(path)!r}: malformed matrix JSON: 'rows' must hold numbers" in err


def test_homotopy_refuses_an_exponent_too_large_to_evaluate_at_points(capsys, tmp_path):
    # h(f) of x1^MAX dx1 has the exponent MAX + 1 on x1
    limit = pf.MAX_TABLE_EXPONENT
    form, points = tmp_path / "form.json", tmp_path / "points.json"
    form.write_text(json.dumps(pf.PolyForm(3, 1, {(1,): {(limit, 0, 0): 1}}).to_json_dict()))
    points.write_text("[[0.5, 0.1, 0.2]]")
    code, out, err = run_cli(capsys, "homotopy", str(form), str(points))
    assert (code, out) == (2, "")
    assert f"error: exponent {limit + 1} of x1 exceeds {limit}, the largest that is evaluated at points" in err
    # without points, h(f) stays exact and unlimited
    code, out, _ = run_cli(capsys, "homotopy", str(form))
    assert code == 0 and json.loads(out)["identity_exact"] is True


def test_homotopy_computes_each_primitive_once(capsys, tmp_path, monkeypatch):
    computed = []
    h = pf.h
    monkeypatch.setattr(pf, "h", lambda f: computed.append(f.k) or h(f))
    form, points = tmp_path / "form.json", tmp_path / "points.json"
    form.write_text(json.dumps(pf.PolyForm(3, 1, {(1,): {(1, 2, 0): Fraction(3, 2)}}).to_json_dict()))
    points.write_text("[[0.1, 0.2, -0.3], [0.0, 0.5, 0.1]]")
    code, out, _ = run_cli(capsys, "homotopy", str(form), str(points))
    assert code == 0 and json.loads(out)["bounds"]["passed"]
    assert computed == [1]  # h(f) alone: the identity check reuses it and never builds h(d f)


@pytest.mark.parametrize("kind", ["matrix", "polyform", "points"])
def test_deeply_nested_json_is_refused_by_name(capsys, tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, *_reader_argv(tmp_path, kind, path))
    assert code == 2
    assert out == ""
    assert f"error: cannot read {kind} file {str(path)!r}: " in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", "IDENTITY"], 0),
        (["analyze", "OBJECT"], 2),
        (["certify", "IDENTITY", "--eps", "0", "--trials", "2"], 0),
        (["certify", "CRUSH", "--eps", "0", "--trials", "2"], 1),
        (["certify", "OBJECT", "--eps", "0"], 2),
        (["symplectify", "IDENTITY", "--eps", "0", "--out", "PSI"], 0),
        (["symplectify", "FIXTURE", "--eps", "0.01", "--out", "PSI"], 1),
        (["symplectify", "OBJECT", "--eps", "0"], 2),
        (["bounds", "--eps", "0.1"], 0),
        (["bounds", "--eps", "0.1", "--n", "0"], 2),
        (["homotopy", "FORM", "POINTS"], 0),
        (["homotopy", "FORM", "BAD_POINTS"], 2),
        (["suite", "--seed", "7", "--scale", "smoke"], 0),
        (["suite", "--seed", "-1"], 2),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else str(value),
)
def test_exit_code_contract(capsys, tmp_path, identity_file, fixture_file, argv, expected):
    """0 pass, 1 certified failure, 2 input error; stderr holds no traceback."""
    files = {"IDENTITY": identity_file, "FIXTURE": fixture_file, "PSI": str(tmp_path / "psi.txt"),
             "CRUSH": str(tmp_path / "crush.txt")}
    sy.save_matrix(files["CRUSH"], sy.plane_scaling([0.1, 1.0]))
    for name, content in [("OBJECT", {"n": 1, "rows": [[{}, 0], [0, 1]]}), ("FORM", _FORM),
                          ("POINTS", [[0.5, 0.25]]), ("BAD_POINTS", [{"a": 1}])]:
        path = tmp_path / f"{name.lower()}.json"
        path.write_text(json.dumps(content))
        files[name] = str(path)
    code, out, err = run_cli(capsys, *[files.get(arg, arg) for arg in argv])
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert out == "" and err.startswith("error: ")
    elif argv[1] == "FIXTURE":  # a defect above the budget is a verdict with no report
        assert out == "" and "exceeds" in err
    else:  # main adds the command as the report's first key, and times the run
        assert next(iter(json.loads(out).items())) == ("command", argv[0])
        assert err.endswith(" s\n") and "wall time: " in err


@pytest.mark.parametrize(
    "command",
    [
        ["bounds", "--eps", "0.1", "--n", "2", "--out", "OUT"],
        ["symplectify", "MATRIX", "--eps", "0", "--out", "OUT"],
        ["homotopy", "FORM", "--out", "OUT"],
    ],
    ids=lambda command: command[0],
)
def test_unwritable_out_is_an_input_error(capsys, tmp_path, identity_file, command):
    out_path = str(tmp_path / "no-such-dir" / "out.json")
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(_FORM))
    paths = {"OUT": out_path, "MATRIX": identity_file, "FORM": str(form_path)}
    code, out, err = run_cli(capsys, *[paths.get(arg, arg) for arg in command])
    assert code == 2
    assert out == ""  # the report is refused before any of it is printed
    assert f"error: cannot write output file {out_path!r}: " in err


# Caps the process's address space at the bytes given as the first argument,
# before numpy is imported, then runs the command line given after them.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
from sympeps import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def _run_capped(tmp_path, limit, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, str(limit), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_out_of_memory_is_an_input_error(tmp_path, identity_file):
    # 10^8 random ellipsoids ask numpy for 23.8 GiB, which fails at once under
    # the cap; never run this command without it
    proc = _run_capped(tmp_path, 2 * 10**9, ["certify", identity_file, "--eps", "0.1", "--trials", "100000000"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: not enough memory for certify: Unable to allocate 23.8 GiB")
    assert "shape (100000000, 2, 4, 4)" in proc.stderr and "Traceback" not in proc.stderr


def test_norm_bounds_of_many_high_powers_fit_in_1_gb(tmp_path):
    # x2^999 ... x200^999 dx1 on R^200: every exponent is within
    # MAX_TABLE_EXPONENT, and the rays are evaluated from the point alone,
    # where powers at their 1000 samples would ask for 1.48 GiB
    m = 200
    form = {"m": m, "k": 1, "terms": [{"index": [1], "poly": [{"exp": [0] + [999] * (m - 1), "num": "1", "den": "1"}]}]}
    (tmp_path / "form.json").write_text(json.dumps(form))
    (tmp_path / "point.json").write_text(json.dumps([[0.5] + [0.0] * (m - 1)]))
    proc = _run_capped(tmp_path, 10**9, ["homotopy", "form.json", "point.json"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["bounds"]["rhs"] == [0.0]


def test_a_zero_form_on_a_huge_space_takes_no_loop_over_its_variables(capsys, tmp_path):
    # the zero form on R^(10^7) and no points: each table finds the variables
    # that occur in one array pass, not in a loop over 10^7 exponent columns
    (tmp_path / "form.json").write_text(json.dumps({"m": 10**7, "k": 1, "terms": []}))
    (tmp_path / "points.json").write_text("[]")
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "homotopy", str(tmp_path / "form.json"), str(tmp_path / "points.json"))
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    report = json.loads(out)
    assert report["h"] == {"m": 10**7, "k": 0, "terms": []} and report["identity_exact"] is True
    bounds = report["bounds"]
    assert bounds["s"] == 1.0 and bounds["ray_constant"] is True and bounds["passed"] is True
    assert bounds["points"] == bounds["lhs"] == bounds["ray_margins"] == []
    # its tables take no array the size of R^m either: the variables that
    # occur are read from the nonzero exponents
    tracemalloc.start()
    try:
        pf.h_bound_check(pf.PolyForm(10**8, 1), [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_homotopy_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "homotopy", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "command, files",
    [
        (["analyze", "phi.txt", "--eps", "0.06"], []),
        (["certify", "phi.txt", "--eps", "0.06", "--trials", "4", "--out", "report.json"], ["report.json"]),
        (["symplectify", "phi.txt", "--eps", "0.06", "--out", "psi.json"], ["psi.json"]),
        (["bounds", "--eps", "0.1", "--n", "3"], []),
        (["homotopy", "form.json", "points.json", "--out", "h.json"], ["h.json"]),
        (["suite", "--seed", "7", "--scale", "smoke"], []),
    ],
    ids=["analyze", "certify", "symplectify", "bounds", "homotopy", "suite"],
)
def test_every_json_text_is_one_line_json_dumps(capsys, tmp_path, monkeypatch, command, files):
    monkeypatch.chdir(tmp_path)
    sy.save_matrix("phi.txt", sy.random_eps_symplectic(2, 0.05, seed=2))
    (tmp_path / "form.json").write_text(json.dumps(_GOLDEN_FORM.to_json_dict()))
    (tmp_path / "points.json").write_text(json.dumps(_GOLDEN_POINTS))
    code, out, _ = run_cli(capsys, *command)
    assert code == 0
    texts = [out] + [(tmp_path / name).read_text(encoding="utf-8") for name in files]
    for text in texts:
        assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"
    code, out, _ = run_cli(capsys, *command, "--format", "text")
    assert code == 0
    assert out and "{" not in out  # the table only


def test_text_format_puts_table_on_stdout(capsys):
    code, out, err = run_cli(capsys, "bounds", "--eps", "0", "--n", "2", "--format", "text")
    assert code == 0
    assert "K(eps)" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_suite_smoke_passes_and_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "suite", "--seed", "7", "--scale", "smoke")
    assert code == 0
    report = json.loads(out1)
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} >= {
        "norms",
        "spectrum",
        "decomposition",
        "nonsqueezing",
        "homotopy",
        "moser",
        "constants",
    }
    code2, out2, _ = run_cli(capsys, "suite", "--seed", "7", "--scale", "smoke")
    assert code2 == 0
    assert out1 == out2
