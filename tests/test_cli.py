import json

import numpy as np
import pytest

from sympeps import cli
from sympeps import polyform as pf
from sympeps import symplectic as sy


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


def test_symplectify_identity(capsys, identity_file, tmp_path):
    psi_path = str(tmp_path / "psi.txt")
    code, out, _ = run_cli(
        capsys, "symplectify", identity_file, "--eps", "0", "--out", psi_path
    )
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    np.testing.assert_allclose(sy.load_matrix(psi_path), np.eye(4), atol=1e-12)


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


def test_symplectify_rejects_defect_above_eps(capsys, fixture_file):
    code, _, err = run_cli(capsys, "symplectify", fixture_file, "--eps", "0.01")
    assert code == 1
    assert "exceeds" in err


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


def test_homotopy_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "homotopy", str(bad))
    assert code == 2


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
