"""End-to-end command-line tests: files, exit codes, determinism."""

import json

import numpy as np
import pytest

from lwsurf import NormParameter, residual_scan_table
from lwsurf.cli import (
    CsvFormatError,
    main,
    read_profile_csv,
    write_profile_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_single_piece(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "-1", "--mu", "1",
                           "--c1", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("6.1i-1, domain (0,")

    def test_two_pieces(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "-1", "--mu", "1",
                           "--c1", "1.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["6.1i-3-1", "6.1i-3-2"]

    def test_cylinder_relation(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "0", "--mu", "0")
        assert code == 0
        assert "4i" in out and "cylinder" in out

    def test_no_surface_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "--lambda", "0.5", "--mu", "1",
                           "--c1", "-0.3")
        assert code == 2
        assert "no surface" in err


class TestGenerateVerifyRoundTrip:
    def test_sphere(self, capsys, tmp_path):
        prefix = str(tmp_path / "sphere")
        code, out, _ = run(capsys, "generate", "--special", "sphere",
                           "--out", prefix)
        assert code == 0
        meta = json.loads((tmp_path / "sphere.meta.json").read_text())
        assert meta["case"] == "4ii"
        # the sphere satisfies k1 + k2 = -2
        report_path = str(tmp_path / "report.json")
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "1", "--mu", "-2",
                           "--report", report_path)
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert report["max_residual"] < 1e-8
        assert json.loads((tmp_path / "report.json").read_text()) == report

    def test_homogeneous_profile_at_default_tolerance(self, capsys, tmp_path):
        prefix = str(tmp_path / "hom")
        code, _, _ = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                         "--c2", "1", "--out", prefix)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "1", "--mu", "0")
        assert code == 0

    def test_file_scan_reproduces_memory_scan(self, tmp_path):
        # 14 significant digits perturb the fitted derivative by ~1e-10;
        # the statistics agree to that level, not to machine precision
        from lwsurf import solve_homogeneous
        p = NormParameter(2)
        b = solve_homogeneous(p, 1.0, 1.0)
        mem = residual_scan_table(p, b.alpha, b.u, b.du, 1.0, 0.0)
        path = str(tmp_path / "p.csv")
        write_profile_csv(path, b.alpha, b.u, b.du)
        alpha, u, du = read_profile_csv(path)
        disk = residual_scan_table(p, alpha, u, du, 1.0, 0.0)
        assert abs(mem.max_residual - disk.max_residual) < 1e-9
        assert abs(mem.median_residual - disk.median_residual) < 1e-9

    def test_wrong_relation_fails_verify(self, capsys, tmp_path):
        prefix = str(tmp_path / "hom")
        run(capsys, "generate", "--lambda", "1", "--mu", "0",
            "--out", prefix)
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "0.5", "--mu", "-1")
        assert code == 1
        assert not json.loads(out)["passed"]


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        args = ("generate", "--lambda", "-1", "--mu", "1", "--c1", "1.5",
                "--piece", "1")
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        assert ((tmp_path / "a.meta.json").read_bytes()
                == (tmp_path / "b.meta.json").read_bytes())


class TestCsvFormat:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvFormatError):
            read_profile_csv(str(path))

    def test_corrupted_column_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,u,du\n0.1,oops,0.3\n0.2,0.1,0.3\n")
        code, _, err = run(capsys, "verify", "--profile", str(path))
        assert code == 3
        assert "malformed" in err

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,u,du\n0.1,0.2\n")
        with pytest.raises(CsvFormatError, match="3 columns"):
            read_profile_csv(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,u,du\n0.1,nan,0.3\n0.2,0.1,0.3\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            read_profile_csv(str(path))

    def test_round_trip_precision(self, tmp_path):
        path = str(tmp_path / "p.csv")
        alpha = np.linspace(0.1, 1.0, 40)
        u = np.sin(alpha)
        du = np.cos(alpha)
        write_profile_csv(path, alpha, u, du)
        a2, u2, d2 = read_profile_csv(path)
        assert np.max(np.abs(a2 - alpha)) < 1e-13
        assert np.max(np.abs(u2 - u)) < 1e-13


class TestObjExport:
    def test_mesh_counts(self, capsys, tmp_path):
        prefix = str(tmp_path / "s")
        segments = 8
        code, _, _ = run(capsys, "generate", "--special", "sphere",
                         "--samples", "64", "--segments", str(segments),
                         "--obj", "--out", prefix)
        assert code == 0
        alpha, _, _ = read_profile_csv(prefix + ".csv")
        n = len(alpha)
        lines = (tmp_path / "s.obj").read_text().splitlines()
        verts = [ln for ln in lines if ln.startswith("v ")]
        faces = [ln for ln in lines if ln.startswith("f ")]
        assert len(verts) == n * (segments + 1)
        assert len(faces) == 2 * (n - 1) * segments
        # all face indices are valid and 1-based
        idx = [int(tok) for ln in faces for tok in ln.split()[1:]]
        assert min(idx) >= 1 and max(idx) <= len(verts)


class TestRecipeGeneration:
    def test_assembly_metadata(self, capsys, tmp_path):
        prefix = str(tmp_path / "c3")
        code, _, _ = run(capsys, "generate", "--lambda", "-1", "--mu", "1",
                         "--c1", "1.5", "--recipe", "C3",
                         "--samples", "128", "--out", prefix)
        assert code == 0
        meta = json.loads((tmp_path / "c3.meta.json").read_text())
        assert meta["recipe"] == "C3"
        assert meta["topology"] == "open_annulus"
        assert meta["end_derivative_match"] < 1e-8
        assert all(j["u_gap"] < 1e-8 for j in meta["junctions"])

    def test_piece_out_of_range(self, capsys):
        code, _, err = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                           "--piece", "5", "--out", "/tmp/nope")
        assert code == 1
        assert "out of range" in err


class TestUnexpectedErrors:
    def test_one_line_message_without_traceback(self, capsys, monkeypatch,
                                                tmp_path):
        def boom(req):
            raise KeyError("boom")

        monkeypatch.setattr("lwsurf.cli.solve", boom)
        code, _, err = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.splitlines() == ["error: KeyError: 'boom'"]
        assert "Traceback" not in err


class TestScanCoincidence:
    def test_disclaimer_and_rows(self, capsys):
        code, out, _ = run(capsys, "scan-coincidence", "--recipe", "C3",
                           "--lambda", "-1", "--mu", "1",
                           "--c1-min", "1.4", "--c1-max", "1.6",
                           "--steps", "3", "--samples", "96")
        assert code == 0
        assert "no torus existence is claimed" in out
        rows = [ln for ln in out.splitlines()
                if ln and not ln.startswith("#") and "c1" not in ln]
        assert len(rows) == 3


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("lambda = -1\nmu = 1\nc1 = 1.5\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        code, out, _ = run(capsys, "classify", "--config", str(cfg),
                           "--c1", "0.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("lambdah = -1\n")
        code, _, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# a job\n\nlambda = -1  # trailing\nmu = 1\n"
                       "c1 = 0.5\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert out.startswith("6.1i-1")
