"""End-to-end command-line tests: files, exit codes, determinism."""

import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwsurf import (
    NormParameter,
    Recipe,
    SolveRequest,
    WeingartenRelation,
    residual_scan_table,
    solve,
)
from lwsurf import cli, quadrature, solver
from lwsurf.cli import (
    _COMMANDS,
    DEFAULTS,
    OPTIONS,
    CsvFormatError,
    _int_text,
    _merge_settings,
    _sci_text,
    build_parser,
    main,
    read_profile_csv,
    write_obj,
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

    def test_sphere_relation(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "inf", "--mu", "-1")
        assert code == 0
        assert out.startswith("4ii, domain (0, 1)")

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

    def test_special_sphere_is_the_relation_inf_minus_one(self, capsys,
                                                          tmp_path):
        for name, flags in (("s", ["--special", "sphere"]),
                            ("r", ["--lambda", "inf", "--mu", "-1"])):
            code, _, _ = run(capsys, "generate", *flags, "--m", "4",
                             "--sign", "-1", "--shift", "0.5",
                             "--out", str(tmp_path / name))
            assert code == 0
        assert ((tmp_path / "s.csv").read_bytes()
                == (tmp_path / "r.csv").read_bytes())
        metas = [json.loads((tmp_path / f"{name}.meta.json").read_text())
                 for name in "sr"]
        assert metas[0].pop("settings") != metas[1].pop("settings")
        assert metas[0] == metas[1]
        assert metas[0]["case"] == "4ii" and metas[0]["mu"] == -1.0

    def test_homogeneous_profile_at_default_tolerance(self, capsys, tmp_path):
        prefix = str(tmp_path / "hom")
        code, _, _ = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                         "--c2", "1", "--out", prefix)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "1", "--mu", "0")
        assert code == 0

    def test_unbounded_profile_with_a_divergent_span(self, capsys, tmp_path):
        # 5i-2: the table is cut at the domain's ALPHA_MAX_FACTOR end, and
        # the slow decay makes the span diverge, which the metadata
        # records as null
        prefix = str(tmp_path / "slow")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, _ = run(capsys, "generate", "--lambda", "0.1", "--mu",
                             "0", "--c2", "1", "--out", prefix)
        assert code == 0
        meta = json.loads((tmp_path / "slow.meta.json").read_text())
        assert meta["case"] == "5i-2"
        assert meta["domain"][1] == math.inf
        assert meta["d_value"] is None
        code, _, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                         "--lambda", "0.1", "--mu", "0")
        assert code == 0

    def test_file_scan_reproduces_memory_scan(self, tmp_path):
        # 14 significant digits perturb the first integral's terms by
        # ~5e-14 relative; the statistics agree to that level, not to
        # machine precision
        from lwsurf import solve_homogeneous
        p = NormParameter(2)
        b = solve_homogeneous(p, 1.0, 1.0)
        mem = residual_scan_table(p, b.alpha, b.u, b.du, 1.0, 0.0)
        path = str(tmp_path / "p.csv")
        write_profile_csv(path, b.alpha, b.u, b.du)
        alpha, u, du = read_profile_csv(path)
        disk = residual_scan_table(p, alpha, u, du, 1.0, 0.0)
        assert abs(mem.max_residual - disk.max_residual) < 1e-12
        assert abs(mem.median_residual - disk.median_residual) < 1e-12

    def test_wrong_relation_fails_verify(self, capsys, tmp_path):
        prefix = str(tmp_path / "hom")
        run(capsys, "generate", "--lambda", "1", "--mu", "0",
            "--out", prefix)
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "0.5", "--mu", "-1")
        assert code == 1
        assert not json.loads(out)["passed"]

    def test_overflowing_slope_fails_verify(self, capsys, tmp_path):
        """A du of 1e300 overflows the normal-angle function W to NaN, and
        with it the first integral's constant: the report fails, nothing
        raises."""
        from lwsurf import solve_constant_k2
        b = solve_constant_k2(NormParameter(2), samples=64)
        du = b.du.copy()
        du[40] = 1e300
        path = str(tmp_path / "p.csv")
        write_profile_csv(path, b.alpha, b.u, du)
        code, out, err = run(capsys, "verify", "--profile", path,
                             "--lambda", "1", "--mu", "-2")
        assert code == 1
        assert "error:" not in err
        report = json.loads(out)
        assert not report["passed"] and math.isnan(report["max_residual"])

    def test_flat_profile_passes_verify_on_every_row(self, capsys,
                                                     tmp_path):
        """At m = 4 the 6.3iii-1 axis-to-cap piece is flat: no slope of it
        reaches 1e-2, and the first integral checks every row anyway."""
        prefix = str(tmp_path / "f4")
        code, _, _ = run(capsys, "generate", "--m", "4", "--lambda", "-0.5",
                         "--mu", "1", "--c1", "2", "--out", prefix)
        assert code == 0
        meta = json.loads((tmp_path / "f4.meta.json").read_text())
        assert meta["case"] == "6.3iii-1"
        alpha, _, du = read_profile_csv(prefix + ".csv")
        assert np.max(np.abs(du)) < 1e-2
        code, out, err = run(capsys, "verify", "--m", "4", "--profile",
                             prefix + ".csv", "--lambda", "-0.5", "--mu", "1")
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] and report["n_points"] == len(alpha)
        assert report["excluded_fraction"] == 0.0

    def test_a_table_under_32_rows_is_verified(self, capsys, tmp_path):
        """The table check compares every row with the median and needs
        no window: a 15-row CSV passes, where a floor of 32 rows, left
        over from a windowed scan, refused it with exit 1."""
        prefix = str(tmp_path / "p")
        code, _, _ = run(capsys, "generate", "--lambda", "-1", "--mu", "1",
                         "--c1", "1.5", "--samples", "16", "--out", prefix)
        assert code == 0
        code, out, err = run(capsys, "verify", "--profile", prefix + ".csv",
                             "--lambda", "-1", "--mu", "1")
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] and report["n_points"] == 15
        assert report["max_residual"] < 1e-13


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


def sci_strings(x, digits):
    """The kernel's text of each element, NUL slots dropped."""
    text = _sci_text(np.asarray(x, dtype=float), digits)
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in text.reshape(-1, text.shape[-1])]


def python_strings(x, digits):
    return [f"%.{digits - 1}e" % v
            for v in np.asarray(x, dtype=float).ravel().tolist()]


# every float: a bit pattern of 64 bits, signaling NaNs included
FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


class TestSciText:
    """``_sci_text`` writes the bytes of Python's %-format, at the 11 digits
    of the OBJ vertices and the 14 of the profile CSV."""

    @pytest.mark.parametrize("digits", [11, 14])
    def test_zeros_subnormals_and_non_finite(self, digits):
        tiny = 2.2250738585072014e-308  # the smallest normal float
        x = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0), tiny,
             -tiny, math.inf, -math.inf, math.nan, -math.nan]
        assert sci_strings(x, digits) == python_strings(x, digits)

    @pytest.mark.parametrize("digits", [11, 14])
    def test_powers_of_ten_and_their_neighbours(self, digits):
        powers = np.array([float(f"1e{j}") for j in range(-330, 309)])
        x = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, math.inf)])
        x = np.concatenate([x, -x])
        assert sci_strings(x, digits) == python_strings(x, digits)

    @pytest.mark.parametrize("digits", [11, 14])
    def test_near_ties(self, digits):
        # (N + 0.5) * 10**j for a digits-digit N: the float nearest a
        # decimal tie, and its two neighbours
        rng = np.random.default_rng(digits)
        big = rng.integers(10 ** (digits - 1), 10 ** digits, 3000).tolist()
        scale = rng.integers(-30, 31, 3000).tolist()
        ties = np.array([float(f"{n}5e{j - 1}") for n, j in zip(big, scale)])
        x = np.concatenate([ties, np.nextafter(ties, 0.0),
                            np.nextafter(ties, math.inf)])
        x = np.concatenate([x, -x])
        assert sci_strings(x, digits) == python_strings(x, digits)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.floats(), FLOAT_BITS), min_size=1,
                    max_size=64),
           st.sampled_from([11, 14]))
    def test_any_floats(self, values, digits):
        assert sci_strings(values, digits) == python_strings(values, digits)

    @pytest.mark.parametrize("n", [2, 4096, 8193])
    def test_csv_writer_matches_per_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        alpha = rng.normal(0.0, 3.0, n) * 10.0 ** rng.integers(-20, 20, n)
        u = rng.normal(0.0, 1e3, n)
        du = rng.normal(0.0, 1.0, n)
        u[::5] = -0.0
        du[::7] = 0.0
        du[1::11] *= 1e-310  # subnormal
        write_profile_csv(str(tmp_path / "block.csv"), alpha, u, du)
        with open(tmp_path / "loop.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("alpha,u,du\n")
            for a, uu, d in zip(alpha, u, du):
                fh.write(f"{a:.13e},{uu:.13e},{d:.13e}\n")
        block = (tmp_path / "block.csv").read_bytes()
        assert block == (tmp_path / "loop.csv").read_bytes()


class TestIntText:
    """``_int_text`` writes the bytes of ``'%d'``, right-aligned with NUL
    before the leading digit."""

    @staticmethod
    def strings(q, width):
        text = _int_text(q, width)
        assert text.shape == np.shape(q) + (width,)
        rows = text.reshape(-1, width)
        # the NULs, if any, all come before the digits
        assert all(row.tobytes().lstrip(b"\0").isdigit() for row in rows)
        return [row.tobytes().lstrip(b"\0").decode("ascii") for row in rows]

    def test_powers_of_ten_and_their_neighbours(self):
        q = [n for k in range(13) for n in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
        want = ["%d" % n for n in q]
        assert self.strings(q, 13) == want
        assert self.strings(q, 16) == want

    def test_random_draw(self):
        rng = np.random.default_rng(29)
        q = rng.integers(0, 10 ** rng.integers(1, 19, 5000), dtype=np.int64)
        width = len(str(q.max()))
        assert self.strings(q, width) == ["%d" % n for n in q.tolist()]
        assert self.strings(q.reshape(50, 100), width) == [
            "%d" % n for n in q.tolist()]


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

    @staticmethod
    def write_obj_per_vertex(path, alpha, u, segments):
        """The one-vertex-per-write OBJ writer the block writer replaced."""
        alpha = np.asarray(alpha, dtype=float)
        u = np.asarray(u, dtype=float)
        n = len(alpha)
        rings = segments + 1
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i in range(n):
                for j in range(rings):
                    v = 2.0 * math.pi * j / segments
                    x = alpha[i] * math.cos(v)
                    y = alpha[i] * math.sin(v)
                    fh.write(f"v {x:.10e} {y:.10e} {u[i]:.10e}\n")
            for i in range(n - 1):
                for j in range(segments):
                    a = i * rings + j + 1
                    b = (i + 1) * rings + j + 1
                    fh.write(f"f {a} {b} {b + 1}\n")
                    fh.write(f"f {a} {b + 1} {a + 1}\n")

    @pytest.mark.parametrize("segments", [1, 3, 96])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2044])
    def test_block_writer_matches_per_vertex_writer(self, tmp_path, n,
                                                    segments):
        rng = np.random.default_rng(n * 100 + segments)
        alpha = rng.normal(0.0, 3.0, n)  # negative alpha included
        u = rng.normal(0.0, 1e3, n)
        u[::5] = -0.0
        alpha[1::7] = -0.0
        alpha[::11] *= 1e-308  # products with cos and sin go subnormal
        write_obj(str(tmp_path / "block.obj"), alpha, u, segments)
        self.write_obj_per_vertex(str(tmp_path / "loop.obj"), alpha, u,
                                  segments)
        block = (tmp_path / "block.obj").read_bytes()
        assert block == (tmp_path / "loop.obj").read_bytes()
        assert block.count(b"\nf ") == 2 * (n - 1) * segments

    @pytest.mark.parametrize("segments", ["0", "-3"])
    def test_segments_below_one_rejected_before_output(self, capsys,
                                                       tmp_path, segments):
        code, out, err = run(capsys, "generate", "--special", "sphere",
                             "--obj", "--segments", segments,
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: --segments must be at least 1, got {segments}"]
        assert list(tmp_path.iterdir()) == []


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

    def test_each_span_is_integrated_once(self, capsys, tmp_path,
                                          monkeypatch):
        # glue reads the spans of the two solved branches; its arcs are
        # their reflected and shifted copies, which share them, so reading
        # every arc's span afterwards integrates nothing more
        tables, spans, surfaces = [], [], []

        def recorder(fn, into):
            def recorded(*args, **kwargs):
                into.append(args[:2])
                return fn(*args, **kwargs)
            return recorded

        build = cli.build_assembly

        def assembled(*args):
            surfaces.append(build(*args))
            return surfaces[-1]

        monkeypatch.setattr(cli, "build_assembly", assembled)
        monkeypatch.setattr(solver, "profile_from_integral", recorder(
            solver.profile_from_integral, tables))
        monkeypatch.setattr(quadrature, "integrate_singular", recorder(
            quadrature.integrate_singular, spans))
        code, _, _ = run(capsys, "generate", "--lambda", "-1", "--mu", "1",
                         "--c1", "1.5", "--recipe", "C3",
                         "--samples", "128", "--out", str(tmp_path / "c3"))
        assert code == 0
        arcs = [arc.branch for arc in surfaces[0].arcs]
        assert len(arcs) == 4 and len(tables) == 2
        assert all(math.isfinite(b.span) for b in arcs)
        # each (law, domain) of a table once: identity, not equality
        assert sorted(map(id, sum(spans, ()))) \
            == sorted(map(id, sum(tables, ())))

    @pytest.mark.parametrize("relation, mu", [
        (("--lambda", "0", "--mu", "2", "--c1", "2"), 2.0),
        (("--lambda", "-1", "--mu", "-2", "--c1", "0.5", "--recipe", "cap"),
         -2.0),
        # 1/(1/mu) does not round back to these
        (("--lambda", "0.5", "--mu", "0.9", "--c1", "0.8"), 0.9),
        (("--lambda", "1", "--mu", "-0.9", "--c1", "0.3", "--recipe", "cap"),
         -0.9),
    ])
    def test_metadata_records_physical_mu(self, capsys, tmp_path, relation,
                                          mu):
        # branches are built for |mu| = 1 and rescaled; the metadata names
        # the relation that was asked for
        prefix = str(tmp_path / "k")
        code, _, _ = run(capsys, "generate", *relation, "--samples", "128",
                         "--out", prefix)
        assert code == 0
        meta = json.loads((tmp_path / "k.meta.json").read_text())
        assert meta["mu"] == mu

    @pytest.mark.parametrize("samples", ["1", "0", "-4"])
    def test_sphere_needs_two_samples(self, capsys, tmp_path, samples):
        code, out, err = run(capsys, "generate", "--special", "sphere",
                             "--samples", samples,
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: need at least 2 samples"]
        assert list(tmp_path.iterdir()) == []

    def test_second_piece_alone(self, capsys, tmp_path):
        # generate builds only the piece it writes; the bytes are those of
        # the same piece among all of them, and the metadata lists both
        code, _, err = run(capsys, "generate", "--lambda", "-1", "--mu", "1",
                           "--c1", "1.5", "--piece", "1",
                           "--out", str(tmp_path / "p"))
        assert code == 0, err
        req = SolveRequest(NormParameter(2), WeingartenRelation(-1.0, 1.0),
                           c1=1.5)
        b = solve(req)[1]
        write_profile_csv(str(tmp_path / "want.csv"), b.alpha, b.u, b.du)
        assert ((tmp_path / "p.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["case"] == "6.1i-3-2"
        assert meta["pieces"] == ["6.1i-3-1", "6.1i-3-2"]

    @pytest.mark.parametrize("special", ["sphere", "cylinder"])
    @pytest.mark.parametrize("config, flags", [
        ("", ["--special", "{}", "--recipe", "C3"]),
        ("special = {}\nrecipe = C3\n", []),
        ("special = {}\n", ["--recipe", "C3"]),
    ], ids=["flags", "config", "config-and-flag"])
    def test_special_with_recipe_rejected(self, capsys, tmp_path, special,
                                          config, flags):
        # from flags or from the config file, one of the two would be
        # dropped: generate refuses the pair before any output
        cfg = tmp_path / "job.cfg"
        cfg.write_text(config.format(special))
        code, out, err = run(capsys, "generate", "--config", str(cfg),
                             *[f.format(special) for f in flags],
                             "--lambda", "-1", "--mu", "1", "--c1", "1.5",
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: --special {special} and --recipe C3 cannot be combined"]
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    def test_recipe_fixes_its_own_relation(self, capsys, tmp_path):
        # lam = mu = 0 is the cylinder's relation, but torus-4iii sets its
        # own; the flags change nothing in the table
        for name, relation in (("plain", []),
                               ("zero", ["--lambda", "0", "--mu", "0"])):
            code, _, err = run(capsys, "generate", *relation, "--recipe",
                               "torus-4iii", "--c1", "2", "--samples", "128",
                               "--out", str(tmp_path / name))
            assert code == 0, err
        meta = json.loads((tmp_path / "zero.meta.json").read_text())
        assert (meta["case"], meta["topology"]) == ("4iii-1", "torus")
        assert ((tmp_path / "zero.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_cap_recipe_does_not_become_a_cylinder(self, capsys, tmp_path):
        # cap solves the requested relation, which here has no profile
        code, out, err = run(capsys, "generate", "--lambda", "0", "--mu", "0",
                             "--recipe", "cap", "--c1", "2",
                             "--out", str(tmp_path / "c"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: lam = mu = 0 is the cylinder 4i, alpha = const, which "
            "has no profile u(alpha)"]
        assert list(tmp_path.iterdir()) == []

    def test_torus_ignores_a_relation_that_is_no_relation(self, capsys,
                                                          tmp_path):
        # (inf, 0) is not a relation; the torus fixes its own
        code, _, err = run(capsys, "generate", "--recipe", "torus-4iii",
                           "--lambda", "inf", "--c1", "2", "--samples", "96",
                           "--out", str(tmp_path / "t"))
        assert code == 0, err
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        assert (meta["lam"], meta["topology"]) == (0.0, "torus")

    def test_piece_out_of_range(self, capsys):
        code, _, err = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                           "--piece", "5", "--out", "/tmp/nope")
        assert code == 1
        assert "out of range" in err


class TestUnexpectedErrors:
    def test_one_line_message_without_traceback(self, capsys, monkeypatch,
                                                tmp_path):
        def boom(req, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr("lwsurf.cli.solve", boom)
        code, _, err = run(capsys, "generate", "--lambda", "1", "--mu", "0",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.splitlines() == ["error: KeyError: 'boom'"]
        assert "Traceback" not in err


class TestUsageErrors:
    """A rejected flag exits 1 with argparse's message; exit 2 means no
    admissible surface."""

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--special", "spere", "--out", "x"],
         "argument --special: invalid choice: 'spere'"),
        (["generate", "--sign", "3", "--out", "x"],
         "argument --sign: invalid choice: 3"),
        (["classify", "--m", "two"], "argument --m: invalid int value"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ])
    def test_exit_one(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err.splitlines()[-1]
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        assert "--special {sphere,cylinder}" in capsys.readouterr().out


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

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "1"], "need at least 2 samples"),
        (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
        (["--c1-min", "nan"], "--c1-min and --c1-max must be finite, and "
         "so must their difference, got nan and 1.6"),
        (["--c1-max", "inf"], "--c1-min and --c1-max must be finite, and "
         "so must their difference, got 1.4 and inf"),
        (["--c1-min=-1e308", "--c1-max=1e308"],
         "--c1-min and --c1-max must be finite, and so must their "
         "difference, got -1e+308 and 1e+308"),
    ])
    def test_request_errors_exit_before_output(self, capsys, flags, message):
        # an error of the request holds on every row: no row is printed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "scan-coincidence", "--recipe", "C3",
                                 "--lambda", "-1", "--mu", "1",
                                 "--c1-min", "1.4", "--c1-max", "1.6",
                                 "--steps", "2", *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert [str(w.message) for w in caught] == []

    def test_rows_skip_their_own_failures(self, capsys):
        # below c1 = 1 there is no 6.1i-3-2 piece: that row is skipped
        code, out, _ = run(capsys, "scan-coincidence", "--recipe", "C3",
                           "--lambda", "-1", "--mu", "1",
                           "--c1-min", "0.5", "--c1-max", "1.6",
                           "--steps", "3", "--samples", "96")
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == 3
        assert rows[0].split(None, 1) == [
            "0.5", "skipped: matching equation violated: C3 connects "
            "cases 6.1i-3-2 and 6.1ii"]
        assert not any("skipped" in row for row in rows[1:])

    def test_torus_rows_ignore_the_requested_relation(self, capsys):
        code, out, err = run(capsys, "scan-coincidence", "--recipe",
                             "torus-4iii", "--lambda", "inf",
                             "--c1-min", "2", "--c1-max", "2.5",
                             "--steps", "2", "--samples", "96")
        assert code == 0, err
        rows = out.splitlines()[2:]
        assert len(rows) == 2
        assert not any("skipped" in row for row in rows)

    @pytest.mark.parametrize("recipe, lam", [("C2", "-1"), ("C6", "0.5"),
                                             ("C9", "-3")])
    def test_recipe_that_fixes_c1_rejected_before_output(self, capsys,
                                                          recipe, lam):
        # the row's critical_c1(lam) would replace every scanned c1: each
        # row would be the same surface, or the same skip
        code, out, err = run(capsys, "scan-coincidence", "--recipe", recipe,
                             "--lambda", lam, "--mu", "1",
                             "--c1-min", "1", "--c1-max", "2",
                             "--steps", "3", "--samples", "96")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: recipe {recipe} fixes c1 at critical_c1(lam): there is "
            "no c1 to scan"]

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_rejected_before_output(self, capsys, steps):
        code, out, err = run(capsys, "scan-coincidence", "--recipe", "C3",
                             "--lambda", "-1", "--mu", "1",
                             "--c1-min", "1.4", "--c1-max", "1.6",
                             "--steps", steps)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: --steps must be at least 1, got {steps}"]


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

    def test_lam_key_is_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        runs = []
        for key in ("lambda", "lam"):
            cfg.write_text(f"{key} = -1\nmu = 1\nc1 = 1.5\n")
            runs.append(run(capsys, "classify", "--config", str(cfg)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("lambdah = -1\n")
        code, _, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    def test_bad_value_names_its_key(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("m = 2.5\n")
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: config key 'm': invalid literal for int() with base 10: "
            "'2.5'"]

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# a job\n\nlambda = -1  # trailing\nmu = 1\n"
                       "c1 = 0.5\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert out.startswith("6.1i-1")

    @pytest.mark.parametrize("value, written", [("true", True),
                                                ("false", False)])
    def test_obj_key(self, capsys, tmp_path, value, written):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"obj = {value}\nsamples = 32\nsegments = 4\n")
        prefix = str(tmp_path / "s")
        code, _, _ = run(capsys, "generate", "--special", "sphere",
                         "--config", str(cfg), "--out", prefix)
        assert code == 0
        assert (tmp_path / "s.obj").is_file() is written

    def test_obj_key_rejects_other_values(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("obj = yes\n")
        code, out, err = run(capsys, "generate", "--special", "sphere",
                             "--config", str(cfg),
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: config key 'obj': must be true or false, got 'yes'"]
        assert not (tmp_path / "s.csv").exists()

    def test_special_key_takes_the_flag_choices(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("special = spere\n")
        code, out, err = run(capsys, "generate", "--config", str(cfg),
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: config key 'special': must be sphere or cylinder, got "
            "'spere'"]
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]


    @pytest.mark.parametrize("command, flags", [
        ("generate", ["--out", "s"]),
        ("scan-coincidence", ["--c1-min", "1.4", "--c1-max", "1.6"]),
    ])
    def test_recipe_key_takes_the_flag_choices(self, capsys, tmp_path,
                                               monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("recipe = nope\n")
        code, out, err = run(capsys, command, "--config", "job.cfg",
                             "--lambda", "-1", "--mu", "1", *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: config key 'recipe': must be "
            + " or ".join(r.value for r in Recipe) + ", got 'nope'"]
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("value", ["2", "0", "+2", "-3"])
    def test_sign_key_takes_the_flag_choices(self, capsys, tmp_path, value):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"sign = {value}\n")
        code, out, err = run(capsys, "generate", "--config", str(cfg),
                             "--lambda", "-1", "--mu", "1", "--c1", "1.5",
                             "--out", str(tmp_path / "s"))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: config key 'sign': must be -1 or 1, got '{value}'"]
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("value, flag", [("+1", "1"), ("-1", "-1")])
    def test_sign_key_converts_like_the_flag(self, capsys, tmp_path, value,
                                             flag):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"sign = {value}\n")
        relation = ["--lambda", "-1", "--mu", "1", "--c1", "1.5",
                    "--samples", "64"]
        assert run(capsys, "generate", "--config", str(cfg), *relation,
                   "--out", str(tmp_path / "c"))[0] == 0
        assert run(capsys, "generate", "--sign", flag, *relation,
                   "--out", str(tmp_path / "f"))[0] == 0
        assert ((tmp_path / "c.csv").read_bytes()
                == (tmp_path / "f.csv").read_bytes())


class TestNonFiniteConstants:
    """Constants are checked when the request is built: exit 1, one error
    line naming the field, and no file."""

    @pytest.mark.parametrize("command, flags, config, field", [
        ("classify", ["--lambda", "-0.5", "--mu", "nan", "--c1", "1"], "",
         "mu"),
        ("generate", ["--lambda", "-0.5", "--mu", "nan", "--c1", "1"], "",
         "mu"),
        ("classify", ["--lambda", "nan", "--mu", "1"], "", "lam"),
        ("generate", ["--lambda", "nan", "--mu", "1"], "", "lam"),
        ("generate", ["--lambda", "inf", "--mu", "1"], "", "lam"),
        ("generate", ["--lambda=-inf", "--mu", "0"], "", "lam"),
        ("generate", ["--lambda", "-1", "--mu", "1", "--c1", "nan"], "",
         "c1"),
        ("generate", ["--lambda", "1", "--mu", "0", "--c2", "inf"], "",
         "c2"),
        ("generate", ["--special", "sphere", "--shift", "nan"], "", "shift"),
        ("generate", ["--special", "sphere"], "sign = 2\n", "sign"),
        ("generate", ["--lambda", "-1", "--mu", "1", "--c1", "1.5"],
         "sign = 0\n", "sign"),
        *[("generate", ["--lambda", "1", "--mu", "0", "--c2", "1",
                        "--tol", tol], "", "tol")
          for tol in ("-1", "nan", "inf")],
        ("classify", ["--lambda", "1", "--mu", "0"], "tol = nan\n", "tol"),
        *[("generate", ["--special", "cylinder", flag, value], "", field)
          for flag, field in (("--c2", "radius"), ("--height", "height"))
          for value in ("nan", "inf")],
        ("generate", ["--lambda", "0", "--mu", "0", "--c2", "nan"], "",
         "radius"),
        ("generate", ["--lambda", "0", "--mu", "0"], "height = inf\n",
         "height"),
    ])
    def test_rejected(self, capsys, tmp_path, command, flags, config, field):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(config)
        argv = [command, "--config", str(cfg), *flags]
        if command == "generate":
            argv += ["--out", str(tmp_path / "prof"), "--obj"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        # a sign outside the flag's choices is refused as its config key
        prefix = "config key 'sign': " if field == "sign" else f"{field} "
        assert len(lines) == 1 and lines[0].startswith(f"error: {prefix}"), err
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("source", ["flag", "verify-tol", "verify_tol"])
    def test_verify_tol_rejected(self, capsys, tmp_path, source, tol):
        prefix = str(tmp_path / "s")
        assert run(capsys, "generate", "--special", "sphere",
                   "--out", prefix)[0] == 0
        cfg = tmp_path / "job.cfg"
        cfg.write_text("" if source == "flag" else f"{source} = {tol}\n")
        flags = ["--verify-tol", tol] if source == "flag" else []
        code, out, err = run(capsys, "verify", "--config", str(cfg),
                             "--profile", prefix + ".csv",
                             "--lambda", "1", "--mu", "-2",
                             "--report", str(tmp_path / "r.json"), *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: tol must be finite and >= 0, got {float(tol)}"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("lam, mu, message", [
        ("nan", "-2", "lam must be finite, or inf with mu = -1, got nan"),
        ("inf", "0", "lam must be finite, or inf with mu = -1, got inf"),
        ("1", "inf", "mu must be finite, got inf"),
    ])
    @pytest.mark.parametrize("source", ["flag", "lambda", "lam"])
    def test_verify_relation_rejected(self, capsys, tmp_path, source, lam,
                                      mu, message):
        """verify refuses a (lam, mu) that WeingartenRelation refuses, from
        the flags and from the config keys, before any output."""
        prefix = str(tmp_path / "s")
        assert run(capsys, "generate", "--special", "sphere",
                   "--out", prefix)[0] == 0
        cfg = tmp_path / "job.cfg"
        cfg.write_text("" if source == "flag"
                       else f"{source} = {lam}\nmu = {mu}\n")
        flags = ["--lambda", lam, "--mu", mu] if source == "flag" else []
        code, out, err = run(capsys, "verify", "--config", str(cfg),
                             "--profile", prefix + ".csv",
                             "--report", str(tmp_path / "r.json"), *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--special", "cylinder", "--samples", "-5"],
         "need at least 2 samples"),
        (["generate", "--special", "cylinder", "--samples", "1", "--tol",
          "nan", "--c1", "nan"], "c1 must be finite, got nan"),
        (["generate", "--special", "cylinder", "--tol", "nan"],
         "tol must be finite and >= 0, got nan"),
        (["generate", "--lambda", "0", "--mu", "0", "--shift", "nan"],
         "shift must be finite, got nan"),
        (["classify", "--m", "0", "--lambda", "0", "--mu", "0"],
         "m must be a positive integer, got 0"),
        (["classify", "--lambda", "0", "--mu", "0", "--samples", "1"],
         "need at least 2 samples"),
    ])
    def test_cylinder_request_checked(self, capsys, tmp_path, argv, message):
        """The cylinder paths check the request's fields as every other
        path does: exit 1, one error line and no file."""
        if argv[0] == "generate":
            argv = [*argv, "--out", str(tmp_path / "cyl"), "--obj"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_cylinder_ignores_the_relation_flags(self, capsys, tmp_path):
        code, _, _ = run(capsys, "generate", "--special", "cylinder",
                         "--lambda", "nan", "--mu", "inf",
                         "--out", str(tmp_path / "c"))
        assert code == 0
        assert (tmp_path / "c.csv").is_file()

    def test_sphere_ignores_the_relation_flags(self, capsys, tmp_path):
        code, _, _ = run(capsys, "generate", "--special", "sphere",
                         "--lambda", "nan", "--mu", "inf",
                         "--out", str(tmp_path / "s"))
        assert code == 0
        assert (tmp_path / "s.csv").is_file()

    def test_verify_accepts_lambda_inf(self, capsys, tmp_path):
        prefix = str(tmp_path / "s")
        assert run(capsys, "generate", "--special", "sphere",
                   "--out", prefix)[0] == 0
        code, out, _ = run(capsys, "verify", "--profile", prefix + ".csv",
                           "--lambda", "inf", "--mu", "-1")
        assert code == 0
        assert json.loads(out)["passed"]


def _option_values(option) -> tuple:
    """The texts an option is tried with, and one it refuses (None where
    any text is a value)."""
    takes = option.takes
    if takes is bool:
        return ["true"], "yes"
    if isinstance(takes, tuple):
        refused = max(takes) + 1 if isinstance(takes[0], int) else "nope"
        return [str(v) for v in takes], str(refused)
    return {int: (["3"], "2.5"), float: (["-0.25"], "one"),
            str: (["job"], None)}[takes]


def _flag_argv(option, text: str) -> list:
    if option.takes is bool:
        return [option.flag] if text == "true" else [f"{option.flag}={text}"]
    return [option.flag, text]


def _config_keys(option) -> list:
    """The flag's name, and the setting key where that differs."""
    return list(dict.fromkeys((option.flag[2:], option.key)))


def _settings(*argv) -> dict:
    return _merge_settings(build_parser().parse_args(list(argv)))


OPTION_CASES = [(command, option) for option in OPTIONS
                for command in option.commands or _COMMANDS]
REFUSING = [(command, option) for command, option in OPTION_CASES
            if _option_values(option)[1] is not None]


def _case_ids(cases) -> list:
    return [f"{command}{option.flag}" for command, option in cases]


class TestOptionTable:
    """Each row of OPTIONS is one option of each command that has it: the
    flag and its config keys take the same values, to the same settings,
    and refuse the same values."""

    @pytest.mark.parametrize("command, option", OPTION_CASES,
                             ids=_case_ids(OPTION_CASES))
    def test_flag_and_config_key_give_the_same_settings(self, tmp_path,
                                                        command, option):
        takes = option.takes
        cfg = tmp_path / "job.cfg"
        for text in _option_values(option)[0]:
            if takes is bool:
                want = True
            else:
                want = (type(takes[0]) if isinstance(takes, tuple)
                        else takes)(text)
            from_flag = _settings(command, *_flag_argv(option, text))
            assert from_flag == {**DEFAULTS, option.key: want}
            for key in _config_keys(option):
                cfg.write_text(f"{key} = {text}\n")
                assert _settings(command, "--config", str(cfg)) == from_flag

    @pytest.mark.parametrize("command, option", REFUSING,
                             ids=_case_ids(REFUSING))
    def test_a_refused_value_fails_both_ways(self, capsys, tmp_path,
                                             command, option):
        refused = _option_values(option)[1]
        with pytest.raises(SystemExit) as exc:
            main([command, *_flag_argv(option, refused)])
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"lwsurf {command}: error: argument "
                                  f"{option.flag}: ")
        cfg = tmp_path / "job.cfg"
        for key in _config_keys(option):
            cfg.write_text(f"{key} = {refused}\n")
            code, out, err = run(capsys, command, "--config", str(cfg))
            assert code == 1
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: config key '{option.key}': ")
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]
