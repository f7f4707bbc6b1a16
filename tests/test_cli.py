import textwrap

import pytest

from drmin.cli import (
    EXIT_INPUT_ERROR,
    EXIT_MATH_FAILURE,
    EXIT_NUMERICAL_FAILURE,
    EXIT_PASS,
    ConfigError,
    config_from_preset,
    load_config,
    main,
)

SMALL = "9x9"

# sin of exp(700)*exp(700) = inf: a non-finite function argument at every node
SIN_OF_INF = "psi1 = tau/u + sin(exp(700)*exp(700))"

GOOD_INI = textwrap.dedent(
    """
    [space]
    model = S41
    c = 1.0

    [algebra]
    kind = para

    [domain]
    u_min = 1.0
    u_max = 2.0
    v_min = -1.0
    v_max = 1.0
    nu = 9
    nv = 9
    u0 = 1.0
    v0 = 0.0

    [psi]
    psi1 = tau/u
    psi2 = 0
    psi3 = 0
    psi4 = 1/u

    [initial]
    x = 0.0
    y = 2.0
    z = 0.0
    t = 0.0
    """
)


@pytest.fixture
def good_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(GOOD_INI + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    return path


class TestConfig:
    def test_load_good(self, good_config):
        cfg = load_config(good_config)
        assert cfg.space.value == "S41"
        assert cfg.algebra.value == "para"
        assert cfg.grid.nu == 9
        assert cfg.psi_texts[0] == "tau/u"
        assert cfg.f0.y == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("c = 1.0", "c = 1.0\nspeed = 9"))
        with pytest.raises(ConfigError, match="speed"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="extras"):
            load_config(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("[psi]", "[psi_oops]"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_space_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("model = S41", "model = S99"))
        with pytest.raises(ConfigError, match="S41 or S43"):
            load_config(path)

    def test_preset_lookup(self):
        cfg = config_from_preset("s41-timelike-basic")
        assert cfg.preset is not None
        with pytest.raises(ConfigError, match="unknown preset"):
            config_from_preset("does-not-exist")


class TestExamples:
    def test_lists_all_presets(self, capsys):
        assert main(["examples"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in (
            "s41-timelike-basic",
            "s41-timelike-diagonal",
            "s43-spacelike-basic",
            "s43-timelike-vertical",
        ):
            assert name in out


class TestValidate:
    def test_preset_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["validate", "--preset", "s41-timelike-basic", "--grid", SMALL])
        assert code == EXIT_PASS
        assert "PASS" in capsys.readouterr().out
        assert (tmp_path / "validation.csv").exists()

    def test_config_file(self, good_config):
        assert main(["validate", "--config", str(good_config)]) == EXIT_PASS

    def test_invalid_data_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("psi4 = 1/u", "psi4 = u"))
        assert main(["validate", "--config", str(path)]) == EXIT_MATH_FAILURE
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_function_argument_masked(self, tmp_path, capsys):
        path = tmp_path / "sin.ini"
        path.write_text(
            GOOD_INI.replace("psi1 = tau/u", SIN_OF_INF)
            + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["validate", "--config", str(path)]) == EXIT_MATH_FAILURE
        out = capsys.readouterr().out
        assert "81 nodes failed to evaluate" in out and "Traceback" not in out

    def test_syntax_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("psi1 = tau/u", "psi1 = tau//u"))
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT_ERROR
        assert "input error" in capsys.readouterr().out

    def test_missing_config_exit_two(self, capsys):
        assert main(["validate", "--config", "/nonexistent.ini"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-10"])
    def test_bad_tolerance_exit_two(self, tmp_path, capsys, value):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI + f"\n[tolerances]\nharmonicity = {value}\n")
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT_ERROR
        assert "harmonicity" in capsys.readouterr().out


class TestSynthesize:
    def test_writes_mesh(self, good_config, tmp_path, capsys):
        out = tmp_path / "mesh.csv"
        code = main(["synthesize", "--config", str(good_config), "--out", str(out)])
        assert code == EXIT_PASS
        assert out.exists()
        text = capsys.readouterr().out
        assert "path-independence" in text

    def test_preset_reports_closed_form_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["synthesize", "--preset", "s43-spacelike-basic", "--grid", SMALL,
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == EXIT_PASS
        assert "closed-form max coordinate error" in capsys.readouterr().out

    def test_refuses_invalid_without_force(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("psi4 = 1/u", "psi4 = u"))
        code = main(["synthesize", "--config", str(path), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_MATH_FAILURE
        assert "refusing" in capsys.readouterr().out
        assert not (tmp_path / "m.csv").exists()

    def test_force_overrides(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD_INI.replace("psi4 = 1/u", "psi4 = u"))
        out = tmp_path / "m.csv"
        code = main(["synthesize", "--config", str(path), "--force", "--out", str(out)])
        assert code == EXIT_PASS
        assert "WARNING" in capsys.readouterr().out
        assert out.exists()

    def test_overflow_exit_three(self, tmp_path, capsys):
        path = tmp_path / "big.ini"
        path.write_text(GOOD_INI.replace("psi1 = tau/u", "psi1 = tau/u + exp(1000*u)"))
        out = tmp_path / "m.csv"
        code = main(["synthesize", "--config", str(path), "--force", "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE
        assert "numerical failure" in capsys.readouterr().out
        assert not out.exists()

    def test_non_finite_function_argument_exit_three(self, tmp_path, capsys):
        path = tmp_path / "sin.ini"
        path.write_text(GOOD_INI.replace("psi1 = tau/u", SIN_OF_INF))
        out = tmp_path / "m.csv"
        code = main(["synthesize", "--config", str(path), "--force", "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE
        assert "sin failed" in capsys.readouterr().out
        assert not out.exists()

    def test_bad_grid_spec(self, good_config, capsys):
        code = main(["synthesize", "--config", str(good_config), "--grid", "banana"])
        assert code == EXIT_INPUT_ERROR


class TestVerify:
    def synth(self, good_config, out, grid=None):
        argv = ["synthesize", "--config", str(good_config), "--out", str(out)]
        if grid:
            argv += ["--grid", grid]
        assert main(argv) == EXIT_PASS

    def test_round_trip(self, good_config, tmp_path, capsys):
        # finite-difference defects scale with the mesh step, so give the
        # verifier a grid fine enough for the default tolerances
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh, grid="25x25")
        code = main(["verify", str(mesh), "--config", str(good_config)])
        assert code == EXIT_PASS
        assert "PASS" in capsys.readouterr().out

    def test_truncated_mesh_exit_two(self, good_config, tmp_path, capsys):
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh)
        lines = mesh.read_text().splitlines()
        mesh.write_text("\n".join(lines[:-3]) + "\n")
        code = main(["verify", str(mesh), "--config", str(good_config)])
        assert code == EXIT_INPUT_ERROR
        assert "truncated" in capsys.readouterr().out

    def test_space_mismatch_exit_two(self, good_config, tmp_path, capsys):
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh)
        other = tmp_path / "other.ini"
        other.write_text(
            GOOD_INI.replace("model = S41", "model = S43").replace("psi1 = tau/u", "psi1 = tau/u")
        )
        code = main(["verify", str(mesh), "--config", str(other)])
        assert code == EXIT_INPUT_ERROR
        assert "wrong geometry" in capsys.readouterr().out

    def test_mesh_without_interior_exit_two(self, good_config, tmp_path, capsys):
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh, grid="2x2")
        code = main(["verify", str(mesh), "--config", str(good_config)])
        assert code == EXIT_INPUT_ERROR
        assert "at least 3x3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda lines: [("# grid: 1.0 2.0" if l.startswith("# grid:") else l) for l in lines],
             "8 fields"),
            (lambda lines: lines[:40] + [lines[40] + ",0.0"] + lines[41:], "cannot read"),
            (lambda lines: [l + ",0.0" if l[0].isdigit() else l for l in lines],
             "need 6 fields, got 7"),
            (lambda lines: lines[:40] + [lines[40].rsplit(",", 1)[0]] + lines[41:], "cannot read"),
            (lambda lines: lines[:40] + [lines[40].rsplit(",", 1)[0] + ",zero"] + lines[41:],
             "zero"),
        ],
        ids=["two-field-grid", "seven-field-row", "seven-field-rows", "short-row",
             "non-numeric-cell"],
    )
    def test_malformed_mesh_exit_two(self, good_config, tmp_path, capsys, corrupt, message):
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh)
        lines = mesh.read_text().splitlines()
        assert lines[40][0].isdigit()  # a data row of the 9x9 mesh
        mesh.write_text("\n".join(corrupt(lines)) + "\n")
        code = main(["verify", str(mesh), "--config", str(good_config)])
        out = capsys.readouterr().out
        assert code == EXIT_INPUT_ERROR
        assert "cannot read mesh file" in out and message in out
        assert "Traceback" not in out

    def test_blank_lines_and_lf_endings_load(self, good_config, tmp_path, capsys):
        mesh = tmp_path / "mesh.csv"
        self.synth(good_config, mesh, grid="25x25")
        lines = mesh.read_text().splitlines()
        lines.insert(len(lines) // 2, "")
        mesh.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(mesh), "--config", str(good_config)])
        assert code == EXIT_PASS
        assert "PASS" in capsys.readouterr().out

    def test_missing_mesh_exit_two(self, good_config, capsys):
        code = main(["verify", "/nonexistent.csv", "--config", str(good_config)])
        assert code == EXIT_INPUT_ERROR


class TestExport:
    @pytest.fixture
    def mesh_file(self, good_config, tmp_path):
        out = tmp_path / "mesh.csv"
        assert main(["synthesize", "--config", str(good_config), "--out", str(out)]) == EXIT_PASS
        return out

    def test_obj_counts(self, mesh_file, tmp_path, capsys):
        out = tmp_path / "surface.obj"
        code = main(["export", str(mesh_file), "--format", "obj", "--out", str(out)])
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 9 * 9
        assert len(faces) == 8 * 8
        # quad indices stay in range and are 1-based
        for f in faces:
            ids = [int(x) for x in f.split()[1:]]
            assert all(1 <= k <= 81 for k in ids)

    def test_projection_choice(self, mesh_file, tmp_path):
        out = tmp_path / "surface.obj"
        code = main(
            ["export", str(mesh_file), "--projection", "x,z,t", "--out", str(out)]
        )
        assert code == EXIT_PASS
        assert "projection x,z,t" in out.read_text().splitlines()[0]

    def test_duplicate_axis_rejected(self, mesh_file, tmp_path, capsys):
        code = main(
            ["export", str(mesh_file), "--projection", "x,x,t",
             "--out", str(tmp_path / "s.obj")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "duplicate" in capsys.readouterr().out

    def test_csv_format_round_trips(self, mesh_file, tmp_path):
        out = tmp_path / "copy.csv"
        code = main(["export", str(mesh_file), "--format", "csv", "--out", str(out)])
        assert code == EXIT_PASS
        assert out.read_bytes() == mesh_file.read_bytes()


class TestDeterminism:
    def test_synthesize_is_byte_stable(self, good_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synthesize", "--config", str(good_config), "--out", str(a)])
        main(["synthesize", "--config", str(good_config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
