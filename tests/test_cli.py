import textwrap

import pytest

from drmin.cli import (
    EXIT_INPUT_ERROR,
    EXIT_MATH_FAILURE,
    EXIT_NUMERICAL_FAILURE,
    EXIT_PASS,
    ConfigError,
    build_parser,
    config_from_preset,
    load_config,
    main,
)
from drmin.presets import PRESETS

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

    def test_c_defaults_to_one(self, tmp_path):
        path = tmp_path / "no_c.ini"
        path.write_text(GOOD_INI.replace("c = 1.0\n", ""))
        assert "c =" not in path.read_text()
        cfg = load_config(path)
        assert cfg.c == 1.0 and cfg.model().c == 1.0

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

    def test_tolerance_override_changes_the_verdict(self, tmp_path, monkeypatch, capsys):
        # the harmonicity sup-norm 5.551e-17 passes the default 1e-10
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(GOOD_INI + "\n[tolerances]\nharmonicity = 1e-20\n")
        assert main(["validate", "--config", "run.ini"]) == EXIT_MATH_FAILURE
        assert "    - harmonicity sup-norm 5.551e-17 exceeds 1.0e-20\n" in capsys.readouterr().out

    def test_origin_is_the_default_f0(self, tmp_path, monkeypatch):
        # without [initial], the base node (1.0, 0.0) of the mesh holds the origin
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(GOOD_INI.split("[initial]")[0])
        assert main(["synthesize", "--config", "run.ini", "--out", "mesh.csv"]) == EXIT_PASS
        assert "1.0,0.0,0.0,0.0,0.0,0.0" in (tmp_path / "mesh.csv").read_text().splitlines()

    def test_preset_lookup(self):
        cfg = config_from_preset("s41-timelike-basic")
        assert cfg.reference_texts is not None
        with pytest.raises(ConfigError, match="unknown preset"):
            config_from_preset("does-not-exist")


class TestPresetPipeline:
    @pytest.mark.parametrize("grid", ["11x11", "17x17"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_validate_synthesize_verify(self, tmp_path, monkeypatch, capsys, name, grid):
        # verify's fixed 1e-2 bounds sit below the O(h^2) finite-difference
        # defect at h = 0.1 on three presets; at 17x17 every preset passes
        monkeypatch.chdir(tmp_path)
        preset = ["--preset", name, "--grid", grid]
        codes = [main(["validate", *preset]), main(["synthesize", *preset, "--out", "mesh.csv"]),
                 main(["verify", "mesh.csv", *preset])]
        captured = capsys.readouterr()
        fails = grid == "11x11" and name != "s43-timelike-vertical"
        assert codes == [EXIT_PASS, EXIT_PASS, EXIT_MATH_FAILURE if fails else EXIT_PASS]
        reasons = [line for line in captured.out.splitlines() if line.startswith("    - ")]
        assert reasons == fails * ["    - conformality defect 1.833e-02 exceeds 1.0e-02",
                                   "    - conformal density mismatch 1.833e-02 exceeds 1.0e-02"]
        assert captured.err == ""


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

    def test_blow_up_exit_three_without_warnings(self, tmp_path, capsys):
        # the state overflows between nodes; the suite turns any warning into an error
        path = tmp_path / "blow.ini"
        path.write_text(
            GOOD_INI.replace("psi1 = tau/u", "psi1 = tau*u^40").replace("psi4 = 1/u", "psi4 = u^60")
            .replace("nu = 9", "nu = 11").replace("nv = 9", "nv = 11")
        )
        out = tmp_path / "m.csv"
        code = main(["synthesize", "--config", str(path), "--force", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL_FAILURE
        assert "numerical failure: non-finite state at u = 1.2\n" in captured.out
        assert captured.err == ""
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

    @pytest.mark.parametrize("edits, named", [
        ([("c = 1.0", "c = 2.0")], "c 2.0 vs 1.0"),
        ([("kind = para", "kind = complex"), ("tau/u", "i/u")], "algebra complex vs para"),
    ], ids=["c", "algebra"])
    def test_header_mismatch_exit_two(self, tmp_path, monkeypatch, capsys, edits, named):
        # a mesh made under another c or algebra, against the preset's configuration
        text = GOOD_INI
        for old, new in edits:
            text = text.replace(old, new)
        other = tmp_path / "other.ini"
        other.write_text(text)
        mesh = tmp_path / "mesh.csv"
        argv = ["synthesize", "--config", str(other), "--out", str(mesh), "--force"]
        assert main(argv) == EXIT_PASS
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        code = main(["verify", str(mesh), "--preset", "s41-timelike-basic"])
        out = capsys.readouterr().out
        assert code == EXIT_INPUT_ERROR
        assert f"mesh header does not match the configuration ({named})" in out
        assert "wrong geometry" in out
        assert not (tmp_path / "verification.csv").exists()

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

    def test_formula_spanning_lines_round_trips(self, good_config, tmp_path, capsys):
        # an indented line continues the INI value; the mesh header keeps it on one line
        path = tmp_path / "run.ini"
        spanning = "psi1 = tau/u\n        + 0"
        path.write_text(good_config.read_text().replace("psi1 = tau/u", spanning))
        mesh = tmp_path / "mesh.csv"
        self.synth(path, mesh, grid="25x25")
        assert "# psi1: tau/u + 0\n" in mesh.read_text()
        assert main(["verify", str(mesh), "--config", str(path)]) == EXIT_PASS

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


def _ini(*edits, extra=""):
    text = GOOD_INI
    for old, new in edits:
        text = text.replace(old, new)
    return text + extra


def _data(lines):
    """Index of the first data row of a mesh file's lines."""
    return lines.index("u,v,x,y,z,t") + 1


def _node(axis, text):
    """Mesh edit: text as the axis coordinate of node (4, 5), (u, v) = (1.5, 0.25), at 9x9."""
    def edit(lines):
        k = _data(lines) + 4 * 9 + 5
        row = lines[k].split(",")
        row[2 + "xyzt".index(axis)] = text
        return lines[:k] + [",".join(row)] + lines[k + 1:]
    return edit


_nan_node = _node("t", "nan")


def _uv_seven(lines):
    k = _data(lines)
    return lines[:k] + ["7.0,7.0," + l.split(",", 2)[2] for l in lines[k:]]


def _swap_rows(lines):
    k = _data(lines)
    return lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:]


VALIDATE, VERIFY = ["validate", "--config", "run.ini"], ["verify", "bad.csv", "--config", "run.ini"]
SYNTHESIZE = ["synthesize", "--config", "run.ini", "--out", "m.csv"]

# (id, run.ini text, mesh.csv edit giving bad.csv, argv, exit code, a text stdout names)
CONTRACT = [
    ("bad-formula", _ini(("psi1 = tau/u", "psi1 = tau//u")), None, VALIDATE,
     EXIT_INPUT_ERROR, "input error: bad component formula"),
    ("refused-data", _ini(("psi4 = 1/u", "psi4 = u")), None, SYNTHESIZE,
     EXIT_MATH_FAILURE, "refusing to synthesize from invalid data"),
    ("blow-up", _ini(("psi1 = tau/u", "psi1 = tau*u^40"), ("psi4 = 1/u", "psi4 = u^60")),
     None, SYNTHESIZE + ["--force"],
     EXIT_NUMERICAL_FAILURE, "numerical failure: non-finite state"),
    ("truncated-mesh", GOOD_INI, lambda lines: lines[:-3], VERIFY,
     EXIT_INPUT_ERROR, "truncated"),
    ("header-mismatch", GOOD_INI,
     lambda lines: ["# c: 2.0" if l == "# c: 1.0" else l for l in lines],
     VERIFY, EXIT_INPUT_ERROR, "(c 2.0 vs 1.0)"),
    ("synthesize-out-under-a-file", GOOD_INI, None,
     ["synthesize", "--config", "run.ini", "--out", "mesh.csv/x.csv"],
     EXIT_INPUT_ERROR, "mesh.csv"),
    ("export-out-a-directory", GOOD_INI, None, ["export", "mesh.csv", "--out", "sub"],
     EXIT_INPUT_ERROR, "sub"),
    ("output-directory-a-file", _ini(extra="\n[output]\ndirectory = mesh.csv\n"), None, VALIDATE,
     EXIT_INPUT_ERROR, "mesh.csv"),
    ("c-nan", _ini(("c = 1.0", "c = nan")), None, VALIDATE, EXIT_INPUT_ERROR, "'c' in [space]"),
    ("u_max-inf", _ini(("u_max = 2.0", "u_max = inf")), None, VALIDATE,
     EXIT_INPUT_ERROR, "'u_max' in [domain]"),
    ("v_min-minus-inf", _ini(("v_min = -1.0", "v_min = -inf")), None, VALIDATE,
     EXIT_INPUT_ERROR, "'v_min' in [domain]"),
    ("initial-t-nan", _ini(("t = 0.0", "t = nan")), None, SYNTHESIZE,
     EXIT_INPUT_ERROR, "'t' in [initial]"),
    ("export-obj-non-finite-node", GOOD_INI, _nan_node, ["export", "bad.csv", "--out", "s.obj"],
     EXIT_INPUT_ERROR, "non-finite node at (u, v) = (1.5, 0.25)"),
    ("export-csv-non-finite-node", GOOD_INI, _nan_node,
     ["export", "bad.csv", "--format", "csv", "--out", "s.csv"],
     EXIT_INPUT_ERROR, "non-finite node at (u, v) = (1.5, 0.25)"),
    ("verify-non-finite-node", GOOD_INI, _nan_node, VERIFY, EXIT_MATH_FAILURE, "verdict: FAIL"),
    # an overflowing or infinite node: its metric is singular (t = 800, t = inf, x = 1e200)
    # or overflows, and its tension reads NaN
    *((f"verify-node-{axis}-{text}", GOOD_INI, _node(axis, text), VERIFY, EXIT_MATH_FAILURE,
       "tension sup-norm nan exceeds 1.0e-02")
      for axis, text in [("t", "800"), ("t", "inf"), ("x", "1e200"), ("x", "inf"), ("t", "-inf"),
                         ("t", "-800")]),
    ("uv-all-seven", GOOD_INI, _uv_seven, VERIFY,
     EXIT_INPUT_ERROR, "mesh row 1 has (u, v) = (7.0, 7.0) where the grid node is (1.0, -1.0)"),
    ("uv-swapped-rows", GOOD_INI, _swap_rows, ["export", "bad.csv", "--out", "s.obj"],
     EXIT_INPUT_ERROR, "mesh row 1 has (u, v) = (1.0, -0.75)"),
    ("grid-bound-inf", GOOD_INI,
     lambda lines: [l.replace("# grid: 1.0 2.0 ", "# grid: 1.0 inf ") for l in lines], VERIFY,
     EXIT_INPUT_ERROR, "input error: cannot read mesh file: u_max must be finite, got inf"),
    ("u-span-overflows", _ini(("u_min = 1.0", "u_min = -1e308"), ("u_max = 2.0", "u_max = 1e308")),
     None, VALIDATE, EXIT_INPUT_ERROR, "bad domain: span u_max - u_min must be finite, got inf"),
    ("grid-v-span-overflows", GOOD_INI,
     lambda lines: [l.replace(" -1.0 1.0 9 9 ", " -1e308 1e308 9 9 ") if l.startswith("# grid:")
                    else l for l in lines], VERIFY,
     EXIT_INPUT_ERROR,
     "input error: cannot read mesh file: span v_max - v_min must be finite, got inf"),
    # node counts whose (nu, nv, 4) float64 array no numpy array can hold
    *((f"grid-spec-{spec}", GOOD_INI, None, VALIDATE + ["--grid", spec], EXIT_INPUT_ERROR,
       f"input error: bad --grid spec '{spec}': {spec} nodes are more than an array can hold")
      for spec in ["99999999999999999999x2", "1152921504606846976x2", "9223372036854775807x2"]),
    ("grid-spec-one-node", GOOD_INI, None, VALIDATE + ["--grid", "1x5"], EXIT_INPUT_ERROR,
     "input error: bad --grid spec '1x5': need at least 2 nodes per direction"),
    ("nu-beyond-arrays", _ini(("nu = 9", "nu = 99999999999999999999")), None, VALIDATE,
     EXIT_INPUT_ERROR, "input error: bad domain: 99999999999999999999x9 nodes are more than"),
    *((f"{argv[0]}-grid-header-beyond-arrays", GOOD_INI,
       lambda lines: [l.replace(" 9 9 ", " 99999999999999999999 9 ") for l in lines], argv,
       EXIT_INPUT_ERROR, "input error: cannot read mesh file: 99999999999999999999x9 nodes")
      for argv in [VERIFY, ["export", "bad.csv", "--out", "s.obj"]]),
    # the config branches: each missing or malformed entry is named
    ("missing-section", _ini(("[algebra]\nkind = para\n", "")), None, VALIDATE,
     EXIT_INPUT_ERROR, "input error: missing config section [algebra]"),
    ("missing-float-key", _ini(("u_min = 1.0\n", "")), None, VALIDATE, EXIT_INPUT_ERROR,
     "input error: missing key 'u_min' in [domain]"),
    ("missing-integer-key", _ini(("nu = 9\n", "")), None, VALIDATE, EXIT_INPUT_ERROR,
     "input error: missing key 'nu' in [domain]"),
    ("float-not-a-number", _ini(("u_min = 1.0", "u_min = one")), None, VALIDATE,
     EXIT_INPUT_ERROR, "input error: key 'u_min' in [domain] is not a number"),
    ("integer-not-an-integer", _ini(("nu = 9", "nu = 9.5")), None, VALIDATE, EXIT_INPUT_ERROR,
     "input error: key 'nu' in [domain] is not an integer"),
    ("bad-algebra-kind", _ini(("kind = para", "kind = quaternion")), None, VALIDATE,
     EXIT_INPUT_ERROR, "input error: algebra kind must be complex or para, got 'quaternion'"),
    ("psi-incomplete", _ini(("psi2 = 0\n", "")), None, VALIDATE, EXIT_INPUT_ERROR,
     "input error: section [psi] must define psi1..psi4"),
    ("neither-config-nor-preset", GOOD_INI, None, ["validate"], EXIT_INPUT_ERROR,
     "input error: either --config or --preset is required"),
    ("projection-two-axes", GOOD_INI, None,
     ["export", "mesh.csv", "--projection", "x,y", "--out", "s.obj"], EXIT_INPUT_ERROR,
     "input error: bad projection 'x,y': need 3 of x,y,z,t"),
]


class TestExitCodeContract:
    @pytest.mark.parametrize("ini, edit, argv, code, named",
                             [row[1:] for row in CONTRACT], ids=[row[0] for row in CONTRACT])
    def test_failing_invocation(self, tmp_path, monkeypatch, capsys, ini, edit, argv, code, named):
        # every failure ends in its documented code and a message, never a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "good.ini").write_text(GOOD_INI)
        assert main(["synthesize", "--config", "good.ini", "--out", "mesh.csv"]) == EXIT_PASS
        if edit:
            lines = (tmp_path / "mesh.csv").read_text().splitlines()
            (tmp_path / "bad.csv").write_text("\n".join(edit(lines)) + "\n")
        (tmp_path / "run.ini").write_text(ini)
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert named in captured.out and "Traceback" not in captured.out
        assert captured.err == ""
        assert not {"m.csv", "s.obj", "s.csv"} & {p.name for p in tmp_path.iterdir()}

    def test_out_of_memory_is_an_input_error(self, monkeypatch, capsys):
        # a grid too large to hold ends in exit 2 and one line, never a traceback
        import drmin.cli

        def refuse(*args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(drmin.cli, "validate", refuse)
        argv = ["validate", "--preset", "s41-timelike-basic", "--grid", SMALL]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "input error: out of memory: Unable to allocate 74.5 GiB\n"
        assert captured.err == ""


class TestDeterminism:
    def test_synthesize_is_byte_stable(self, good_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synthesize", "--config", str(good_config), "--out", str(a)])
        main(["synthesize", "--config", str(good_config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestParserReuse:
    def test_consecutive_calls_match_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        # main parses every call with one parser: a call, even one that fails
        # argument parsing, leaves nothing behind for the next
        monkeypatch.chdir(tmp_path)
        preset = ["--preset", "s41-timelike-basic"]
        assert main(["synthesize", *preset, "--grid", "25x25", "--out", "mesh.csv"]) == EXIT_PASS
        capsys.readouterr()
        calls = [["validate", *preset, "--grid", SMALL], ["verify", "mesh.csv", "--grid"],
                 ["verify", "mesh.csv", *preset]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        shared = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in shared] == [EXIT_PASS, 2, EXIT_PASS]
        assert "expected one argument" in shared[1][2]
        assert shared == fresh
        assert build_parser() is build_parser()

    def test_command_looked_up_per_call(self, monkeypatch, capsys):
        # a cmd_* rebound after the parser was built is the one main runs
        import drmin.cli

        assert main(["examples"]) == EXIT_PASS
        calls = []
        monkeypatch.setattr(drmin.cli, "cmd_examples", lambda args: calls.append(args) or 7)
        assert main(["examples"]) == 7
        assert [args.command for args in calls] == ["examples"]
