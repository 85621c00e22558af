"""Command-line interface: config handling, subcommands, exit codes."""

import concurrent.futures
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bulged_cylinder, save_per_element, straight_cylinder

from aortafit import __version__, cli
from aortafit.cli import build_sections, config_hash, default_config, load_config, main
from aortafit.phantom import PhantomSpec, make_phantom
from aortafit.quadmesh import QuadMesh, load_mesh, save_mesh
from aortafit.volgrid import GridGeom, VectorField3D, save_volume

FIT_OVERRIDES = [
    "--set", "fit.levels=[[4,4,4],[6,6,6]]",
    "--set", "fit.svf_dims=[6,6,6]",
    "--set", "fit.iters_per_level=40",
    "--set", "grid.spacing=2.0",
]


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    """Small template/target meshes saved to disk once for CLI runs."""
    root = tmp_path_factory.mktemp("meshes")
    template = straight_cylinder(circumferential=8, axial=10, length=30.0, radius=5.0)
    shifted = template.with_vertices(template.vertices + np.array([1.2, -0.8, 0.6]))
    bulged = bulged_cylinder(circumferential=8, axial=10, length=30.0, radius=5.0,
                             amplitude=1.5, width=4.0, center=12.0)
    tube = straight_cylinder()  # 24 x 60 for the stress oracle
    tube8 = straight_cylinder(circumferential=8, axial=12, length=30.0, radius=5.0)
    paths = {}
    for name, mesh in (("template", template), ("shifted", shifted),
                       ("bulged", bulged), ("tube", tube), ("tube8", tube8)):
        paths[name] = str(root / f"{name}.vtk")
        save_mesh(mesh, paths[name])
    return paths


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_default_config_sections():
    cfg = default_config()
    assert set(cfg) == {"grid", "phantom", "fit", "weights", "diffeo", "membrane", "report"}
    # nested dataclass settings live in their own sections, not under fit
    assert {"weights", "diffeo", "seed"}.isdisjoint(cfg["fit"])
    # optimizer and solver tuning values are constants, not config keys
    assert set(cfg["fit"]) == {"svf_dims", "levels", "iters_per_level"}
    assert set(cfg["membrane"]) == {"pressure", "thickness", "fixed_rings"}
    assert cfg["grid"] == {"spacing": 1.0, "margin": 5.0}
    assert "radius_profile" not in cfg["phantom"]


def test_config_hash_stable_and_sensitive():
    a = config_hash(default_config())
    b = config_hash(default_config())
    assert a == b and len(a) == 64
    tweaked = default_config()
    tweaked["grid"]["spacing"] = 2.0
    assert config_hash(tweaked) != a


def test_load_config_merges_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"spacing": 2.0}, "membrane": {"pressure": 20.0}}))
    cfg = load_config(str(path), overrides=("grid.margin=7.5", "report.peak_rule=percentile"))
    assert cfg["grid"] == {"spacing": 2.0, "margin": 7.5}
    assert cfg["membrane"]["pressure"] == 20.0
    assert cfg["membrane"]["thickness"] == 2.0
    assert cfg["report"]["peak_rule"] == "percentile"  # bare word stays a string


def test_load_config_typed_overrides():
    cfg = load_config(overrides=(
        "fit.levels=[[4,4,4],[8,8,8]]",
        "fit.svf_dims=[8,8,8]",
        "membrane.fixed_rings=[]",
        "fit.iters_per_level=5",
        "diffeo.auto_steps=false",
    ))
    assert cfg["fit"]["levels"] == [[4, 4, 4], [8, 8, 8]]
    assert cfg["membrane"]["fixed_rings"] == []
    assert cfg["fit"]["iters_per_level"] == 5
    assert cfg["diffeo"]["auto_steps"] is False
    sections = build_sections(cfg)
    assert sections["fit"].levels == ((4, 4, 4), (8, 8, 8))
    assert sections["fit"].diffeo is sections["diffeo"] and not sections["diffeo"].auto_steps
    # a float key takes an integer, stored as given; a section object merges
    cfg = load_config(overrides=("grid.spacing=2", 'grid={"margin": 3.5}'))
    assert cfg["grid"] == {"spacing": 2, "margin": 3.5}
    assert isinstance(cfg["grid"]["spacing"], int)


def test_load_config_rejections(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(str(bad))
    bad.write_bytes(b'\xc4{"grid": {}}')  # not UTF-8: the error names the file
    with pytest.raises(ValueError, match="bad.json: invalid JSON"):
        load_config(str(bad))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(listy))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"grids": {}}))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(unknown))
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"grid": {"space": 1.0}}))
    with pytest.raises(ValueError, match="grid.*space"):
        load_config(str(nested))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"diffeo": {"\r\n": None}}))  # the message stays one line
    with pytest.raises(ValueError, match=re.escape("unknown config key 'diffeo.\\r\\n'")):
        load_config(str(broken))
    sectionless = tmp_path / "sectionless.json"
    sectionless.write_text(json.dumps({"grid": 5}))
    with pytest.raises(ValueError, match="section 'grid' needs an object"):
        load_config(str(sectionless))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"membrane": {"pressure": "16"}}))
    with pytest.raises(ValueError, match="'membrane.pressure' needs a JSON number"):
        load_config(str(typo))
    # NaN, infinities and overflowing literals, at any depth, from a file or --set
    for section, key, literal in [("membrane", "pressure", "NaN"), ("membrane", "thickness", "-Infinity"),
                                  ("membrane", "fixed_rings", "[[0, 1e999]]"),
                                  ("phantom", "aneurysm", "[36, 8, NaN]"), ("grid", "margin", "1" + "0" * 400)]:
        non_finite = tmp_path / "non_finite.json"
        non_finite.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
        with pytest.raises(ValueError, match=f"'{section}.{key}' needs finite numbers"):
            load_config(str(non_finite))
        with pytest.raises(ValueError, match=f"'{section}.{key}' needs finite numbers"):
            load_config(overrides=(f"{section}.{key}={literal}",))
    with pytest.raises(ValueError, match="--set needs"):
        load_config(overrides=("grid.spacing",))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(overrides=("grid.spcing=1.0",))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(overrides=("grid.spacing.x=1.0",))
    # fixed optimizer and solver settings are unknown keys, from a file or --set
    for section, key, value in [("fit", "step", 0.25), ("fit", "momentum", [0.9, 0.999]),
                                ("fit", "optimizer", "gd"), ("fit", "tol", 1e-6),
                                ("fit", "tol_iters", 25), ("membrane", "regularization", 1e-8),
                                ("membrane", "solver_tol", 1e-8), ("membrane", "max_iters", 40)]:
        removed = tmp_path / "removed.json"
        removed.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ValueError, match=f"unknown config key '{section}.{key}'"):
            load_config(str(removed))
        with pytest.raises(ValueError, match=f"unknown config key '{section}.{key}'"):
            load_config(overrides=(f"{section}.{key}={json.dumps(value)}",))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"aortafit {__version__}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Simple subcommands
# ---------------------------------------------------------------------------

def test_phantom_command(tmp_path, capsys):
    out = str(tmp_path / "phantom.vtk")
    code = main(["phantom", "--out", out,
                 "--set", "phantom.circumferential=8", "--set", "phantom.axial=12"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    mesh = load_mesh(out)
    assert mesh.n_vertices == 8 * 12
    assert mesh.ring_layout == (8, 12)


def test_template_command_averages(tmp_path, mesh_files, capsys):
    out = str(tmp_path / "avg.vtk")
    code = main(["template", mesh_files["template"], mesh_files["shifted"], "--out", out])
    assert code == 0
    avg = load_mesh(out)
    a = load_mesh(mesh_files["template"])
    b = load_mesh(mesh_files["shifted"])
    assert np.allclose(avg.vertices, 0.5 * (a.vertices + b.vertices), atol=1e-12)


def test_chamfer_command_self_is_zero(mesh_files, capsys):
    code = main(["chamfer", mesh_files["template"], mesh_files["template"]])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_quality_command_json_and_table(tmp_path, mesh_files, capsys):
    out = str(tmp_path / "quality.json")
    code = main(["quality", "--mesh", mesh_files["template"], "--out", out,
                 "--summary-table"])
    assert code == 0
    assert "equiangle_skew" in capsys.readouterr().out
    data = json.loads(Path(out).read_text())
    assert data["n_elements"] == 8 * 9
    assert data["n_degenerate"] == 0
    assert data["self_intersection_count"] == 0
    assert data["provenance"]["tool_version"] == __version__
    with pytest.raises(SystemExit) as exc:  # the brute-force search is a test oracle only
        main(["quality", "--mesh", mesh_files["template"], "--brute"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --brute" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quality_all_degenerate_writes_null(tmp_path, capsys):
    # With no element left to average, the means are JSON null (not NaN,
    # which is no JSON) and the table reads n/a; zero-area triangles raise
    # no numpy warning and print nothing to stderr.
    tube = straight_cylinder(circumferential=4, axial=3, length=10.0)
    flat = str(tmp_path / "flat.vtk")
    save_mesh(tube.with_vertices(np.zeros_like(tube.vertices)), flat)
    out = str(tmp_path / "quality.json")
    assert main(["quality", "--mesh", flat, "--out", out, "--summary-table"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    table = captured.out
    data = json.loads(Path(out).read_text(), parse_constant=pytest.fail)
    assert data["n_degenerate"] == data["n_elements"] == 8
    assert data["scaled_jacobian"] == {"mean": None, "std": None}
    assert any(line.split() == ["scaled_jacobian", "n/a", "n/a"] for line in table.splitlines())


def test_stress_command_free_end_cylinder(tmp_path, mesh_files, capsys):
    out = str(tmp_path / "stressed.vtk")
    summary = str(tmp_path / "stress.json")
    code = main(["stress", "--mesh", mesh_files["tube"], "--out", out,
                 "--summary", summary, "--set", "membrane.fixed_rings=[]"])
    assert code == 0
    data = json.loads(Path(summary).read_text())
    assert data["pressure_kpa"] == 16.0
    assert data["residual"] <= 1e-6
    for name, entry in data["regional"].items():
        assert abs(entry["mean_sigma1_kpa"] / 120.0 - 1.0) < 0.02, name
    _, cells = load_mesh(out, return_cell_data=True)
    assert {"n11", "n22", "n12", "sigma1", "sigma2"} <= set(cells)
    ratio = cells["sigma1"] / (cells["n11"] / 2.0 * 1e3)
    assert np.allclose(ratio, 1.0, atol=1e-4)  # sigma1 ~ hoop resultant / t


def test_report_command_with_reference(tmp_path, mesh_files, capsys):
    out = str(tmp_path / "report.json")
    code = main(["report", "--mesh", mesh_files["tube"], "--reference",
                 mesh_files["tube"], "--out", out, "--summary-table",
                 "--set", "membrane.fixed_rings=[]"])
    assert code == 0
    assert "max_diameter_mm" in capsys.readouterr().out
    data = json.loads(Path(out).read_text())
    from aortafit.clinical import validate_report

    validate_report(data)
    for entry in data["regions"].values():
        assert entry["max_diameter_mm"] == pytest.approx(30.0, abs=1e-9)
        assert entry["diameter_error_mm"] == 0.0
    assert data["provenance"]["mesh"] == "tube.vtk"


# ---------------------------------------------------------------------------
# Fit and warp
# ---------------------------------------------------------------------------

def test_fit_and_warp_round_trip(tmp_path, mesh_files, capsys):
    fit_dir = str(tmp_path / "fit")
    code = main(["fit", "--template", mesh_files["template"], "--target",
                 mesh_files["shifted"], "--out", fit_dir, "--seed", "0",
                 *FIT_OVERRIDES])
    assert code == 0
    assert "fit done" in capsys.readouterr().out

    summary = json.loads(Path(fit_dir, "summary.json").read_text())
    assert summary["final_chamfer_mm"] < 0.1
    assert summary["min_jacobian"] > 0.5
    history = json.loads(Path(fit_dir, "history.json").read_text())
    passes = [level["forward_passes"] for level in history["levels"]]
    assert history["level_starts"] == [0, passes[0]]
    assert len(history["loss"]) == sum(passes)
    for level in history["levels"]:
        assert level["stop"] in ("tolerance", "budget", "zero_gradient")
        assert level["forward_passes"] + level["hessian_products"] <= 40
        assert 0 < level["accepted_steps"] < level["forward_passes"]
        assert level["lambda"] > 0 and level["grad_inf_norm"] > 0
        assert level["squaring_steps"] == 3

    # Warping the template through the stored SVF reproduces fitted.vtk
    # bit for bit: same exponentiation settings, lossless mesh round trip.
    warped_path = str(tmp_path / "warped.vtk")
    code = main(["warp", "--mesh", mesh_files["template"], "--svf",
                 os.path.join(fit_dir, "svf.hdr"), "--out", warped_path])
    assert code == 0
    fitted = load_mesh(os.path.join(fit_dir, "fitted.vtk"))
    warped = load_mesh(warped_path)
    assert np.array_equal(fitted.vertices, warped.vertices)


def test_report_with_peak_below_mean_exits_2(tmp_path, mesh_files, capsys):
    # percentile 0 reports each region's minimum as its peak; validate_report
    # refuses it before anything is written.
    out = tmp_path / "report.json"
    code = main(["report", "--mesh", mesh_files["tube"], "--out", str(out),
                 "--set", "report.peak_rule=percentile", "--set", "report.percentile=0"])
    assert code == 2
    assert "peak below mean" in capsys.readouterr().err
    assert not out.exists()


def _warp_with_header_line(tmp_path, mesh_files, old, new):
    """warp's exit code on a stored SVF whose header line ``old`` is replaced by ``new``, and its header path."""
    hdr = save_volume(VectorField3D(GridGeom((4, 4, 4)), np.zeros((4, 4, 4, 3))), str(tmp_path / "svf.hdr"))
    Path(hdr).write_text(Path(hdr).read_text().replace(old, new))
    return main(["warp", "--mesh", mesh_files["template"], "--svf", hdr, "--out", str(tmp_path / "w.vtk")]), hdr


def test_warp_rejects_scalar_volume(tmp_path, mesh_files, capsys):
    # A volume file holds an SVF; a scalar header is refused on one line
    # that names it.
    code, hdr = _warp_with_header_line(tmp_path, mesh_files, "components: 3", "components: 1")
    assert code == 2
    assert capsys.readouterr().err == f"aortafit: {hdr}: components must be 3, got 1\n"


def test_warp_rejects_float32_volume(tmp_path, mesh_files, capsys):
    # No writer produces float32 payloads, so the reader takes float64 only.
    code, hdr = _warp_with_header_line(tmp_path, mesh_files, "dtype: float64", "dtype: float32")
    assert code == 2
    assert capsys.readouterr().err == f"aortafit: {hdr}: unsupported dtype 'float32', expected float64\n"
    assert not (tmp_path / "w.vtk").exists()


def test_warp_rejects_two_axis_header(tmp_path, mesh_files, capsys):
    # A header with two dims is an input error (2), found before the payload
    # size is computed from the dims.
    code, _ = _warp_with_header_line(tmp_path, mesh_files, "dims: 4 4 4", "dims: 4 4")
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "svf.hdr: dims, spacing, origin must each have 3 entries" in err


def test_warp_names_a_header_that_is_not_text(tmp_path, mesh_files, capsys):
    fld = VectorField3D(GridGeom((4, 4, 4)), np.zeros((4, 4, 4, 3)))
    hdr = tmp_path / "svf.hdr"
    save_volume(fld, str(hdr))
    hdr.write_bytes(hdr.read_bytes().replace(b"dims: 4 4 4", b"dims: 4 4 \xc4"))
    code = main(["warp", "--mesh", mesh_files["template"], "--svf", str(hdr),
                 "--out", str(tmp_path / "w.vtk")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"aortafit: {hdr}: not a text header")


def test_warp_names_an_empty_data_field(tmp_path, mesh_files, capsys):
    code, hdr = _warp_with_header_line(tmp_path, mesh_files, "data: svf.raw", "data:")
    assert code == 2
    assert capsys.readouterr().err == f"aortafit: {hdr}: empty data field\n"


def test_warp_names_a_non_finite_payload(tmp_path, mesh_files, capsys):
    hdr = save_volume(VectorField3D(GridGeom((4, 4, 4)), np.zeros((4, 4, 4, 3))), str(tmp_path / "svf.hdr"))
    raw = tmp_path / "svf.raw"
    values = np.fromfile(raw, dtype="<f8")
    values[5] = np.nan
    values.tofile(raw)
    code = main(["warp", "--mesh", mesh_files["template"], "--svf", hdr, "--out", str(tmp_path / "w.vtk")])
    assert code == 2
    assert capsys.readouterr().err == f"aortafit: {raw}: vector field contains non-finite components\n"


# Replacement values per SVF header field: valid (the first), malformed, out
# of range, non-finite and extreme.
_SVF_HEADER_FUZZ = {
    "dims": ["4 4 4", "4 4", "4 4 4 4", "1 4 4", "0 0 0", "-4 4 4", "5 4 4", "4.5 4 4", "100000 100000 100000", "x"],
    "spacing": ["11 12 13", "1e-320 1e-320 1e-320", "1e-300 12 12", "0 12 12", "-12 12 12", "nan 12 12",
                "inf 12 12", "1e308 1e308 1e308", "12 12", "x"],
    "origin": ["-16 -15 -5", "nan 0 0", "inf -15 -5", "-1e308 -1e308 -1e308", "1e308 0 0", "-15 -15", "x"],
    "dtype": ["float64", "float32", "int8", ""],
    "byteorder": ["little", "big", ""],
    "components": ["3", "1", "0", "2", "-3", "x"],
    "data": ["svf.raw", "missing.raw", "", "svf.hdr"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.sampled_from([*_SVF_HEADER_FUZZ, "drop", "raw_size"]), st.integers(0, 9)),
                      min_size=1, max_size=3))
def test_warp_exit_code_under_svf_fuzz(mesh_files, seed, edits):
    # Header fields replaced or dropped, raw payloads cut short or padded:
    # warp exits 0, 2 or 3, with at most one stderr line, no numpy warning
    # and no traceback. An input error names the header, or the data file
    # it points to, unless the mesh is what falls outside the grid.
    svf = VectorField3D(GridGeom((4, 4, 4), (12.0, 12.0, 12.0), (-15.0, -15.0, -5.0)),
                        np.random.default_rng(seed).normal(0.0, 0.3, (4, 4, 4, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        hdr = save_volume(svf, os.path.join(tmp, "svf.hdr"))
        raw = os.path.join(tmp, "svf.raw")
        with open(hdr) as fh:
            lines = fh.read().splitlines()
        with open(raw, "rb") as fh:
            payload = fh.read()
        for edit, pick in edits:
            if edit == "drop":
                del lines[1 + pick % (len(lines) - 1)]
            elif edit == "raw_size":
                sizes = [0, 1, 8, len(payload) - 8, len(payload) - 1, len(payload), len(payload) + 8]
                payload = (payload + bytes(8))[:sizes[pick % len(sizes)]]
            else:
                values = _SVF_HEADER_FUZZ[edit]
                lines = [f"{edit}: {values[pick % len(values)]}" if ln.startswith(f"{edit}:") else ln for ln in lines]
        with open(hdr, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(raw, "wb") as fh:
            fh.write(payload)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["warp", "--mesh", mesh_files["template"], "--svf", hdr,
                         "--out", os.path.join(tmp, "w.vtk")])
        files = [hdr] + [os.path.join(tmp, ln.split(":", 1)[1].strip()) for ln in lines if ln.startswith("data:")]
    assert code in (0, 2, 3)
    line = err.getvalue().strip()
    assert len(line.splitlines()) <= 1
    assert "Traceback" not in line
    if code == 2 and "outside the grid extent" not in line:
        assert any(path in line for path in files), line


# ---------------------------------------------------------------------------
# Pipeline bundles
# ---------------------------------------------------------------------------

def _manifest_hashes(bundle_dir):
    out = {}
    for case in sorted(os.listdir(bundle_dir)):
        mpath = os.path.join(bundle_dir, case, "manifest.json")
        if os.path.isdir(os.path.join(bundle_dir, case)) and os.path.exists(mpath):
            out[case] = json.loads(Path(mpath).read_text())["files"]
    return out


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_with_blas_threads(args, threads):
    """Run ``python -m aortafit.cli`` in a fresh process capped at ``threads`` BLAS threads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    run = subprocess.run([sys.executable, "-m", "aortafit.cli", *args],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr


def test_pipeline_bundle_independent_of_blas_threads(tmp_path, tube24):
    # Criterion 7's pipeline in fresh processes with one and with two BLAS
    # threads: no output may depend on how BLAS splits its sums.
    template, target = str(tmp_path / "template.vtk"), str(tmp_path / "bulge.vtk")
    save_mesh(tube24, template)
    save_mesh(bulged_cylinder(amplitude=8.0, width=8.0), target)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    manifests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        out = str(tmp_path / f"threads{threads}")
        run = subprocess.run(
            [sys.executable, "-m", "aortafit.cli", "pipeline", "--template", template, "--target", target,
             "--out", out, "--seed", "11", "--set", "fit.levels=[[8,8,8],[16,16,16]]",
             "--set", "fit.svf_dims=[16,16,16]", "--set", "fit.iters_per_level=80", "--set", "grid.spacing=2.0"],
            capture_output=True, text=True, env=env, timeout=600)
        assert run.returncode == 0, run.stderr
        with open(os.path.join(out, "manifest.json")) as fh:
            manifests.append(json.load(fh))
    assert manifests[0] == manifests[1]


def test_stress_independent_of_blas_threads(tmp_path):
    # The README's bulged 78 x 320 phantom, whose Gram matrix is large enough
    # for OpenBLAS to split the factor's updates and the residual's sums
    # across threads: the stressed mesh and the stress summary must not
    # change by a byte.
    mesh = str(tmp_path / "bulge.vtk")
    save_mesh(make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0))), mesh)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        _run_with_blas_threads(["stress", "--mesh", mesh, "--out", str(out / "stressed.vtk")], threads)
        outputs.append([(out / name).read_bytes() for name in ("stressed.vtk", "stressed.stress.json")])
    assert outputs[0] == outputs[1]


_UNDER_LIMIT = """\
import resource, sys
limit = int(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from aortafit.cli import main
code = main(sys.argv[2:])
if not limit:
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmPeak:")).split()[1])
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits and /proc are Linux's")
def test_stress_exit_contract_under_address_space_limits(tmp_path):
    # With one BLAS thread and too little address space, OpenBLAS retried
    # mapping its work buffer forever inside the band factor. Limits from 40
    # MiB below an unlimited run's peak to just above it cover the band (42
    # MiB on this 78 x 100 phantom), the buffer and the factor; each child
    # must exit 0, 2 or 3 in time, failing with one stderr line. The limit
    # is set in the child process only.
    mesh = str(tmp_path / "phantom.vtk")
    save_mesh(make_phantom(PhantomSpec(axial=100)), mesh)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    def stress(limit):
        args = ["stress", "--mesh", mesh, "--out", str(tmp_path / f"stressed{limit}.vtk")]
        return subprocess.run([sys.executable, "-c", _UNDER_LIMIT, str(limit), *args],
                              capture_output=True, text=True, env=env, timeout=20)

    unlimited = stress(0)
    assert unlimited.returncode == 0, unlimited.stderr
    peak = int(unlimited.stdout.split()[-1]) << 10  # kB
    limits = [peak + (offset << 20) for offset in (-40, -30, -20, -10, 0, 8)]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(stress, limits))
    for limit, run in zip(limits, runs):
        assert run.returncode in (0, 2, 3), (limit, run.stderr)
        assert len(run.stderr.splitlines()) == (run.returncode != 0), (limit, run.stderr)
        assert "Traceback" not in run.stderr
    assert runs[0].returncode == 2 and runs[-1].returncode == 0  # the sweep brackets the solve


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits and /proc are Linux's")
def test_pipeline_exit_contract_under_address_space_limits(tmp_path):
    # The `stress` sweep above, through `pipeline`: a 78 x 100 phantom fitted
    # to its 6 mm bulge at one 6^3 level, so that the membrane solve, not the
    # fit, sets the run's peak. Limits from 48 MiB below an unlimited run's
    # peak to 8 MiB above it; each child must exit 0, 2 or 3 in time,
    # failing with one stderr line. A run whose peak grows by what the solve
    # does not need (a thread's default stack and malloc arena, say) moves
    # every limit above the solve, and the lowest exits 0.
    template, target = str(tmp_path / "template.vtk"), str(tmp_path / "target.vtk")
    save_mesh(make_phantom(PhantomSpec(axial=100)), template)
    save_mesh(make_phantom(PhantomSpec(axial=100, aneurysm=(36.0, 6.0, 8.0))), target)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    def pipeline(limit):
        args = ["pipeline", "--template", template, "--target", target, "--out", str(tmp_path / f"out{limit}"),
                "--seed", "0", "--set", "fit.levels=[[6,6,6]]", "--set", "fit.svf_dims=[6,6,6]",
                "--set", "fit.iters_per_level=12"]
        return subprocess.run([sys.executable, "-c", _UNDER_LIMIT, str(limit), *args],
                              capture_output=True, text=True, env=env, timeout=20)

    unlimited = pipeline(0)
    assert unlimited.returncode == 0, unlimited.stderr
    peak = int(unlimited.stdout.split()[-1]) << 10  # kB
    limits = [peak + (offset << 20) for offset in (-48, -40, -32, -24, -16, -8, 0, 8)]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(pipeline, limits))
    for limit, run in zip(limits, runs):
        assert run.returncode in (0, 2, 3), (limit, run.stderr)
        assert len(run.stderr.splitlines()) == (run.returncode != 0), (limit, run.stderr)
        assert "Traceback" not in run.stderr
    assert runs[0].returncode == 2 and runs[-1].returncode == 0  # the sweep brackets the solve


def test_pipeline_two_targets_deterministic(tmp_path, mesh_files, capsys):
    args = ["pipeline", "--template", mesh_files["template"],
            "--target", mesh_files["shifted"], "--target", mesh_files["bulged"],
            "--seed", "7", *FIT_OVERRIDES]
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum("chamfer" in ln for ln in lines) == 4

    hashes_a = _manifest_hashes(out_a)
    hashes_b = _manifest_hashes(out_b)
    assert set(hashes_a) == {"case_00_shifted", "case_01_bulged"}
    # Byte-identical outputs on a rerun: every artifact hash matches.
    assert hashes_a == hashes_b
    for case, files in hashes_a.items():
        assert {"fitted.vtk", "svf.hdr", "svf.raw", "history.json",
                "summary.json", "quality.json", "stressed.vtk",
                "report.json"} == set(files)


def test_pipeline_parallel_matches_serial(tmp_path, mesh_files, capsys):
    args = ["pipeline", "--template", mesh_files["template"],
            "--target", mesh_files["shifted"], "--target", mesh_files["bulged"],
            "--seed", "7", *FIT_OVERRIDES]
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    assert main(args + ["--out", serial, "--jobs", "1"]) == 0
    assert main(args + ["--out", parallel, "--jobs", "2"]) == 0
    assert _manifest_hashes(serial) == _manifest_hashes(parallel)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers``, starts no
    process, and runs each case in the calling one (or fails it as broken)."""

    sizes = []
    broken = False

    def __init__(self, max_workers):
        _InlinePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        if _InlinePool.broken:
            fut.set_exception(BrokenProcessPool("A process in the process pool was terminated abruptly"))
        else:
            fut.set_result(fn(*args))
        return fut


def _pipeline_argv(tmp_path, n_targets, jobs):
    argv = ["pipeline", "--template", "t.vtk", "--out", str(tmp_path / "b"), "--seed", "0", "--jobs", jobs]
    for i in range(n_targets):
        argv += ["--target", f"target{i}.vtk"]
    return argv


@pytest.fixture
def inline_pool(monkeypatch):
    """Pipeline cases that only record their target, run through _InlinePool."""
    ran = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli, "_pipeline_meshes", lambda template, targets, cfg: (None, [None] * len(targets)))
    monkeypatch.setattr(cli, "_run_case", lambda template, target, *rest: (ran.append(target) or target, ""))
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "broken", False)
    return ran


@pytest.mark.parametrize("n_targets, jobs, sizes", [(2, "64", [2]), (3, "2", [2]), (1, "8", []), (3, "1", [])])
def test_pipeline_workers_capped_at_cases(tmp_path, capsys, inline_pool, n_targets, jobs, sizes):
    # A pool starts every worker it is given at the first submit: it gets one
    # per case at most, and none for a single case or --jobs 1.
    assert main(_pipeline_argv(tmp_path, n_targets, jobs)) == 0
    assert _InlinePool.sizes == sizes
    assert inline_pool == [f"target{i}.vtk" for i in range(n_targets)]
    assert capsys.readouterr().out.split() == inline_pool


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_pipeline_jobs_below_one_exit_2(tmp_path, capsys, inline_pool, jobs):
    assert main(_pipeline_argv(tmp_path, 2, jobs)) == 2
    assert capsys.readouterr().err.splitlines() == [f"aortafit: --jobs must be >= 1, got {jobs}"]
    assert inline_pool == [] and _InlinePool.sizes == []
    assert not (tmp_path / "b").exists()


def test_pipeline_broken_pool_exit_2(tmp_path, capsys, inline_pool):
    # A worker that dies (say, killed for memory) breaks the pool: one error
    # line and exit 2, not a traceback.
    _InlinePool.broken = True
    assert main(_pipeline_argv(tmp_path, 2, "2")) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["aortafit: a pipeline worker process died: "
                                "A process in the process pool was terminated abruptly"]


def test_pipeline_worker_numerical_failure_exit_3(tmp_path, capsys):
    # A case that fails numerically in a real two-process pool exits 3 with
    # the one line a serial run prints: the worker's FloatingPointError
    # pickles back to main as itself, so the pool does not break (exit 2).
    # Free tube ends leave the curved phantoms with no membrane equilibrium.
    paths = []
    for name, aneurysm in [("t", None), ("a", (60.0, 3.0, 10.0)), ("b", (80.0, 3.0, 10.0))]:
        paths.append(str(tmp_path / f"{name}.vtk"))
        save_mesh(make_phantom(PhantomSpec(circumferential=12, axial=24, aneurysm=aneurysm)), paths[-1])
    code = main(["pipeline", "--template", paths[0], "--target", paths[1], "--target", paths[2],
                 "--out", str(tmp_path / "p"), "--seed", "0", "--jobs", "2",
                 "--set", "fit.levels=[[4,4,4]]", "--set", "fit.svf_dims=[4,4,4]",
                 "--set", "fit.iters_per_level=4", "--set", "grid.spacing=4.0",
                 "--set", "membrane.fixed_rings=[]"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"aortafit: numerical failure: equilibrium residual \S+ above limit 1e-06 "
                        r"after \d+ refinement rounds", err[0]), err


def test_pipeline_single_target_writes_flat(tmp_path, mesh_files, capsys):
    out = str(tmp_path / "single")
    code = main(["pipeline", "--template", mesh_files["template"],
                 "--target", mesh_files["shifted"], "--out", out, "--seed", "3",
                 *FIT_OVERRIDES])
    assert code == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    report = json.loads(Path(out, "report.json").read_text())
    from aortafit.clinical import validate_report

    validate_report(report)
    # The bundle renders the fitted mesh once for fitted.vtk and stressed.vtk:
    # the stress command on fitted.vtk must write the same stressed.vtk.
    stressed = str(tmp_path / "stressed.vtk")
    assert main(["stress", "--mesh", os.path.join(out, "fitted.vtk"), "--out", stressed]) == 0
    assert Path(stressed).read_bytes() == Path(out, "stressed.vtk").read_bytes()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_code_2_missing_file(tmp_path, capsys):
    code = main(["quality", "--mesh", str(tmp_path / "nope.vtk")])
    assert code == 2
    assert "aortafit:" in capsys.readouterr().err


def test_exit_code_2_bad_config_value(tmp_path, capsys):
    code = main(["phantom", "--out", str(tmp_path / "p.vtk"),
                 "--set", "phantom.circumferential=2"])
    assert code == 2


def test_exit_code_2_malformed_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.vtk"
    bad.write_text("# vtk DataFile Version 3.0\nnot a mesh\n")
    code = main(["quality", "--mesh", str(bad)])
    assert code == 2


@pytest.mark.parametrize("command, code", [("quality", 0), ("stress", 2), ("report", 2)])
def test_mesh_without_faces(tmp_path, capsys, command, code):
    # A valid file with vertices and no face: quality has nothing to average
    # (null aggregates), and a membrane solve has nothing to solve, which is
    # an input error (2) with one stderr line, not a failed factorization (3).
    tube = straight_cylinder(circumferential=4, axial=3, length=10.0)
    path = str(tmp_path / "bare.vtk")
    save_mesh(QuadMesh(tube.vertices, np.zeros((0, 4), dtype=np.int64), tube.regions), path)
    out = str(tmp_path / ("s.vtk" if command == "stress" else "out.json"))
    assert main([command, "--mesh", path, "--out", out]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.strip().splitlines()) == 1
        assert "at least one face" in err
    else:
        data = json.loads(Path(out).read_text())
        assert data["n_elements"] == 0 and data["scaled_jacobian"] == {"mean": None, "std": None}


def test_stress_collapsed_edge_names_the_element(tmp_path, capsys):
    # Two distinct vertices of face 7 at one point: the topology is sound,
    # but the edge between them has zero length, so the triangle on it has
    # zero area. The solve stops there with one line naming the element, an
    # input error (2), before any operator is built.
    tube = straight_cylinder(circumferential=6, axial=4, length=10.0)
    vertices = tube.vertices.copy()
    _, a, b, _ = tube.faces[7]
    vertices[b] = vertices[a]
    path = str(tmp_path / "collapsed.vtk")
    save_mesh(tube.with_vertices(vertices), path)
    assert main(["stress", "--mesh", path, "--out", str(tmp_path / "s.vtk")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "degenerate element 7: zero-area triangle" in err


def _broken_tube(which):
    """A 6 x 4 tube broken one way: face 8 reversed, face 7 repeating a
    vertex (both keep the ring layout), or a fin face on the edge that faces
    0 and 1 share."""
    tube = straight_cylinder(circumferential=6, axial=4, length=10.0)
    faces = tube.faces.copy()
    if which == "reversed":
        faces[8] = faces[8][::-1]
    elif which == "repeated":
        faces[7, 2] = faces[7, 1]
    else:
        a, b = faces[0, 1], faces[0, 2]
        n = tube.n_vertices
        fin = 2.0 * tube.vertices[[a, b]]
        return QuadMesh(np.concatenate([tube.vertices, fin]), np.concatenate([faces, [[a, b, n + 1, n]]]),
                        np.concatenate([tube.regions, tube.regions[[a, b]]]))
    return QuadMesh(tube.vertices, faces, tube.regions, tube.ring_layout)


@pytest.mark.parametrize("command, which, message", [
    pytest.param("stress", "reversed", "inconsistently oriented edge (8, 9): faces 2 and 8 both run it from 9 to 8",
                 id="stress-reversed"),
    pytest.param("report", "reversed", "inconsistently oriented edge (8, 9): faces 2 and 8 both run it from 9 to 8",
                 id="report-reversed"),
    pytest.param("stress", "repeated", "degenerate face 7: repeated vertex in [7, 8, 8, 13]", id="stress-repeated"),
    pytest.param("stress", "fin", "non-manifold edge (1, 7): shared by faces [0, 1, 18]", id="stress-fin"),
])
def test_broken_topology_names_the_face_or_edge(tmp_path, capsys, command, which, message):
    # A mesh the membrane solve cannot take is an input error (2), and its
    # one stderr line names the first fault: the face or the edge to mend.
    path = str(tmp_path / f"{which}.vtk")
    save_mesh(_broken_tube(which), path)
    assert main([command, "--mesh", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"aortafit: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, token, message", [
    pytest.param("quality", "POINTS", "nan", "finite", id="quality"),
    pytest.param("stress", "POINTS", "nan", "finite", id="stress"),
    pytest.param("quality", "LOOKUP_TABLE", "300", "region label 300 out of range", id="region_label_300"),
    pytest.param("quality", "ring_layout", "inf", "ring_layout must hold 2 integers", id="ring_layout_inf"),
])
def test_exit_code_2_non_finite_coordinate(tmp_path, mesh_files, capsys, command, section, token, message):
    # A bad number in a mesh file (a NaN coordinate, a region label or ring
    # count out of range) is an input error (2), not a numerical failure (3)
    # or a crash. The first number after the section header is replaced.
    lines = Path(mesh_files["tube"]).read_text().splitlines()
    first = lines.index(next(l for l in lines if l.startswith(section))) + 1
    lines[first] = " ".join([token] + lines[first].split()[1:])
    bad = tmp_path / "bad.vtk"
    bad.write_text("\n".join(lines) + "\n")
    argv = [command, "--mesh", str(bad)]
    if command == "stress":
        argv += ["--out", str(tmp_path / "s.vtk")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err
    if section != "POINTS":
        assert f"bad.vtk:{first + 1}:" in err  # file and line of the bad value


@pytest.mark.parametrize("old, new, message", [
    pytest.param("POINTS 6", "POINTS 100000000000", "bad.vtk:12: expected coordinate, got 'POLYGONS'",
                 id="points_huge"),
    pytest.param("POLYGONS 3 15", "POLYGONS 100000000000 500000000000",
                 "bad.vtk:16: expected cell size, got 'POINT_DATA'", id="polygons_huge"),
    pytest.param("s 1 3", "s 100000000000 3", "bad.vtk: unexpected end of file, expected cell value",
                 id="ncomp_huge"),
    pytest.param("POINTS 6", "POINTS -1", "bad.vtk:5: expected vertex count, got '-1'", id="points_negative"),
    pytest.param("POLYGONS 3 15", "POLYGONS -1 -5", "bad.vtk:12: expected face count, got '-1'",
                 id="polygons_negative"),
    pytest.param("s 1 3", "s 0 3", "bad.vtk:30: expected array ncomp, got '0'", id="ncomp_zero"),
    pytest.param("s 1 3", "s -2 3", "bad.vtk:30: expected array ncomp, got '-2'", id="ncomp_negative"),
])
def test_exit_code_2_bad_mesh_count(tmp_path, capsys, old, new, message):
    # A count the file does not back with numbers is an input error naming
    # the file, not a MemoryError or a bare numpy message: nothing is
    # allocated before its values are parsed.
    bad = tmp_path / "bad.vtk"
    save_mesh(straight_cylinder(circumferential=3, axial=2, length=5.0), str(bad),
              cell_data={"s": np.arange(3.0)})
    bad.write_text(bad.read_text().replace(old, new, 1))
    assert main(["quality", "--mesh", str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edits=st.lists(st.sampled_from(["count", "truncate", "swap"]),
                                                      min_size=1, max_size=3))
def test_quality_exit_code_under_mesh_fuzz(seed, edits):
    # Header counts set to 0, negative or 10^11, truncated files and swapped
    # tokens: quality exits 0 or 2, with one stderr line on 2, and nothing
    # escapes main.
    rng = np.random.default_rng(seed)
    mesh = straight_cylinder(circumferential=4, axial=3, length=10.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.vtk")
        save_per_element(mesh, path, cell_data={"s": rng.standard_normal((mesh.n_faces, 2))})
        lines = Path(path).read_text().split("\n")
        tokens = " ".join(lines[4:]).split()
        for edit in edits:
            if edit == "count":
                # the one or two counts after a section keyword, field name or array name
                counts = [i + 1 for i, tok in enumerate(tokens[:-2]) if tok in (
                    "POINTS", "POLYGONS", "POINT_DATA", "CELL_DATA", "meta", "celldata", "ring_layout", "s")]
                counts += [i + 2 for i, tok in enumerate(tokens[:-2]) if tok in ("POLYGONS", "ring_layout", "s")]
                tokens[rng.choice(counts)] = str(rng.choice(["0", "-1", "-7", "100000000000"]))
            elif edit == "swap":
                i, j = rng.integers(len(tokens), size=2)
                tokens[i], tokens[j] = tokens[j], tokens[i]
        text = "\n".join(lines[:4] + tokens) + "\n"
        if "truncate" in edits:
            text = text[:rng.integers(len(text))]
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["quality", "--mesh", path])
    assert code in (0, 2)
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
        assert "m.vtk" in err.getvalue()


@pytest.mark.parametrize("command, setting", [
    ("phantom", "phantom.circumferential=abc"),
    ("phantom", "phantom.base_radius=null"),
    ("phantom", "grid=5"),
    ("phantom", "membrane=5"),
    ("report", "membrane.pressure=abc"),
    ("report", "report.percentile=abc"),
    ("fit", "fit.levels=abc"),
    ("fit", 'fit.iters_per_level="3"'),
    ("fit", "fit.iters_per_level=2.5"),
    ("fit", "fit.svf_dims=5"),
    ("fit", "weights.alpha=abc"),
    ("fit", "grid.spacing=abc"),
    ("fit", "diffeo.auto_steps=1"),
    ("report", "membrane.thickness=abc"),
    ("report", "membrane.pressure=NaN"),
    ("report", "membrane.thickness=Infinity"),
    ("report", "membrane.pressure=1e999"),
    ("phantom", "phantom.aneurysm=[36,8,NaN]"),
    ("fit", "fit.levels=[[4,4,-Infinity]]"),
])
def test_exit_code_2_config_type(tmp_path, mesh_files, capsys, command, setting):
    # A value of the wrong JSON type, a NaN or infinite number, or a section
    # replaced by a non-object, is a validation error (2) with one stderr line.
    argv = {
        "phantom": ["phantom", "--out", str(tmp_path / "p.vtk")],
        "report": ["report", "--mesh", mesh_files["tube"]],
        "fit": ["fit", "--template", mesh_files["template"], "--target", mesh_files["shifted"],
                "--out", str(tmp_path / "f"), "--seed", "0"],
    }[command]
    assert main(argv + ["--set", setting]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert repr(setting.split("=")[0]) in err


@pytest.mark.parametrize("command, setting, message", [
    ("fit", "fit.levels=[]", "at least one grid"),
    ("fit", "fit.levels=[8]", "lists of grid dims"),
    ("fit", "grid.spacing=0", "grid spacing must be > 0"),
    ("fit", "grid.spacing=1e-320", "under 2^31 voxels"),
    pytest.param("fit", ("fit.levels=[[2,3,3]]", "fit.svf_dims=[2,3,3]"),
                 "config 'fit.svf_dims', 'fit.levels': svf_dims, the last level, needs >= 3 nodes per axis",
                 id="fit-final_grid_2"),
    ("stress", "membrane.fixed_rings=5", "fixed_rings must be a list"),
    ("stress", "membrane.fixed_rings=[[1e30]]", "fixed_rings must be a list"),
    ("stress", "membrane.fixed_rings=[[99999]]", "out of range 0..79"),
    ("stress", "membrane.fixed_rings=[[-1]]", "out of range 0..79"),
    # Every config-taking subcommand builds every section before any work,
    # and names the rejected key.
    ("report", "weights.omega=[1,2,3,4,5]", "config 'weights.omega': omega needs 4 entries"),
    ("report", "fit.levels=[[8,8,8],[4,4,4]]", "config 'fit.levels': levels must be nondecreasing"),
    ("report", "grid.margin=-100", "config 'grid.margin': grid margin must be >= 0"),
    ("report", "weights.omega=[1e308,1e308,0,0]", "config 'weights.omega': region weights must not all be zero, and"),
    pytest.param("report", ("report.peak_rule=percentile", "report.percentile=150"),
                 "config 'report.percentile': percentile must be in [0, 100], got 150", id="report-percentile_150"),
    ("phantom", 'report.peak_rule="x"', "config 'report.peak_rule': peak_rule must be 'max' or 'percentile'"),
    ("phantom", "phantom.aneurysm=[1,2]", "config 'phantom.aneurysm': aneurysm must be [center, amplitude, width]"),
    pytest.param("phantom", ("phantom.seed=-1", "phantom.jitter=0.1"),
                 "config 'phantom.seed': seed must be null or an integer >= 0", id="phantom-seed_negative"),
    ("warp", "grid.margin=-100", "config 'grid.margin'"),
    ("stress", "fit.svf_dims=[16,16,16]", "config 'fit.svf_dims': last level must equal svf_dims"),
    ("fit", "report.diameter_method=\"area\"", "config 'report.diameter_method'"),
    ("pipeline", "weights.omega=[1,2,3,4,5]", "config 'weights.omega'"),
    pytest.param("report", ("phantom.ascending_length=0", "phantom.arch_radius=0", "phantom.descending_length=0"),
                 "config 'phantom': centerline has zero length", id="report-zero_centerline"),
    # Grid dims must be whole numbers and other numbers not booleans: none is
    # truncated or read as 0 or 1.
    pytest.param("fit", ("fit.levels=[[8,8,8],[16.9,16,16]]", "fit.svf_dims=[16.9,16,16]"),
                 "config 'fit.svf_dims', 'fit.levels': levels and svf_dims must be lists of grid dims",
                 id="fit-fractional_dims"),
    pytest.param("fit", "fit.levels=[[8,8,8],[16,16,16],[32,32,true]]",
                 "config 'fit.levels': levels and svf_dims must be lists of grid dims", id="fit-boolean_dim"),
    pytest.param("phantom", "phantom.seed=true", "config 'phantom.seed': seed must be null or an integer >= 0",
                 id="phantom-seed_true"),
    pytest.param("phantom", "phantom.aneurysm=[true,8,8]",
                 "config 'phantom.aneurysm': aneurysm must be [center, amplitude, width]", id="phantom-aneurysm_true"),
    pytest.param("phantom", "phantom.region_fractions=[false,0.5,0.6]",
                 "config 'phantom.region_fractions': region_fractions must be 3 nondecreasing values",
                 id="phantom-fraction_false"),
])
def test_exit_code_2_config_range(tmp_path, mesh_files, capsys, command, setting, message):
    # A value of the right JSON type that its dataclass or the mesh cannot
    # take is a validation error (2) with one stderr line, not a crash.
    template, shifted = mesh_files["template"], mesh_files["shifted"]
    argv = {
        "phantom": ["phantom", "--out", str(tmp_path / "p.vtk")],
        "fit": ["fit", "--template", template, "--target", shifted, "--out", str(tmp_path / "f"), "--seed", "0"],
        "warp": ["warp", "--mesh", template, "--svf", str(tmp_path / "svf.hdr"), "--out", str(tmp_path / "w.vtk")],
        "stress": ["stress", "--mesh", template, "--out", str(tmp_path / "s.vtk")],
        "report": ["report", "--mesh", template],
        "pipeline": ["pipeline", "--template", template, "--target", shifted, "--out", str(tmp_path / "b"),
                     "--seed", "0"],
    }[command]
    for item in [setting] if isinstance(setting, str) else setting:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("command, setting", [
    ("stress", "membrane.pressure=1e308"),
    ("report", "membrane.pressure=1e308"),
    ("report", "membrane.thickness=1e-320"),
    ("report", "membrane.thickness=1e-305"),  # finite stresses whose regional mean overflows
])
def test_exit_code_3_non_finite_stress(tmp_path, mesh_files, capsys, command, setting):
    # A load or wall so extreme that the residual or the stresses overflow is
    # a numerical failure (3) with one stderr line, and writes no NaN or
    # Infinity anywhere.
    out = str(tmp_path / "out")
    assert main([command, "--mesh", mesh_files["tube8"], "--out", out, "--set", setting]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "numerical failure" in err
    assert os.listdir(tmp_path) == []


def test_exit_code_2_out_of_memory(tmp_path, capsys, monkeypatch):
    # An allocation the machine cannot make is one line and exit 2, not a
    # traceback. Nothing is allocated: the phantom builder is replaced.
    def no_memory(spec):
        raise MemoryError("Unable to allocate 232. GiB for an array")

    monkeypatch.setattr(cli, "make_phantom", no_memory)
    assert main(["phantom", "--out", str(tmp_path / "p.vtk"), "--set", "phantom.circumferential=100000000"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["aortafit: out of memory: Unable to allocate 232. GiB for an array"]


_FUZZ_KEYS = sorted(f"{section}.{key}" for section, keys in default_config().items() for key in keys)


def _json_containers(children):
    return st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=3), children, max_size=3)


_FUZZ_NUMBER = st.integers(-3, 100) | st.integers() | st.floats()
_FUZZ_LEAF = (st.none() | st.booleans() | _FUZZ_NUMBER | st.text(max_size=6)
              | st.sampled_from(["max", "percentile", "equivalent", "chord"]))
# Numbers and short number lists, which most keys take, besides any JSON and bare words.
_FUZZ_RAW = (_FUZZ_NUMBER.map(json.dumps) | st.lists(_FUZZ_NUMBER, max_size=4).map(json.dumps)
             | st.recursive(_FUZZ_LEAF, _json_containers, max_leaves=12).map(json.dumps) | st.text(max_size=8))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(key=st.sampled_from(_FUZZ_KEYS), raw=_FUZZ_RAW)
def test_report_exit_code_under_config_fuzz(mesh_files, key, raw):
    # report builds every section but allocates nothing sized by phantom, fit
    # or grid values: any --set value exits 0, 2 or 3, with at most one
    # stderr line, and nothing escapes main.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--mesh", mesh_files["tube8"], "--set", f"{key}={raw}"])
    assert code in (0, 2, 3)
    assert len(err.getvalue().strip().splitlines()) <= 1


_FUZZ_JSON = st.recursive(_FUZZ_LEAF, _json_containers, max_leaves=12)


_FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(["set", "drop", "add", "section", "top"]),
                                 st.sampled_from(_FUZZ_KEYS), _FUZZ_JSON), max_size=4)
_FUZZ_CUT = st.none() | st.integers(0, 2**16)


def _edit_config(doc, edits):
    """``doc`` with keys set to any JSON, dropped or added, and sections or the whole document replaced."""
    for edit, dotted, value in edits:
        section, key = dotted.split(".")
        if edit == "top":
            doc = value
        elif not isinstance(doc, dict):
            continue
        elif edit == "section":
            doc[section] = value
        elif isinstance(doc.get(section), dict):
            if edit == "set":
                doc[section][key] = value
            elif edit == "add":
                doc[section][key + "_x"] = value
            else:
                doc[section].pop(key, None)
    return doc


def _main_with_config_file(argv, doc, cut, junk, check=None):
    """Exit code and stderr of ``main(argv)`` given ``doc`` as a config file,
    its text cut short and arbitrary bytes appended. ``{tmp}`` in ``argv`` is
    a scratch directory. ``check``, if given, sees the file's path first.
    Each warning adds the line it prints outside pytest.
    """
    text = json.dumps(doc).encode()
    if cut is not None:
        text = text[: cut % (len(text) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(text + junk)
        if check is not None:
            check(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*[arg.replace("{tmp}", tmp) for arg in argv], "--config", path])
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(edits=_FUZZ_EDITS, cut=_FUZZ_CUT, junk=st.binary(max_size=4))
def test_report_exit_code_under_config_file_fuzz(mesh_files, edits, cut, junk):
    # Whole config files: the defaults with keys set to any JSON, dropped or
    # added, sections or the whole document replaced, then the text cut short
    # and arbitrary bytes appended. report exits 0, 2 or 3, with at most one
    # stderr line, and nothing escapes main.
    code, err = _main_with_config_file(["report", "--mesh", mesh_files["tube8"]], _edit_config(default_config(), edits),
                                       cut, junk)
    assert code in (0, 2, 3)
    assert len(err.strip().splitlines()) <= 1


_PHANTOM_CAP = 4096  # vertices: the fuzz builds no phantom beyond 64 x 64
# Mostly sizes a phantom takes, tiny to huge, besides any float or integer.
_PHANTOM_NUMBER = st.floats(0, 1e3) | st.floats(min_value=0) | st.floats() | st.integers(-3, 100)
_PHANTOM_VALUES = {
    "circumferential": st.integers(-3, 70),
    "axial": st.integers(-3, 70),
    "aneurysm": st.none() | st.lists(_PHANTOM_NUMBER, min_size=3, max_size=3),
    "region_fractions": (st.lists(st.floats(0, 1), min_size=3, max_size=3).map(sorted)
                         | st.lists(_PHANTOM_NUMBER, min_size=3, max_size=3)),
    "seed": st.none() | st.integers(-3, 2**70),
}
_PHANTOM_SPECS = st.fixed_dictionaries({}, optional={key: _PHANTOM_VALUES.get(key, _PHANTOM_NUMBER)
                                                     for key in default_config()["phantom"]})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(phantom=_PHANTOM_SPECS, edits=st.just([]) | _FUZZ_EDITS,
       damage=st.none() | st.tuples(_FUZZ_CUT, st.binary(max_size=4)))
@example(phantom={"ascending_length": 1e160}, edits=[], damage=None)  # segment length squared overflows
def test_phantom_exit_code_under_config_file_fuzz(phantom, edits, damage):
    # Whole config files for phantom, which allocates by its layout: an 8 x 10
    # tube with phantom keys set to numbers of any size and sign, NaN and
    # infinity among them, then, in some files, report's edits, a cut and
    # appended bytes. Layouts above the cap are not built. phantom exits 0, 2
    # or 3, with at most one stderr line, and nothing escapes main.
    doc = default_config()
    doc["phantom"].update({"circumferential": 8, "axial": 10, **phantom})
    doc = _edit_config(doc, edits)
    spec = doc.get("phantom") if isinstance(doc, dict) else None
    if isinstance(spec, dict):
        layout = [spec.get(key, getattr(PhantomSpec, key)) for key in ("circumferential", "axial")]
        assume(not all(type(n) is int and n > 0 for n in layout) or layout[0] * layout[1] <= _PHANTOM_CAP)
    code, err = _main_with_config_file(["phantom", "--out", os.path.join("{tmp}", "p.vtk")], doc,
                                       *(damage or (None, b"")))
    assert code in (0, 2, 3)
    assert len(err.strip().splitlines()) <= 1 and "Traceback" not in err


_FIT_NODES = 216  # the fuzz fits no level beyond 6^3 nodes
_FIT_BUDGET = 12  # nor runs more than 12 passes and products per level
_FIT_DIMS = st.lists(st.integers(-1, 7), max_size=4)
# Valid grid ladders (nondecreasing per axis, svf_dims the last level), or any dims.
_FIT_LADDERS = st.lists(st.lists(st.integers(3, 6), min_size=3, max_size=3), min_size=1, max_size=3).map(
    lambda levels: {"levels": np.sort(levels, axis=0).tolist(), "svf_dims": np.sort(levels, axis=0)[-1].tolist()})
_FIT_SECTION = st.builds(
    lambda dims, budget: {**dims, **budget},
    _FIT_LADDERS | st.fixed_dictionaries({}, optional={"svf_dims": _FIT_DIMS | _FUZZ_NUMBER,
                                                       "levels": st.lists(_FIT_DIMS, max_size=3)}),
    st.fixed_dictionaries({}, optional={"iters_per_level": st.integers(-3, _FIT_BUDGET + 2)}))
# The fit section and the sections it and the pipeline read, mostly in range,
# besides numbers of any size and sign, NaN and infinity among them.
_FIT_SPECS = st.fixed_dictionaries({
    "fit": _FIT_SECTION,
    "grid": st.fixed_dictionaries({}, optional={"spacing": st.floats(0.5, 4) | _PHANTOM_NUMBER,
                                                "margin": st.floats(0, 8) | _PHANTOM_NUMBER}),
    "weights": st.fixed_dictionaries({}, optional={
        "omega": st.lists(st.floats(0, 1), min_size=4, max_size=4) | st.lists(_PHANTOM_NUMBER, max_size=5),
        "alpha": st.floats(0, 1) | _PHANTOM_NUMBER}),
    "diffeo": st.fixed_dictionaries({}, optional={"squaring_steps": st.integers(-3, 22),
                                                  "auto_steps": st.booleans()}),
    "membrane": st.fixed_dictionaries({}, optional={"pressure": _PHANTOM_NUMBER, "thickness": _PHANTOM_NUMBER,
                                                    "fixed_rings": st.lists(st.integers(-3, 12), max_size=3)}),
})


def _small_fit_only(path):
    """Reject a config file whose sections build a fit above the fuzz's size caps."""
    try:
        fit = build_sections(load_config(path))["fit"]
    except ValueError:
        return  # exits 2 before any work
    assume(max(np.prod(level) for level in fit.levels) <= _FIT_NODES and fit.iters_per_level <= _FIT_BUDGET)


@pytest.mark.parametrize("command", ["fit", "pipeline"])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(spec=_FIT_SPECS, edits=st.just([]) | _FUZZ_EDITS, damage=st.none() | st.tuples(_FUZZ_CUT, st.binary(max_size=4)))
@example(spec={"fit": {}, "grid": {"spacing": 1.65e77}}, edits=[], damage=None)  # Hessian products overflow
@example(spec={"fit": {}, "grid": {"margin": 9e307}}, edits=[], damage=None)  # the grid extent overflows
@example(spec={"fit": {}}, edits=[("section", "diffeo.auto_steps", {"\r": None})], damage=None)  # a key with a line break
def test_fit_exit_code_under_config_file_fuzz(mesh_files, command, spec, edits, damage):
    # Whole config files for fit and pipeline, which allocate by the fit's
    # grid dims and run for its budget: small fit levels and budgets, any
    # grid, weights and squaring steps, then, in some files, report's edits,
    # a cut and appended bytes. Fits above the caps are not run. Each exits
    # 0, 2 or 3, with at most one stderr line, and nothing escapes main; the
    # pipeline's single case runs in this process.
    doc = default_config()
    doc["fit"].update(levels=[[4, 4, 4], [6, 6, 6]], svf_dims=[6, 6, 6], iters_per_level=_FIT_BUDGET)
    doc["grid"]["spacing"] = 2.0
    for section, values in spec.items():
        doc[section].update(values)
    argv = [command, "--template", mesh_files["template"], "--target", mesh_files["shifted"],
            "--out", os.path.join("{tmp}", "out"), "--seed", "0"]
    code, err = _main_with_config_file(argv, _edit_config(doc, edits), *(damage or (None, b"")),
                                       check=_small_fit_only)
    assert code in (0, 2, 3)
    assert len(err.strip().splitlines()) <= 1 and "Traceback" not in err


def test_exit_code_3_solver_failure(tmp_path, mesh_files, capsys):
    # curved tube with free ends: no membrane equilibrium exists
    arch = str(tmp_path / "arch.vtk")
    save_mesh(make_phantom(PhantomSpec(circumferential=10, axial=16)), arch)
    code = main(["stress", "--mesh", arch, "--out", str(tmp_path / "s.vtk"),
                 "--set", "membrane.fixed_rings=[]"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_3_squaring_step_guard_in_fit(tmp_path, mesh_files, capsys, blown_up_upsample):
    # A level's first field outgrowing the squaring-step guard mid-fit is a
    # numerical failure (3), not a validation error (2).
    code = main(["pipeline", "--template", mesh_files["template"], "--target",
                 mesh_files["shifted"], "--out", str(tmp_path / "p"), "--seed", "0",
                 *FIT_OVERRIDES])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "numerical failure" in err and "squaring steps" in err


def _mismatched(template, kind):
    """(template, target) meshes that fail the fit's correspondence check as ``kind`` says."""
    regions = template.regions.copy()
    if kind == "vertex_count":
        return template, straight_cylinder(circumferential=6, axial=10, length=30.0, radius=5.0)
    if kind == "connectivity":
        return template, QuadMesh(template.vertices, template.faces[:, ::-1].copy(), regions, template.ring_layout)
    if kind == "region_labels":
        regions[0] = (regions[0] + 1) % 4
        return template, QuadMesh(template.vertices, template.faces, regions, template.ring_layout)
    if kind == "empty_region":
        regions[regions == 3] = 2
        both = QuadMesh(template.vertices, template.faces, regions, template.ring_layout)
        return both, both.with_vertices(both.vertices + 0.3)
    if kind == "no_ring_layout":
        bare = QuadMesh(template.vertices, template.faces, regions)
        return bare, bare.with_vertices(bare.vertices + 0.3)
    raise AssertionError(kind)


@pytest.mark.parametrize("command", ["fit", "pipeline"])
@pytest.mark.parametrize("kind, message", [
    ("vertex_count", "meshes must have identical vertex counts"),
    ("connectivity", "meshes must share connectivity"),
    ("region_labels", "meshes must share region labels"),
    ("empty_region", "region 'descending' has no vertices"),
    ("no_ring_layout", "smoothness needs a structured mesh"),
])
def test_exit_code_2_template_target_mismatch(tmp_path, mesh_files, capsys, monkeypatch, command, kind, message):
    # Meshes the fit cannot compare are a validation error (2) with one
    # stderr line, found before any level runs: not a numerical failure (3).
    from aortafit import fitter

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit level ran on meshes that do not correspond")

    monkeypatch.setattr(fitter, "_fit_level", no_fit)
    template, target = _mismatched(load_mesh(mesh_files["template"]), kind)
    paths = [str(tmp_path / "template.vtk"), str(tmp_path / "target.vtk")]
    save_mesh(template, paths[0])
    save_mesh(target, paths[1])
    code = main([command, "--template", paths[0], "--target", paths[1], "--out", str(tmp_path / "out"),
                 "--seed", "0", *FIT_OVERRIDES])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "numerical failure" not in err
    assert message in err


def _without_rings(path, tmp_path):
    """A copy of the mesh file at ``path`` saved with no ring layout."""
    mesh = load_mesh(path)
    bare = str(tmp_path / "bare.vtk")
    save_mesh(QuadMesh(mesh.vertices, mesh.faces, mesh.regions), bare)
    return bare


NO_RINGS = "mesh has no ring_layout; rings are undefined"


@pytest.mark.parametrize("good_first", [False, True])
def test_pipeline_ringless_target_rejected_before_any_work(tmp_path, mesh_files, capsys, monkeypatch, good_first):
    # The report measures the target ring by ring. A target without a ring
    # layout, even behind a good one, is a validation error before any fit:
    # nothing is written under --out.
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before every target was checked")

    monkeypatch.setattr(cli, "fit_svf", no_fit)
    bare = _without_rings(mesh_files["bulged"], tmp_path)
    targets = ["--target", mesh_files["bulged"]] * good_first + ["--target", bare]
    out = tmp_path / "out"
    code = main(["pipeline", "--template", mesh_files["template"], *targets, "--out", str(out),
                 "--seed", "0", *FIT_OVERRIDES])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"aortafit: {NO_RINGS}"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("which", ["mesh", "reference"])
def test_report_ringless_mesh_rejected_before_solve(tmp_path, mesh_files, capsys, monkeypatch, which):
    def no_solve(*args, **kwargs):
        raise AssertionError("the membrane solve ran on a mesh the report cannot measure")

    monkeypatch.setattr(cli, "solve_membrane_stress", no_solve)
    paths = {"mesh": mesh_files["tube8"], "reference": mesh_files["tube8"]}
    paths[which] = _without_rings(paths[which], tmp_path)
    code = main(["report", "--mesh", paths["mesh"], "--reference", paths["reference"],
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"aortafit: {NO_RINGS}"]
    assert not (tmp_path / "report.json").exists()
