import filecmp
import json
import os

import pytest

import layers
import run
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name].make_inputs
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cases_a, files_a = make(3, str(tmp_path / "a"))
    cases_b, files_b = make(3, str(tmp_path / "b"))
    assert files_a == files_b
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", sorted(files_a), shallow=False)
    assert mismatch == [] and errors == []
    (tmp_path / "c").mkdir()
    make(4, str(tmp_path / "c"))
    targets = [f for f in files_a if f not in ("template.vtk", "reference.vtk")]
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", targets, shallow=False)
    assert mismatch == targets


def test_readme_seed_zero_is_the_readme_target(tmp_path):
    from aortafit import phantom, quadmesh

    cases, _ = workloads.readme_inputs(0, str(tmp_path))
    readme = phantom.make_phantom(phantom.PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    assert (quadmesh.load_mesh(cases[0]["target"]).vertices == readme.vertices).all()


def test_benchmark_json_lists_what_the_benchmark_reports():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
