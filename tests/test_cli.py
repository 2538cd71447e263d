import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import omp2sim
from omp2sim import cli
from omp2sim.cli import (
    EXIT_CAPACITY,
    EXIT_CONVERGENCE,
    EXIT_FIXTURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from omp2sim.oracle import fixture_path

H2_FIXTURE = str(fixture_path("h2_1.4.fcidump"))
LIH_FIXTURE = str(fixture_path("lih_3.1.fcidump"))
GOLDEN = Path(__file__).parent / "data" / "golden"

CAP_FIXTURE_TEXT = """&FCI NORB=  7,NELEC= 2,MS2=0,
 ORBSYM=1,1,1,1,1,1,1,
 ISYM=1,
&END
 0.5000000000000000E+00   1   1   0   0
 0.1000000000000000E+01   0   0   0   0
"""


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[2:]]


def test_usage_errors(tmp_path, monkeypatch, capsys):
    assert run_cli() == EXIT_USAGE
    assert run_cli("frobnicate") == EXIT_USAGE
    assert run_cli("energy") == EXIT_USAGE
    assert run_cli("energy", "--fixture", H2_FIXTURE, "--format", "yaml") == EXIT_USAGE
    fixtures = str(fixture_path("h2_1.4.fcidump").parent)
    out = tmp_path / "x.csv"
    for argv in (
        ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--shots", "0"),
        ("energy", "--fixture", H2_FIXTURE, "--tol", "0"),
        ("energy", "--fixture", H2_FIXTURE, "--tol", "nan"),
        ("energy", "--fixture", H2_FIXTURE, "--noise", "ibm_lima"),
        ("curve", "--fixture-dir", fixtures, "--noise", "ibm_lima"),
        ("curve", "--fixture-dir", fixtures, "--jobs", "0"),
        ("resources", "--fixture", H2_FIXTURE, "--noise", "ibm_lima"),
        ("energy", "--fixture", H2_FIXTURE, "--postselect"),
        ("curve", "--fixture-dir", fixtures, "--postselect"),
        ("resources", "--fixture", H2_FIXTURE, "--postselect"),
        ("noise-study", "--fixture", H2_FIXTURE, "--trajectories", "0"),
        ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--seed", "-1"),
    ):
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE, argv
    assert not out.exists()
    capsys.readouterr()
    # the --out directory is checked before the fixture is read
    no_dir = tmp_path / "missing" / "x.csv"
    assert run_cli("energy", "--fixture", "nope_1.0.fcidump", "--out", str(no_dir)) == EXIT_USAGE
    assert run_cli("energy", "--fixture", H2_FIXTURE, "--out", str(tmp_path)) == EXIT_USAGE
    monkeypatch.setenv("OMP2SIM_SEED", "abc")
    assert run_cli("energy", "--fixture", H2_FIXTURE, "--out", str(out)) == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(ln.startswith("error: ") for ln in err)
    assert "--out" in err[0] and "--out" in err[1] and "OMP2SIM_SEED" in err[2]


def test_missing_fixture(tmp_path, capsys):
    assert run_cli("energy", "--fixture", str(tmp_path / "nope_1.0.fcidump")) == EXIT_FIXTURE
    assert "not found" in capsys.readouterr().err


def test_broken_fixture(tmp_path, capsys):
    bad = tmp_path / "bad_1.0.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nnot a record\n")
    assert run_cli("energy", "--fixture", str(bad)) == EXIT_FIXTURE
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,content,match",
    [
        ("a_1.0.fcidump", b"&FCI NORB=1,NELEC=4,MS2=0,\n&END\n", "n_electrons"),
        ("b_1.0.fcidump", b"&FCI NORB=2,NELEC=0,MS2=0,\n&END\n", "n_electrons"),
        ("c_1.0.fcidump", b"&FCI NORB=2,NELEC=-2,MS2=0,\n&END\n", "n_electrons"),
        ("d_1.0.fcidump", b"&FCI NORB=-1,NELEC=2,MS2=0,\n&END\n", "NORB"),
        ("e_1.0.fcidump", b"&FCI NORB=0,NELEC=2,MS2=0,\n&END\n", "NORB"),
        ("f_1.0.fcidump", b"\xff\xfe&FCI NORB=2,NELEC=2,MS2=0,\n&END\n", "utf-8"),
        # two orbitals cannot hold LiH's active space
        ("lih_3.1.fcidump", Path(H2_FIXTURE).read_bytes(), "active-space"),
        ("x.fcidump", None, "Is a directory"),
    ],
    ids=["nelec_4_norb_1", "nelec_0", "nelec_-2", "norb_-1", "norb_0", "not_utf8",
         "too_small_for_active_space", "directory"],
)
@pytest.mark.parametrize("command", ["energy", "resources"])
def test_unusable_fixture_is_fixture_problem(tmp_path, capsys, command, name, content, match):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "row.csv"
    assert run_cli(command, "--fixture", str(path), "--out", str(out)) == EXIT_FIXTURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert match in err
    assert not out.exists()


def test_filled_shell_needs_no_optimization(tmp_path):
    # NORB=3, NELEC=6 has no virtual orbital, so no rotation angle
    full = tmp_path / "zz_1.0.fcidump"
    full.write_text("&FCI NORB=3,NELEC=6,MS2=0,\n&END\n -1.0 1 1 0 0\n")
    out = tmp_path / "row.csv"
    assert run_cli("energy", "--fixture", str(full), "--out", str(out)) == EXIT_OK
    row = read_csv(out)[0]
    assert row["status"] == "ok"
    assert float(row["e2"]) == 0.0
    assert float(row["e_total"]) == -2.0


def test_warning_is_one_stderr_line(tmp_path, capsys):
    # no integrals: every orbital energy is 0, so every denominator is degenerate
    bare = tmp_path / "zz_1.0.fcidump"
    bare.write_text("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n")
    out = tmp_path / "row.csv"
    assert run_cli("energy", "--fixture", str(bare), "--out", str(out)) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    # zero two-electron integrals drop no group, so only the denominators warn
    assert len(err) == 1
    assert err[0].startswith("warning: degenerate excitation denominators")
    assert "cli.py" not in err[0]
    row = read_csv(out)[0]
    assert row["status"] == "ok"
    assert float(row["e_total"]) == 0.0


def test_curve_names_the_fixture_in_each_warning(tmp_path):
    for name in ("zz_1.0.fcidump", "zz_2.0.fcidump"):
        (tmp_path / name).write_text("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n")
    out = tmp_path / "rows.csv"
    code, stdout, stderr = _run_captured(
        ["curve", "--fixture-dir", str(tmp_path), "--jobs", "1", "--out", str(out)]
    )
    assert code == EXIT_OK and stdout == ""
    message = "degenerate excitation denominators; those doubles are skipped"
    assert stderr.splitlines() == [
        f"warning: zz_1.0.fcidump: {message}",
        f"warning: zz_2.0.fcidump: {message}",
    ]
    assert [row["status"] for row in read_csv(out)] == ["ok", "ok"]


def test_truncation_that_drops_every_two_body_group_warns(tmp_path):
    # tol 10 lies above every |eigenvalue| of the H2 supermatrix
    out = tmp_path / "row.csv"
    code, _, stderr = _run_captured(
        ["energy", "--fixture", H2_FIXTURE, "--tol", "10", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: truncation tol 10 drops"), stderr
    assert read_csv(out)[0]["status"] == "ok"


@pytest.mark.parametrize("fixture", [H2_FIXTURE, LIH_FIXTURE])
def test_default_truncation_is_silent(tmp_path, fixture):
    code, _, stderr = _run_captured(
        ["energy", "--fixture", fixture, "--out", str(tmp_path / "row.csv")]
    )
    assert code == EXIT_OK
    assert stderr == ""


def test_unknown_noise_preset(tmp_path, capsys):
    code = run_cli(
        "noise-study", "--fixture", H2_FIXTURE, "--noise", "bogus_device",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_USAGE
    assert "invalid choice: 'bogus_device'" in capsys.readouterr().err


def test_capacity_exit(tmp_path, capsys):
    big = tmp_path / "big_1.0.fcidump"
    big.write_text(CAP_FIXTURE_TEXT)
    assert run_cli("energy", "--fixture", str(big)) == EXIT_CAPACITY
    assert "cap" in capsys.readouterr().err


def test_oversized_header_is_capacity_exit(tmp_path):
    # NORB=100000 asks parse_fcidump for an 8e20-byte ERI array, which no host has
    big, out = tmp_path / "zz_1.0.fcidump", tmp_path / "row.csv"
    big.write_text("&FCI NORB=100000,NELEC=2,MS2=0,\n&END\n")
    code, stdout, stderr = _run_captured(["energy", "--fixture", str(big), "--out", str(out)])
    assert code == EXIT_CAPACITY
    assert stdout == ""
    _assert_clean_exit(code, stdout, stderr, out)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_integral_is_fixture_problem(tmp_path, capsys, bad):
    lines = fixture_path("h2_1.4.fcidump").read_text().splitlines()
    # the (1 1 0 0) one-electron record
    k = next(i for i, ln in enumerate(lines) if ln.split()[1:] == ["1", "1", "0", "0"])
    lines[k] = f" {bad}   1   1   0   0"
    broken = tmp_path / "h2_1.4.fcidump"
    broken.write_text("\n".join(lines) + "\n")
    out = tmp_path / "row.csv"
    assert run_cli("energy", "--fixture", str(broken), "--out", str(out)) == EXIT_FIXTURE
    err = capsys.readouterr().err
    assert "finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_energy_csv_matches_reference(tmp_path, refs):
    out = tmp_path / "row.csv"
    assert run_cli("energy", "--fixture", H2_FIXTURE, "--out", str(out)) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["molecule"] == "h2"
    assert row["status"] == "ok"
    assert row["shots"] == "0"
    pt = refs.molecules["h2"].point_at(1.4)
    assert float(row["e_omp2_ref"]) == pytest.approx(pt.e_omp2, abs=1e-9)
    assert float(row["e_total"]) == pytest.approx(pt.e_omp2, abs=1e-6)
    assert float(row["e_hf_ref"]) == pytest.approx(pt.e_hf, abs=1e-9)


def test_energy_json_shape(tmp_path):
    out = tmp_path / "row.json"
    assert run_cli(
        "energy", "--fixture", H2_FIXTURE, "--format", "json", "--out", str(out)
    ) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["e_total"] == pytest.approx(doc["rows"][0]["e0"] + doc["rows"][0]["e1"] + doc["rows"][0]["e2"], abs=1.0)


def test_energy_without_reference_runs(tmp_path):
    anon = tmp_path / "zz_9.9.fcidump"
    shutil.copy(H2_FIXTURE, anon)
    out = tmp_path / "row.csv"
    assert run_cli("energy", "--fixture", str(anon), "--out", str(out)) == EXIT_OK
    row = read_csv(out)[0]
    assert row["molecule"] == "zz"
    assert row["e_omp2_ref"] == ""
    assert row["status"] == "ok"


def test_curve_sorted_and_filtered(tmp_path, refs):
    fixtures = fixture_path("h2_1.4.fcidump").parent
    out = tmp_path / "curve.csv"
    code = run_cli(
        "curve", "--fixture-dir", str(fixtures), "--molecule", "h2", "--out", str(out)
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == len(refs.molecules["h2"].points)
    dists = [float(r["distance_bohr"]) for r in rows]
    assert dists == sorted(dists)
    assert {r["molecule"] for r in rows} == {"h2"}
    for r in rows:
        assert abs(float(r["e_total"]) - float(r["e_omp2_ref"])) < 1e-6


def test_curve_jobs_do_not_change_output(tmp_path):
    fixtures = fixture_path("h2_1.4.fcidump").parent
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("curve", "--fixture-dir", str(fixtures), "--molecule", "h2", "--jobs", "1", "--out", str(a))
    run_cli("curve", "--fixture-dir", str(fixtures), "--molecule", "h2", "--jobs", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_curve_empty_dir(tmp_path):
    assert run_cli("curve", "--fixture-dir", str(tmp_path)) == EXIT_FIXTURE


def test_curve_checks_every_fixture_before_any_work(tmp_path, monkeypatch, capsys):
    for name in ("h2_1.4.fcidump", "h2_1.6.fcidump"):
        shutil.copy(fixture_path(name), tmp_path / name)
    (tmp_path / "h2_9.9.fcidump").write_text("&FCI NORB=0,NELEC=2,MS2=0,\n&END\n")
    built = []
    estimator = cli.Estimator

    def counted(*args, **kwargs):
        built.append(args)
        return estimator(*args, **kwargs)

    monkeypatch.setattr(cli, "Estimator", counted)
    assert run_cli("curve", "--fixture-dir", str(tmp_path)) == EXIT_FIXTURE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert built == []


@pytest.mark.parametrize(
    "name,qubits,params,doubles,groups,circuits,depth_a,depth_b",
    [
        ("h2_1.4.fcidump", 4, 1, 1, 4, 12, 24, 41),
        ("h3p_1.4.fcidump", 6, 2, 6, 7, 91, 36, 55),
        ("lih_3.1.fcidump", 6, 2, 6, 7, 91, 36, 55),
        ("h4_1.8.fcidump", 8, 4, 36, 11, 803, 48, 69),
    ],
)
def test_resources_table(tmp_path, name, qubits, params, doubles, groups, circuits, depth_a, depth_b):
    out = tmp_path / "res.json"
    code = run_cli(
        "resources", "--fixture", str(fixture_path(name)), "--format", "json",
        "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n_qubits"] == qubits
    assert doc["n_parameters"] == params
    assert doc["n_doubles"] == doubles
    assert doc["n_groups"] == groups
    assert doc["circuits_per_evaluation"] == circuits
    assert doc["reference_depth"] == depth_a
    assert doc["residual_depth_max"] == depth_b


def test_noise_study_rows(tmp_path):
    out = tmp_path / "noise.csv"
    code = run_cli(
        "noise-study", "--fixture", H2_FIXTURE, "--shots", "400",
        "--trajectories", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [r["postselected"] for r in rows] == ["false", "true"]
    # noiseless: postselection keeps every shot
    assert float(rows[1]["kept_fraction_mean"]) == 1.0


def test_noise_study_does_its_work_once(tmp_path, monkeypatch):
    calls = {"parse_fcidump": 0, "Estimator": 0, "trajectory_fidelity": 0}

    def count(name):
        fn = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    for name in calls:
        count(name)
    argv = ("noise-study", "--fixture", H2_FIXTURE, "--noise", "ibm_lima",
            "--shots", "200", "--trajectories", "2")
    assert run_cli(*argv, "--out", str(tmp_path / "a.csv")) == EXIT_OK
    # CSV has no fidelity block, so no fidelity trajectories run
    assert calls == {"parse_fcidump": 1, "Estimator": 1, "trajectory_fidelity": 0}
    assert run_cli(*argv, "--format", "json", "--out", str(tmp_path / "a.json")) == EXIT_OK
    # one estimator gives both rows, one fidelity pass both fidelity blocks
    assert calls == {"parse_fcidump": 2, "Estimator": 2, "trajectory_fidelity": 1}


def test_all_shots_rejected_is_no_estimate(capsys):
    # one Pauli flip can move a whole trajectory out of the n_e sector
    code = run_cli(
        "noise-study", "--fixture", H2_FIXTURE, "--noise", "ionq_harmony",
        "--shots", "1000", "--trajectories", "3", "--seed", "13",
    )
    out, err = capsys.readouterr()
    assert code == EXIT_CONVERGENCE
    assert "Traceback" not in err
    assert "nan" not in out
    assert err.startswith("error: postselection rejected all") and err.count("\n") == 1


def test_noise_study_preset_json(tmp_path):
    out = tmp_path / "noise.json"
    code = run_cli(
        "noise-study", "--fixture", H2_FIXTURE, "--noise", "ibm_lima",
        "--shots", "200", "--trajectories", "10", "--format", "json", "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    ps_row = doc["rows"][1]
    assert ps_row["postselected"] is True
    assert 0.0 < ps_row["kept_fraction_mean"] < 1.0
    fid = doc["fidelity"]
    assert fid["n_trajectories"] == 10
    assert 0.0 < fid["postselected"]["fidelity"] <= 1.0
    assert fid["postselected"]["kept_fraction_mean"] < 1.0
    assert fid["postselected"]["fidelity"] >= fid["raw"]["fidelity"]


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("noise-study", "--fixture", H2_FIXTURE, "--noise", "ibm_lima",
            "--shots", "300", "--trajectories", "2")
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def _fresh_env(**overrides):
    """A child's environment: this omp2sim on its path, OPENBLAS_NUM_THREADS as given."""
    src = str(Path(omp2sim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    return {**env, **overrides}


def test_import_leaves_the_optimizer_unloaded(tmp_path):
    # exact mode runs on numpy alone: its exponentials are closed form and its
    # optimizer is in the package; only shots mode imports scipy, itself
    shutil.copyfile(H2_FIXTURE, tmp_path / "h2_1.4.fcidump")
    env = _fresh_env()
    code = f"""
import contextlib, io, sys
import omp2sim.cli
from omp2sim import Estimator, ThetaParams, parse_fcidump
from omp2sim.oracle import fixture_path

est = Estimator(parse_fcidump(fixture_path("lih_3.1.fcidump")))
est.mp2_energy(ThetaParams.zeros(est.n_qubits, est.n_electrons))
with contextlib.redirect_stdout(io.StringIO()):
    assert omp2sim.cli.main(["curve", "--fixture-dir", {str(tmp_path)!r}, "--jobs", "1"]) == 0
    assert omp2sim.cli.main(["energy", "--fixture", {H2_FIXTURE!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy") or m == "numpy.ma"))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # nor does it load numpy.ma, which np.unique imports and which costs
    # tens of milliseconds on a cold start
    assert done.stdout.strip() == "[]"


_BLAS_TASKS = """
import json, os, sys
import omp2sim
import numpy as np
from omp2sim import Estimator, EstimatorConfig, parse_fcidump
from omp2sim.oracle import fixture_path

def tasks():
    return len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None

a = np.ones((500, 500))
a @ a
np.linalg.det(np.ones((64, 4, 4)) + np.eye(4))
imported = tasks()
# shots mode imports scipy.optimize, which loads scipy's own OpenBLAS
cfg = EstimatorConfig(mode="shots", shots=100)
Estimator(parse_fcidump(fixture_path("h2_1.4.fcidump")), cfg).optimize(maxiter=2)
assert "scipy.optimize" in sys.modules
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), imported, tasks()]))
"""


@pytest.mark.parametrize("found", [None, "2"])
def test_import_loads_blas_on_one_thread_unless_told(found):
    env = _fresh_env(**({} if found is None else {"OPENBLAS_NUM_THREADS": found}))
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_TASKS], env=env, capture_output=True, text=True, check=True
    )
    seen, imported, optimized = json.loads(done.stdout)
    # the caller's environment comes back as it was, a set value untouched
    assert seen == found
    if imported is None:
        pytest.skip("thread count read from /proc/self/task on Linux only")
    # OpenBLAS starts no more threads than the process has cores; numpy's
    # and scipy's libraries each add their workers to the main thread
    workers = 0 if found is None else min(2, len(os.sched_getaffinity(0))) - 1
    assert (imported, optimized) == (1 + workers, 1 + 2 * workers)


def test_output_does_not_depend_on_blas_threads(tmp_path):
    for name in ("h2_1.4.fcidump", "h4_2.6.fcidump"):
        shutil.copyfile(fixture_path(name), tmp_path / name)
    commands = (
        ("curve", "--fixture-dir", str(tmp_path), "--jobs", "1"),
        ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--shots", "5000", "--seed", "7"),
    )
    for argv in commands:
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "omp2sim.cli", *argv],
                env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert len(outputs) == 1 and b"" not in outputs, argv


def test_seed_changes_shot_noise(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    base = ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--shots", "500")
    run_cli(*base, "--seed", "1", "--out", str(a))
    run_cli(*base, "--seed", "2", "--out", str(b))
    run_cli(*base, "--seed", "1", "--out", str(c))
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("energy_shots_seed7.csv",
         ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--shots", "5000",
          "--seed", "7")),
        ("energy_postselect_seed3.json",
         ("energy", "--fixture", H2_FIXTURE, "--mode", "shots", "--shots", "2000",
          "--seed", "3", "--postselect", "--format", "json")),
        ("noise_study_h2_auckland_seed5.json",
         ("noise-study", "--fixture", H2_FIXTURE, "--noise", "ibm_auckland",
          "--shots", "2000", "--trajectories", "8", "--seed", "5", "--format", "json")),
        ("noise_study_lih_lima_seed9.json",
         ("noise-study", "--fixture", LIH_FIXTURE, "--noise", "ibm_lima",
          "--shots", "4000", "--trajectories", "4", "--seed", "9", "--format", "json")),
        # H4 is the only curve with rows of three or more electrons
        ("curve_h4_exact.csv",
         ("curve", "--fixture-dir", str(Path(H2_FIXTURE).parent), "--molecule", "h4",
          "--jobs", "1")),
        # every packaged fixture: the exact path over all molecules and spaces
        ("curve_all_exact.csv",
         ("curve", "--fixture-dir", str(Path(H2_FIXTURE).parent), "--jobs", "1")),
    ],
)
def test_seeded_output_matches_golden(tmp_path, golden, argv):
    out = tmp_path / golden
    assert run_cli(*argv, "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_unseeded_noise_run_uses_env_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("noise-study", "--fixture", H2_FIXTURE, "--noise", "ibm_lima",
            "--shots", "300", "--trajectories", "2")
    monkeypatch.setenv("OMP2SIM_SEED", "5")
    run_cli(*base, "--out", str(a))
    monkeypatch.delenv("OMP2SIM_SEED")
    run_cli(*base, "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def _run_captured(argv):
    """main(argv) with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, stdout, stderr, out_path):
    assert "Traceback" not in stderr
    assert "nan" not in stdout + (out_path.read_text() if out_path.exists() else "")
    if code not in (EXIT_OK, EXIT_CONVERGENCE):
        # argparse prints its usage block above its one error line
        lines = [ln for ln in stderr.splitlines() if not ln.startswith(("usage:", " "))]
        assert len(lines) == 1 and "error: " in lines[0], stderr
        assert not out_path.exists()


_RECORD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1.0d0", "x"]),
)


@st.composite
def fcidump_bytes(draw):
    """An FCIDUMP; half are well formed, the rest arbitrary and sometimes not UTF-8."""
    if draw(st.booleans()):
        norb = draw(st.integers(1, 3))
        lines = [f"&FCI NORB={norb},NELEC={2 * draw(st.integers(1, norb))},MS2=0,", "&END"]
        for _ in range(draw(st.integers(0, 8))):
            idx = draw(st.lists(st.integers(1, norb), min_size=4, max_size=4))
            if draw(st.booleans()):
                idx[2:] = [0, 0]  # one-electron record
            lines.append(" ".join([repr(draw(st.floats(-1e4, 1e4))), *map(str, idx)]))
        return ("\n".join(lines) + "\n").encode()
    norb = draw(st.integers(-1, 3))
    nelec = draw(st.integers(-2, 8))
    lines = [f"&FCI NORB={norb},NELEC={nelec},MS2={draw(st.sampled_from([0, 1]))},", "&END"]
    for _ in range(draw(st.integers(0, 8))):
        n_idx = draw(st.integers(3, 5))
        idx = draw(st.lists(st.integers(0, max(norb + 1, 0)), min_size=n_idx, max_size=n_idx))
        lines.append(" ".join([draw(_RECORD_VALUES), *map(str, idx)]))
    data = ("\n".join(lines) + "\n").encode()
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.sampled_from([b"", b"\xff", b"\xc3("])) + data[cut:]


@settings(max_examples=40, deadline=None)
@given(
    data=fcidump_bytes(),
    name=st.sampled_from(["zz_1.0.fcidump", "h2_1.4.fcidump", "lih_3.1.fcidump"]),
)
def test_generated_fixtures_exit_cleanly(data, name):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "row.csv"
        path.write_bytes(data)
        code, stdout, stderr = _run_captured(["energy", "--fixture", str(path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_FIXTURE, EXIT_CONVERGENCE)
        _assert_clean_exit(code, stdout, stderr, out)


_VALID_FLAGS = (
    ("--shots", "300"), ("--seed", "0"), ("--seed", "7"), ("--tol", "1e-8"), ("--jobs", "2"),
    ("--trajectories", "2"), ("--noise", "ibm_lima"), ("--format", "json"), ("--format", "csv"),
)
_INVALID_FLAGS = (
    ("--shots", "0"), ("--shots", "-3"), ("--shots", "1.5"), ("--seed", "-1"), ("--seed", "x"),
    ("--tol", "0"), ("--tol", "-1e-9"), ("--tol", "nan"), ("--tol", "inf"), ("--jobs", "0"),
    ("--jobs", "x"), ("--trajectories", "0"), ("--noise", "bogus"), ("--format", "yaml"),
)
# valid only in shots mode, which noise-study always runs in
_SHOTS_ONLY = (("--postselect",), ("--noise", "ionq_harmony"))


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["energy", "curve", "resources", "noise-study"]),
    valid=st.lists(st.sampled_from(_VALID_FLAGS), max_size=3),
    invalid=st.sampled_from(_INVALID_FLAGS + _SHOTS_ONLY),
)
def test_invalid_flags_exit_cleanly(command, valid, invalid):
    assume(not (command == "noise-study" and invalid in _SHOTS_ONLY))
    if command == "curve":
        target = ["--fixture-dir", str(Path(H2_FIXTURE).parent), "--molecule", "h2"]
    else:
        target = ["--fixture", H2_FIXTURE]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "row.csv"
        argv = [command, *target, *(t for flag in valid + [invalid] for t in flag)]
        code, stdout, stderr = _run_captured([*argv, "--out", str(out)])
        assert code == EXIT_USAGE, argv
        assert stdout == ""
        _assert_clean_exit(code, stdout, stderr, out)
