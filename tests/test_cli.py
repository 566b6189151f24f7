"""End-to-end checks for the command-line harness."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gcsov
import gcsov.gaudin as gaudin
from gcsov.cli import CliInputError, default_model, load_model, main
from gcsov.gaudin import DimensionCapError, NOME_FLOOR, make_model, mu_residuals


def write_model(tmp_path, payload, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


SPIN_HALF_PAIR = {"z": [0.0, 1.0], "lambda": [-0.5, -0.5]}


# ------------------------------------------------------------- model loading


def test_load_model_round_trips_complex_pairs(tmp_path):
    path = write_model(tmp_path, {
        "z": [[1.0, 0.0], [1.0, 0.5]],
        "lambda": [-0.5, [-0.5, 0.0]],
        "q": [0.05, 0.01],
        "mu0": [0.3, 0.1],
    })
    m = load_model(path)
    assert m.z[1] == 1.0 + 0.5j
    assert m.lam == (-0.5, -0.5)
    assert m.is_elliptic and m.elliptic.q == 0.05 + 0.01j
    assert m.elliptic.mu0 == 0.3 + 0.1j


def test_load_model_names_the_violated_constraint(tmp_path):
    # mu breaks only the sum rule (the perturbed site sits at z = 0)
    path = write_model(tmp_path, {
        "z": [0.0, 1.0, 2.5],
        "lambda": [-0.5, -0.5, -1.0],
        "mu": [0.7, 11.0 / 3.0, -64.0 / 15.0],
    })
    with pytest.raises(CliInputError) as err:
        load_model(path)
    msg = str(err.value)
    assert "mu_sum_rule" in msg
    assert "1.000e-01" in msg  # by how much


def test_load_model_rejects_garbage(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json at all")
    with pytest.raises(CliInputError):
        load_model(str(p))
    with pytest.raises(CliInputError):
        load_model(str(tmp_path / "missing.json"))
    with pytest.raises(CliInputError):
        load_model(write_model(tmp_path, {"z": [0.0, 1.0]}))  # no lambda
    with pytest.raises(CliInputError):
        load_model(write_model(tmp_path, {"z": [[0, 1, 2]], "lambda": [0]}))


def test_default_models_are_admissible():
    m = default_model("rational")
    assert m.N == 3 and m.mu is not None
    assert np.abs(mu_residuals(m.mu, m.z, m.lam)).max() < 1e-12
    e = default_model("elliptic")
    assert e.is_elliptic and abs(sum(e.mu)) < 1e-12


# ----------------------------------------------------------------- exit codes


def test_exit_code_three_for_bad_flags(capsys):
    assert main(["no-such-subcommand"]) == 3
    assert main(["spectrum", "--tol", "-1"]) == 3
    assert main(["spectrum", "--case", "elliptic"]) == 3
    assert main(["match", "--case", "elliptic"]) == 3
    assert main(["spectrum", "--trunc", "5"]) == 3  # theta-eval only
    capsys.readouterr()


def test_exit_code_three_for_inadmissible_model(tmp_path, capsys):
    path = write_model(tmp_path, {
        "z": [0.0, 1.0, 2.5],
        "lambda": [-0.5, -0.5, -1.0],
        "mu": [1.0, 1.0, 1.0],
    })
    assert main(["identity-suite", "--model", path]) == 3
    err = capsys.readouterr().err
    assert "mu_" in err and "residual" in err

    # q = 0 is no elliptic curve: the nome must satisfy 0 < |q| < 1
    path = write_model(tmp_path, {"z": [1.0, [0.5, 0.9]], "lambda": [-0.5, -0.5],
                                  "q": 0.0}, name="q0.json")
    for sub in ("sov-check", "identity-suite"):
        assert main([sub, "--case", "elliptic", "--model", path]) == 3
        assert "bad_nome" in capsys.readouterr().err


def test_nome_floor(tmp_path, capsys):
    # below the floor q^2 underflows in the lattice-distance guard, which used
    # to escape as a math domain error; just above it every run ends in a
    # documented exit code
    subs = ["theta-eval", "spectrum", "match", "sov-check --case elliptic",
            "identity-suite --case elliptic", "bethe --case elliptic --seeds 4"]
    for q, codes in ((1e-300, {3}), (0.99 * NOME_FLOOR, {3}),
                     (1.01 * NOME_FLOOR, {0, 2, 3, 4})):
        path = write_model(tmp_path, {"z": [1, [0.5, 0.5]], "lambda": [1, 1], "q": q})
        for sub in subs:
            code = main(sub.split() + ["--trials", "1", "--model", path])
            err = capsys.readouterr().err
            assert code in codes, (q, sub, err)
            assert ("bad_nome" in err) == (q < NOME_FLOOR), (q, sub, err)
            if q > NOME_FLOOR and sub == "theta-eval":
                assert code == 0, err


def test_dimension_cap_fires_before_any_dense_matrix(tmp_path, capsys, monkeypatch):
    # two spin-16 sites: d = 65^2 = 4225 > DIM_CAP, so identity-suite must exit
    # 4 like spectrum, without building a d x d matrix first
    def no_dense(*args):
        raise AssertionError("dense matrix built past the dimension cap")

    monkeypatch.setattr(gaudin, "_pair_omega", no_dense)
    monkeypatch.setattr(gaudin, "_embed", no_dense)
    payload = {"z": [0, 1], "lambda": [-32, -32]}
    path = write_model(tmp_path, payload)
    for sub in ("identity-suite", "spectrum"):
        assert main([sub, "--trials", "1", "--model", path]) == 4, sub
        assert "tensor dimension 4225 exceeds cap 4096" in capsys.readouterr().err
    m = make_model(payload["z"], payload["lambda"])
    for build in (gaudin.rational_hamiltonians, gaudin.site_matrices):
        with pytest.raises(DimensionCapError):
            build(m)


def test_theta_eval_passes_at_small_nomes(tmp_path):
    # theta(z)/z reaches about 1/|q| on the sampled annulus, so the
    # quasi-periodicity and inversion residuals are relative to it; absolute
    # ones would fail working code from |q| = 1e-12 down to the floor
    for q in (1e-12, 1e-20, 1e-100, 1.01 * NOME_FLOOR):
        path = write_model(tmp_path, {"z": [1, [0.5, 0.5]], "lambda": [1, 1], "q": q})
        out = tmp_path / "theta.json"
        assert main(["theta-eval", "--model", path, "--out", str(out)]) == 0, q
        doc = json.loads(out.read_text())
        assert all(float(r["max_residual"]) < 1e-13 for r in doc["records"][:2]), q


def test_twist_k_other_than_zero_is_rejected(tmp_path, capsys):
    # k would enter only the direct h(z), which no subcommand runs, so every
    # report would ignore it
    subs = ["theta-eval", "spectrum", "match", "sov-check --case elliptic",
            "identity-suite --case elliptic", "bethe --case elliptic"]
    base = {"z": [1, [0.5, 0.5]], "lambda": [1, 1], "q": 0.1}
    for k in (1, -2):
        path = write_model(tmp_path, dict(base, k=k))
        for sub in subs:
            assert main(sub.split() + ["--trials", "1", "--model", path]) == 3, (k, sub)
            assert "k: only k = 0 is supported" in capsys.readouterr().err, (k, sub)
    for extra in ({}, {"k": 0}, {"k": 0.0}):
        m = load_model(write_model(tmp_path, dict(base, **extra)))
        assert m.is_elliptic and m.elliptic.q == 0.1


def test_exit_code_three_for_non_finite_model_values(tmp_path, capsys):
    # json.load reads NaN and Infinity; each must be rejected by name, not
    # reach a solver (a traceback) or a sum rule (abs(NaN) > tol is False)
    cases = [
        ('{"z": [0, 1, NaN], "lambda": [-0.5, -0.5, -1]}', "z[2]",
         ["spectrum", "match", "identity-suite"]),
        ('{"z": [1, [0.5, 0.5]], "lambda": [1, NaN], "q": 0.1}', "lambda[1]",
         ["bethe --case elliptic"]),
        ('{"z": [0, 1, 2], "lambda": [-0.5, -0.5, -1], "mu": [NaN, 0, 0]}', "mu[0]",
         ["spectrum", "match", "identity-suite", "sov-check"]),
        ('{"z": [0, 1, Infinity], "lambda": [-0.5, -0.5, -1]}', "z[2]", ["spectrum"]),
        ('{"z": [1, [0.5, 0.5]], "lambda": [1, 1], "q": [0.1, NaN]}', "q",
         ["bethe --case elliptic"]),
        ('{"z": [1, [0.5, 0.5]], "lambda": [-0.5, -0.5], "q": 0.1, "mu0": -Infinity}',
         "mu0", ["sov-check --case elliptic"]),
    ]
    for k, (text, entry, subs) in enumerate(cases):
        path = tmp_path / f"nf{k}.json"
        path.write_text(text)
        for sub in subs:
            assert main(sub.split() + ["--model", str(path)]) == 3, (text, sub)
            err = capsys.readouterr().err
            assert "non_finite" in err and entry in err, err
    # k is an integer shift; NaN used to escape as a traceback from int()
    path = write_model(tmp_path, {"z": [1, [0.5, 0.5]], "lambda": [1, 1], "q": 0.1,
                                  "k": 0.5}, name="k.json")
    assert main(["bethe", "--case", "elliptic", "--model", path]) == 3
    (tmp_path / "k.json").write_text('{"z": [1, [0.5, 0.5]], "lambda": [1, 1], '
                                     '"q": 0.1, "k": NaN}')
    assert main(["bethe", "--case", "elliptic", "--model", path]) == 3
    assert "k: expected an integer" in capsys.readouterr().err


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; scipy stays a test extra
    code = ("import sys, gcsov.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gcsov.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_exit_code_two_when_an_identity_fails(tmp_path, capsys):
    # an absurd tolerance forces every residual over the line
    out = tmp_path / "r.json"
    code = main(["theta-eval", "--trials", "5", "--tol", "1e-30",
                 "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    capsys.readouterr()


# ------------------------------------------------------------------ reports


def test_theta_eval_report_layout(tmp_path):
    out = tmp_path / "theta.json"
    assert main(["theta-eval", "--trials", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    labels = [r["label"] for r in doc["records"]]
    assert labels == ["theta-quasi-periodicity", "theta-inversion",
                      "theta-qzero-degeneration", "wp-pole-behavior",
                      "kernel-product-law"]
    for r in doc["records"]:
        assert r["passed"] is True
        # 17 significant digits, lowercase scientific
        assert "e" in r["max_residual"] and "E" not in r["max_residual"]
        mant = r["max_residual"].split("e")[0].replace("-", "").replace(".", "")
        assert len(mant) == 17
        assert r["anchor"]
    assert doc["all_passed"] is True


def test_theta_eval_passes_at_large_nome(tmp_path):
    # the wp double-pole check must account for the Laurent constant c0(q)
    path = write_model(tmp_path, {"z": [1.0, [0.5, 0.9]], "lambda": [-0.5, -0.5],
                                  "q": 0.6})
    out = tmp_path / "theta.json"
    assert main(["theta-eval", "--model", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(r["passed"] for r in doc["records"])


def test_spectrum_csv_contains_the_singlet_row(tmp_path):
    import csv

    path = write_model(tmp_path, SPIN_HALF_PAIR)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--model", path, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sector", "mu_1", "mu_2", "residual"]
    assert len(rows) == 2
    sector, mu1, mu2, resid = rows[1]
    assert sector == "singlet,weight=0"
    assert abs(complex(mu1) - 3.0) < 1e-8
    assert abs(complex(mu2) + 3.0) < 1e-8
    assert float(resid) < 1e-8


def test_identity_suite_rational_all_pass(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["identity-suite", "--trials", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    labels = {r["label"] for r in doc["records"]}
    assert "pairwise-commutators" in labels
    assert "singlet-tuple-constraints" in labels
    assert "rational-d-separated-form" in labels
    assert "rational-chart-roundtrip" in labels
    assert doc["all_passed"] is True


def test_gauge_control_fires_on_all_spin_one_models(tmp_path):
    # every lam = -1 makes the gauge A = sum (lam+1)/(w-z) vanish, so the
    # control plants the off-by-one gauge sum lam/(w-z) instead of a sign flip
    path = write_model(tmp_path, {"z": [0, 1, 2.5], "lambda": [-1, -1, -1]})
    out = tmp_path / "suite.json"
    assert main(["identity-suite", "--model", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ctrl = [r for r in doc["records"] if r["label"] == "rational-control-gauge-sign"]
    assert len(ctrl) == 1 and ctrl[0]["passed"] and ctrl[0]["expect_failure"]
    assert float(ctrl[0]["max_residual"]) >= float(ctrl[0]["tol"]) == 1e4 * 1e-8
    assert doc["all_passed"] is True


def test_elliptic_locus_sampler_keeps_quadrature_in_the_root_basins(tmp_path):
    # at this seed the sampler used to accept a locus point whose tracked
    # roots move by ~17% of their separation over a 1e-2 Cauchy circle, and
    # identities (a) and (d) lost accuracy (4e-6 and 6e-5 against 1e-8)
    path = write_model(tmp_path, {
        "z": [1, [-0.9314, 0.1198]], "lambda": [1.5, 1.0], "q": [-0.04422, 0.02334],
        "mu": [[-0.13505, 0.25683], [0.13505, -0.25683]], "mu0": [0.37726, -0.58587],
    })
    out = tmp_path / "ell.json"
    for sub in ("sov-check", "identity-suite"):
        assert main([sub, "--case", "elliptic", "--model", path, "--trials", "1",
                     "--seed", "31549847", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_passed"] is True


def test_sov_check_elliptic_smoke(tmp_path):
    out = tmp_path / "ell.json"
    assert main(["sov-check", "--case", "elliptic", "--trials", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    labels = {r["label"] for r in doc["records"]}
    assert "elliptic-d-separated-form" in labels
    assert doc["all_passed"] is True


def test_bethe_subcommand_reports_solutions(tmp_path):
    out = tmp_path / "bethe.json"
    assert main(["bethe", "--roots", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["solutions"]) == 4  # all exponent patterns, no roots
    assert all(r["passed"] for r in doc["records"])
    assert all(s["roots"] == [] for s in doc["solutions"])


def test_bethe_without_solutions_exits_two(tmp_path):
    # no restart converges for this one-root elliptic model at this seed
    path = write_model(tmp_path, {
        "z": [[1, 0], [0.4358240865605955, -1.1127941027459651],
              [-0.8764349791771544, -0.1340118163067794]],
        "lambda": [1.0, -0.5, 0.5],
        "q": [-0.05330321509111078, -0.03060044874097354],
    })
    out = tmp_path / "bethe.json"
    for argv, case in ((["--case", "elliptic", "--model", path, "--seed", "277866"], "elliptic"),
                       (["--roots", "2", "--seeds", "1"], "rational")):
        assert main(["bethe", *argv, "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["solutions"] == [] and doc["all_passed"] is False
        assert [r["label"] for r in doc["records"]] == [f"bethe-{case}-no-solution"]


def test_match_bijects_on_the_default_model(tmp_path):
    out = tmp_path / "match.json"
    assert main(["match", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["unmatched_bethe"] == [] and doc["unmatched_spectrum"] == []
    assert len(doc["pairs"]) >= 1
    bij = [r for r in doc["records"] if r["label"] == "bethe-spectrum-bijection"]
    assert bij and bij[0]["passed"]


# --------------------------------------------------------------- determinism


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["identity-suite", "--trials", "4", "--seed", "11",
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    model = write_model(tmp_path, SPIN_HALF_PAIR)
    for target in (c, d):
        assert main(["spectrum", "--model", model, "--out", str(target)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_different_seeds_change_the_samples_not_the_verdict(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sov-check", "--trials", "3", "--seed", "1", "--out", str(a)]) == 0
    assert main(["sov-check", "--trials", "3", "--seed", "2", "--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["all_passed"] and db["all_passed"]
    assert a.read_bytes() != b.read_bytes()
