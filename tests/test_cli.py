"""Command-line front-end: artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirapprox
from dirapprox.cli import _THREAD_VARS, main
from dirapprox.laurent import rational_from_json_dict
from dirapprox.series import DirichletPolynomial, evaluate, seminorm_sigma


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


TWO_POW = {"coefficients": [[0, 0], [1, 0]]}  # 2^{-s}
DISC_EXP = {
    "set": {"kind": "disc", "center": [-1, 0], "radius": 0.5},
    "target": {"kind": "named", "name": "exp"},
}
ANNULUS = {"kind": "annulus", "center": [0, 0], "r_inner": 1, "r_outer": 2}
BUDGET_FIT = {  # fit-constrained input: a constant target on a left-half-plane rectangle
    "set": {"kind": "rectangle", "corner_lo": [-2, -1], "corner_hi": [-0.5, 1]},
    "target": {"kind": "named", "name": "constant", "constant": [1, 0]},
    "base": [[0, 0], [1, 0]],
}


class TestEval:
    def test_prints_half_for_two_power_at_one(self, tmp_path, capsys):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        assert main(["eval", "--input", src]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_complex_points_and_output_file(self, tmp_path, capsys):
        pts = [[0.5, 1.0], [2.0, -3.0]]
        src = write(tmp_path / "p.json", {**TWO_POW, "points": pts})
        out = tmp_path / "vals.json"
        assert main(["eval", "--input", src, "--output", str(out)]) == 0
        vals = json.loads(out.read_text())["values"]
        p = DirichletPolynomial.from_pairs(TWO_POW["coefficients"])
        for (re, im), (pre, pim) in zip(pts, vals):
            v = evaluate(p, complex(re, im))
            assert abs(complex(pre, pim) - v) <= 1e-15

    def test_eval_consumes_fit_artifact(self, tmp_path, capsys):
        src = write(tmp_path / "in.json", DISC_EXP)
        fit_out = tmp_path / "fit.json"
        assert main(
            ["fit", "--input", src, "--degree", "8", "--density", "0.03",
             "--output", str(fit_out)]
        ) == 0
        merged = json.loads(fit_out.read_text())
        merged["points"] = [[-1.0, 0.0]]
        src2 = write(tmp_path / "fitted.json", merged)
        assert main(["eval", "--input", src2]) == 0
        value = complex(float(capsys.readouterr().out.split("\n")[-2].split("+")[0]), 0)
        assert abs(value.real - math.exp(-1)) <= 1e-2


class TestPolynomialCommands:
    def test_shift_then_eval_matches_translated_point(self, tmp_path, capsys):
        src = write(tmp_path / "p.json", TWO_POW)
        shifted = tmp_path / "q.json"
        assert main(["shift", "--input", src, "--sigma", "0.5", "--output", str(shifted)]) == 0
        merged = json.loads(shifted.read_text())
        merged["points"] = [[0.5, 0]]
        assert main(["eval", "--input", write(tmp_path / "q2.json", merged)]) == 0
        printed = float(capsys.readouterr().out.strip().split("\n")[-1])
        assert printed == pytest.approx(0.5, abs=1e-12)

    def test_seminorm_prints_the_module_value(self, tmp_path, capsys):
        coeffs = [[1, 0], [0.5, 0.5], [0, -2]]
        src = write(tmp_path / "p.json", {"coefficients": coeffs})
        assert main(["seminorm", "--input", src, "--sigma", "0.7"]) == 0
        p = DirichletPolynomial.from_pairs(coeffs)
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            seminorm_sigma(p, 0.7), abs=1e-16
        )

    def test_supnorm_artifact_brackets_the_value(self, tmp_path, capsys):
        src = write(tmp_path / "p.json", TWO_POW)
        out = tmp_path / "sup.json"
        assert main(["supnorm", "--input", src, "--sigma", "0", "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["value"] <= rep["upper_bound"]
        assert rep["value"] == pytest.approx(1.0, abs=1e-6)

    def test_supnorm_rerun_is_byte_identical(self, tmp_path):
        src = write(
            tmp_path / "p.json",
            {"coefficients": [[1, 0], [0.5, -0.25], [0, 1]], "plan": {"edge_points": 20000}},
        )
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["supnorm", "--input", src, "--sigma", "0.25", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        assert sorted(rep) == ["sigma0", "upper_bound", "value"]
        p = DirichletPolynomial.from_pairs([[1, 0], [0.5, -0.25], [0, 1]])
        assert rep["upper_bound"] == seminorm_sigma(p, 0.25)

    def test_supnorm_rejects_unknown_plan_keys(self, tmp_path, capsys):
        src = write(tmp_path / "p.json", {**TWO_POW, "plan": {"sigma_steps": 10}})
        assert main(["supnorm", "--input", src]) == 2
        captured = capsys.readouterr()
        assert "sigma_steps" in captured.err
        assert captured.out == ""


class TestAbscissa:
    def test_all_ones_rule_lands_near_one(self, tmp_path):
        src = write(tmp_path / "r.json", {"rule": {"kind": "all-ones"}, "truncation": 20000})
        out = tmp_path / "a.json"
        assert main(["abscissa", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert abs(rep["sigma_c_estimate"] - 1.0) <= 0.1
        assert rep["ordering_holds"] is True

    def test_explicit_list_rule_reports_sentinels(self, tmp_path):
        src = write(
            tmp_path / "r.json",
            {"rule": {"kind": "explicit-list", "coefficients": [[1, 0], [2, 0]]}},
        )
        out = tmp_path / "a.json"
        assert main(["abscissa", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["sigma_c_estimate"] == "neg_inf"

    def test_unknown_rule_kind_is_invalid_input(self, tmp_path):
        src = write(tmp_path / "r.json", {"rule": {"kind": "named-custom"}})
        assert main(["abscissa", "--input", src]) == 2


class TestBohr:
    def test_lift_artifact_matches_nonzero_terms(self, tmp_path):
        coeffs = [[1, 0], [0.5, 0], [0.25, 0], [0, 0], [0.1, 0], [0.05, 0]]
        src = write(tmp_path / "p.json", {"coefficients": coeffs})
        out = tmp_path / "lift.json"
        assert main(["bohr-lift", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["variable_count"] == 3  # primes 2, 3, 5
        assert len(rep["terms"]) == 5
        assert {tuple(t["exponents"]) for t in rep["terms"]} == {
            (), (1,), (0, 1), (0, 0, 1), (1, 1),
        }

    def test_gap_check_passes_for_single_prime(self, tmp_path):
        src = write(tmp_path / "p.json", TWO_POW)
        out = tmp_path / "gap.json"
        assert main(["bohr-check", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["within_tolerance"] is True
        assert rep["relative_gap"] <= 0.02

    def test_gap_check_exit_3_when_tolerance_unreachable(self, tmp_path):
        # with eight primes the witness's real point reproduces the torus
        # point only to ~1e-3 in each angle, so the two sides agree to
        # ~1e-7 but never to 1e-14 (with one or two primes they can agree
        # to the last bit)
        coeffs = [[1, 0], [0.8, 0.2], [0.5, -0.4]] + [[0.3, 0.1]] * 16  # N = 19
        src = write(tmp_path / "p.json", {"coefficients": coeffs})
        assert main(["bohr-check", "--input", src, "--tol", "1e-14"]) == 3

    def test_gap_check_takes_a_seed(self, tmp_path):
        src = write(tmp_path / "p.json", TWO_POW)
        assert main(["bohr-check", "--input", src, "--seed", "7"]) == 0

    def test_gap_check_reruns_byte_identically_and_the_seed_only_moves_the_torus(self, tmp_path):
        from dirapprox.bohr import PolydiscPlan, bohr_gap_report

        def run(coeffs, seed, name):
            src = write(tmp_path / f"{name}.in.json", {"coefficients": coeffs})
            out = tmp_path / f"{name}.json"
            assert main(["bohr-check", "--input", src, "--seed", str(seed), "--output", str(out)]) == 0
            return out.read_bytes()

        k3 = [[1, 0], [0.8, 0.2], [0.5, -0.4], [0.2, 0.3], [-0.4, 0.1]]
        for coeffs in (k3, k3 + [[0, -0.3], [0.25, 0]]):  # k = 3, 4
            p = DirichletPolynomial.from_pairs(coeffs)
            assert run(coeffs, 7, "a") == run(coeffs, 7, "b")
            for seed in (0, 7):
                rep = json.loads(run(coeffs, seed, f"s{seed}"))
                assert set(rep) == {"halfplane_value", "polydisc_value", "relative_gap", "tolerance",
                                    "within_tolerance", "witness_t"}
                want = bohr_gap_report(p, polydisc_plan=PolydiscPlan(seed=seed))
                assert (rep["polydisc_value"], rep["halfplane_value"], rep["witness_t"]) == (
                    want.polydisc_value, want.halfplane_value, want.witness_t)

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--tol", "-1"], ["--tol", "nan"]])
    def test_gap_check_bad_flags_exit_2_before_any_sampling(self, tmp_path, capsys, monkeypatch, flags):
        forbid_torus_sampling(monkeypatch)
        src = write(tmp_path / "p.json", {"coefficients": [[1, 0]] * 7})
        assert main(["bohr-check", "--input", src, *flags]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gap_check_over_the_variable_cap_exits_4_before_any_sampling(self, tmp_path, capsys, monkeypatch):
        forbid_torus_sampling(monkeypatch)
        src = write(tmp_path / "p.json", {"coefficients": [[1, 0]] * 23})  # nine primes <= 23
        assert main(["bohr-check", "--input", src]) == 4
        assert "resource limit:" in capsys.readouterr().err


def forbid_torus_sampling(monkeypatch):
    import dirapprox.bohr as bohr_mod

    def ran(*args, **kw):
        raise AssertionError("the torus was sampled or a witness was sought")

    for name in ("_torus_values", "_kronecker_witness"):
        monkeypatch.setattr(bohr_mod, name, ran)


class TestFitCommands:
    def test_fit_artifact_and_determinism(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        for out in (out1, out2):
            assert main(
                ["fit", "--input", src, "--degree", "8", "--density", "0.03",
                 "--output", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert rep["converged"] is True
        assert rep["minimax_error"] <= 1e-4

    def test_fit_artifacts_carry_a_lower_bound(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--input", src, "--degree", "20", "--output", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        rep = json.loads(runs[0])
        assert 0 < rep["lower_bound"] <= rep["minimax_error"] <= 1.01 * rep["lower_bound"]
        assert rep["converged"] is True and rep["provenance"]["rank"] >= 1
        spec = {
            "set": {"kind": "rectangle", "corner_lo": [-2, -1], "corner_hi": [-0.5, 1]},
            "target": {"kind": "named", "name": "constant", "constant": [1, 0]},
            "base": [[0, 0], [1, 0]],
        }
        out = tmp_path / "c.json"
        assert main(["fit-constrained", "--input", write(tmp_path / "c_in.json", spec), "--degree",
                     "6", "--sigma", "1", "--eps", "0.5", "--density", "0.1", "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["provenance"]["route"] == "lawson+admm"
        assert 0 <= rep["lower_bound"] <= rep["minimax_error"]

    def test_sampled_fit_on_every_sample_reruns_byte_identically(self, tmp_path):
        # exp plus a spike at one interior sample: a sampled target is
        # solved on every sample, where the spike is
        from dirapprox.geometry import disc, discretize

        dset = discretize(disc(-1, 0.5))
        y = np.exp(dset.all_samples())
        y[dset.boundary_samples.size + 158] += 0.01
        spec = {"set": DISC_EXP["set"], "target": {"kind": "sampled", "values": [[v.real, v.imag] for v in y]}}
        src = write(tmp_path / "in.json", spec)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--input", src, "--degree", "10", "--output", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        rep = json.loads(runs[0])
        assert rep["provenance"]["premise"] == "sampled" and rep["provenance"]["rows"] == y.size
        assert 0 < rep["lower_bound"] <= rep["minimax_error"] <= 1.01 * rep["lower_bound"]

    def test_constrained_fit_with_inactive_budget(self, tmp_path):
        spec = {
            "set": {"kind": "rectangle", "corner_lo": [-2, -1], "corner_hi": [-0.5, 1]},
            "target": {"kind": "named", "name": "constant", "constant": [1, 0]},
            "base": [[0, 0]],
        }
        src = write(tmp_path / "in.json", spec)
        out = tmp_path / "c.json"
        code = main(
            ["fit-constrained", "--input", src, "--degree", "6", "--sigma", "1",
             "--eps", "1000000", "--density", "0.05", "--output", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["minimax_error"] <= 1e-8
        assert rep["converged"] is True

    def test_convergence_study_csv(self, tmp_path, capsys):
        src = write(tmp_path / "in.json", {**DISC_EXP, "degrees": [5, 10, 20]})
        out = tmp_path / "study.csv"
        assert main(
            ["convergence-study", "--input", src, "--density", "0.03",
             "--output", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,minimax_error"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(errs) == 3
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


    def test_fit_tol_reached_stops_early_and_exits_zero(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        reps = {}
        for tol in (None, "1e-2"):
            out = tmp_path / f"f{tol}.json"
            argv = ["fit", "--input", src, "--degree", "5", "--density", "0.03",
                    "--output", str(out)]
            assert main(argv + (["--tol", tol] if tol else [])) == 0
            reps[tol] = json.loads(out.read_text())
        assert reps["1e-2"]["converged"] is True
        assert reps["1e-2"]["minimax_error"] <= 1e-2
        assert reps["1e-2"]["iterations"] < reps[None]["iterations"]

    def test_fit_tol_not_reached_exits_three(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        out = tmp_path / "f.json"
        code = main(["fit", "--input", src, "--degree", "5", "--density", "0.03",
                     "--tol", "1e-12", "--output", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["converged"] is False
        assert rep["minimax_error"] > 1e-12

    def test_convergence_study_tol_stops_each_fit(self, tmp_path):
        src = write(tmp_path / "in.json", {**DISC_EXP, "degrees": [5, 10]})
        errs = {}
        for tol in (None, "1e-2"):
            out = tmp_path / f"s{tol}.csv"
            argv = ["convergence-study", "--input", src, "--density", "0.03",
                    "--output", str(out)]
            assert main(argv + (["--tol", tol] if tol else [])) == 0
            lines = out.read_text().strip().split("\n")[1:]
            errs[tol] = [float(line.split(",")[1]) for line in lines]
        assert all(e <= 1e-2 for e in errs["1e-2"])
        # N=5 stops short of the Lawson optimum it reaches without --tol
        assert errs["1e-2"][0] > errs[None][0]


class TestLaurentCommands:
    def test_identity_on_annulus_splits_cleanly(self, tmp_path):
        spec = {"set": ANNULUS, "function": {"kind": "named", "name": "identity"},
                "anchors": [[0, 0]]}
        src = write(tmp_path / "in.json", spec)
        out = tmp_path / "l.json"
        assert main(["laurent", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["residual"] <= 1e-8
        assert rep["warning"] is False
        assert rep["hole_pieces"] == 1

    def test_exp_on_a_rectangle_splits_cleanly(self, tmp_path):
        # probe points at the corners, where the loop winds only a quarter turn
        spec = {"set": BUDGET_FIT["set"], "function": {"kind": "named", "name": "exp"}, "anchors": []}
        out = tmp_path / "l.json"
        assert main(["laurent", "--input", write(tmp_path / "in.json", spec), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["residual"] <= 1e-12 and rep["warning"] is False

    @pytest.mark.parametrize("command, extra", [
        ("laurent", {}),
        ("rational-fit", {"degrees": [8, 8]}),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, command, extra):
        spec = {"set": ANNULUS, "function": {"kind": "named", "name": "exp"},
                "anchors": [[0, 0]], **extra}
        src = write(tmp_path / "in.json", spec)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([command, "--input", src, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rational_fit_artifact_round_trips(self, tmp_path):
        spec = {"set": ANNULUS, "function": {"kind": "named", "name": "exp"},
                "anchors": [[0, 0]], "degrees": [8, 8]}
        src = write(tmp_path / "in.json", spec)
        out = tmp_path / "r.json"
        assert main(["rational-fit", "--input", src, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        r = rational_from_json_dict(rep["rational"])
        assert len(r.parts) == 1
        assert np.isfinite(rep["sup_error"])


UNIVERSAL_FAMILY = {
    "family": [
        {"target": {"kind": "named", "name": "constant", "constant": [0, 0]},
         "compact_index": 1, "tol": 0.1, "label": "zero"},
    ]
}

# a one-stage schedule for UNIVERSAL_FAMILY, as universal-build writes it
ZERO_SCHEDULE = {
    "schedule": {
        "coefficients": [[0.0, 0.0]],
        "cuts": [1],
        "records": [{"label": "zero", "compact_index": 1, "tol": 0.1, "sigma": 0.5,
                     "budget": 0.25, "cut": 1, "block_length": 1, "sup_error": 0.0,
                     "block_seminorm": 0.0, "ladder": [], "converged": True}],
    },
    "family": UNIVERSAL_FAMILY["family"],
}


class TestUniversalCommands:
    def test_build_then_verify_round_trip(self, tmp_path):
        src = write(tmp_path / "fam.json", UNIVERSAL_FAMILY)
        sched = tmp_path / "sched.json"
        assert main(["universal-build", "--input", src, "--output", str(sched)]) == 0
        verify_in = write(
            tmp_path / "vin.json",
            {"schedule": json.loads(sched.read_text()),
             "family": UNIVERSAL_FAMILY["family"]},
        )
        out = tmp_path / "verify.json"
        assert main(["universal-verify", "--input", verify_in, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True

    def test_unreachable_stage_exits_3_with_partial_schedule(self, tmp_path):
        fam = {
            "family": UNIVERSAL_FAMILY["family"] + [
                {"target": {"kind": "named", "name": "constant", "constant": [1, 0]},
                 "compact_index": 1, "tol": 1e-6, "label": "flat"},
            ],
            "options": {"block_steps": [1, 2, 5]},
        }
        src = write(tmp_path / "fam.json", fam)
        sched = tmp_path / "sched.json"
        assert main(["universal-build", "--input", src, "--output", str(sched)]) == 3
        rep = json.loads(sched.read_text())
        assert rep["cuts"] == [1]
        assert rep["records"][-1]["converged"] is False

    def test_unknown_option_key_is_invalid_input(self, tmp_path):
        fam = {**UNIVERSAL_FAMILY, "options": {"mystery": 1}}
        src = write(tmp_path / "fam.json", fam)
        assert main(["universal-build", "--input", src]) == 2


class TestChordalCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        src = write(tmp_path / "in.json", {"interval": [2, 3], "ladder": [10, 100, 1000]})
        out = tmp_path / "chord.json"
        assert main(["chordal-check", "--input", src, "--eps", "0.01",
                     "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["n0"] == 100
        csv_lines = (tmp_path / "chord.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "N,chi_sup_error"
        assert len(csv_lines) == 4
        assert [float(line.split(",")[1]) for line in csv_lines[1:]] == rep["errors"]

    def test_byte_identical_across_runs(self, tmp_path):
        src = write(tmp_path / "in.json", {"interval": [-1, 2], "ladder": [10, 100]})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["chordal-check", "--input", src, "--eps", "0.2",
                         "--output", str(out)]) == 0
            outs.append((out.read_bytes(), (tmp_path / f"{name}.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_missing_output_is_invalid_input(self, tmp_path):
        src = write(tmp_path / "in.json", {"interval": [2, 3], "ladder": [10]})
        assert main(["chordal-check", "--input", src, "--eps", "0.01"]) == 2

    def test_missing_output_fails_before_the_check_runs(self, tmp_path, capsys, monkeypatch):
        import dirapprox.chordal as chordal_mod

        def never(*args, **kwargs):
            raise AssertionError("the check ran although --output is missing")

        monkeypatch.setattr(chordal_mod, "zeta_chordal_convergence_check", never)
        src = write(tmp_path / "in.json", {"interval": [-5, 5], "ladder": [10, 10_000]})
        assert main(["chordal-check", "--input", src, "--eps", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreached_target_exits_3(self, tmp_path, monkeypatch):
        import dirapprox.chordal as chordal_mod

        report = chordal_mod.ConvergenceReport(
            interval=(2.0, 3.0), target_eps=1e-12, ladder=(10,), errors=(0.02,),
            n0=None, n0_error=None, n0_source=None, grid_per_unit=2000.0,
            grid_points=2001, grid_converged=True, searched_to=10_000_000,
        )
        monkeypatch.setattr(
            chordal_mod, "zeta_chordal_convergence_check", lambda *a, **k: report
        )
        src = write(tmp_path / "in.json", {"interval": [2, 3], "ladder": [10]})
        out = tmp_path / "chord.json"
        assert main(["chordal-check", "--input", src, "--eps", "1e-12",
                     "--output", str(out)]) == 3
        assert json.loads(out.read_text())["n0"] is None


class TestExitCodes:
    def test_missing_input_flag(self):
        assert main(["seminorm", "--sigma", "1"]) == 2

    def test_nonexistent_input_file(self, tmp_path):
        assert main(["eval", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", "--input", str(bad)]) == 2

    def test_missing_required_field(self, tmp_path):
        src = write(tmp_path / "p.json", {"coefficients": [[1, 0]]})
        assert main(["eval", "--input", src]) == 2  # no points

    def test_bad_degree_is_invalid_input(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        assert main(["fit", "--input", src, "--degree", "-3"]) == 2

    def test_missing_required_flag_exits_2(self, tmp_path):
        src = write(tmp_path / "in.json", DISC_EXP)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", src])
        assert exc.value.code == 2

    def test_seed_flag_is_only_on_bohr_check(self, tmp_path):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", src, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("set_text", [
        '{"kind": "annulus", "center": [0, 0], "r_inner": 1, "r_outer": 1e999}',
        '{"kind": "rectangle", "corner_lo": [-1e999, -1], "corner_hi": [0, 1]}',
        '{"kind": "jordan_polygon", "vertices": [[1e999, 0], [-1, 1], [-1, -1]]}',
        '{"kind": "disc", "center": [1e999, 0], "radius": 0.5}',
        '{"kind": "disc", "center": [-1], "radius": 0.5}',
    ])
    def test_non_finite_or_malformed_set_is_invalid_input(self, tmp_path, capsys, set_text):
        src = tmp_path / "in.json"
        src.write_text('{"set": %s, "target": {"kind": "named", "name": "exp"}}' % set_text)
        assert main(["fit", "--input", str(src), "--degree", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("density", ["nan", "inf"])
    def test_non_finite_density_is_invalid_input(self, tmp_path, capsys, density):
        src = write(tmp_path / "in.json", DISC_EXP)
        assert main(["fit", "--input", src, "--degree", "3", "--density", density]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc", [
        (["fit-constrained", "--degree", "6", "--sigma", "nan", "--eps", "0.5"], BUDGET_FIT),
        (["fit-constrained", "--degree", "6", "--sigma", "inf", "--eps", "0.5"], BUDGET_FIT),
        (["fit-constrained", "--degree", "6", "--sigma", "1", "--eps", "nan"], BUDGET_FIT),
        (["fit-constrained", "--degree", "6", "--sigma", "1", "--eps", "inf"], BUDGET_FIT),
        (["fit", "--degree", "3", "--tol", "nan"], DISC_EXP),
        (["convergence-study", "--tol", "nan"], {**DISC_EXP, "degrees": [2, 4]}),
        (["chordal-check", "--eps", "0.1", "--density", "nan"], {"interval": [2, 3], "ladder": [10]}),
        (["chordal-check", "--eps", "0.1", "--tol", "nan"], {"interval": [2, 3], "ladder": [10]}),
        (["laurent", "--tol", "nan"], {"set": ANNULUS, "function": {"kind": "named", "name": "identity"},
                                       "anchors": [[0, 0]]}),
        (["universal-verify", "--tol", "nan"], ZERO_SCHEDULE),
        (["universal-verify", "--tol", "inf"], ZERO_SCHEDULE),
    ])
    def test_non_finite_numeric_flags_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch, argv, doc):
        def solved(*args, **kw):
            raise AssertionError("a solve started")

        for target in ("dirapprox.fit._lawson", "dirapprox.laurent._build_pieces",
                       "dirapprox.chordal._coefficient_block", "dirapprox.universal.discretize"):
            monkeypatch.setattr(target, solved)
        src = write(tmp_path / "in.json", doc)
        assert main([*argv, "--input", src, "--output", str(tmp_path / "out.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_is_invalid_input(self, tmp_path):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["eval", "--input", src, "--output", str(out)]) == 2

    @pytest.mark.parametrize("argv, doc", [
        (["eval"], [[1, 0]]),
        (["supnorm"], {**TWO_POW, "plan": {"height": "tall"}}),
        (["supnorm"], {**TWO_POW, "plan": [20000]}),
        (["convergence-study"], {**DISC_EXP, "degrees": ["five"]}),
        (["universal-build"], {"family": [{**UNIVERSAL_FAMILY["family"][0], "compact_index": "one"}]}),
        (["universal-build"], {"family": [3]}),
        (["chordal-check", "--eps", "0.1"], {"interval": [2, 3], "ladder": 10}),
        (["universal-build"], {"family": [{**UNIVERSAL_FAMILY["family"][0], "label": 5}]}),
        (["fit", "--degree", "3"], {**DISC_EXP, "target": {"kind": "bogus", "name": "exp"}}),
        (["universal-verify"],
         {**ZERO_SCHEDULE, "schedule": {**ZERO_SCHEDULE["schedule"],
                                        "records": [{**ZERO_SCHEDULE["schedule"]["records"][0], "cut": 7}]}}),
    ])
    def test_malformed_json_shapes_are_invalid_input(self, tmp_path, capsys, argv, doc):
        assert main([*argv, "--input", write(tmp_path / "in.json", doc)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc", [
        (["universal-build"], {"family": [{**UNIVERSAL_FAMILY["family"][0], "compact_index": 1.7}]}),
        (["universal-build"], {"family": [{**UNIVERSAL_FAMILY["family"][0], "compact_index": True}]}),
        (["universal-build"], {**UNIVERSAL_FAMILY, "options": {"block_steps": [1.9, 2.2]}}),
        (["convergence-study"], {**DISC_EXP, "degrees": [5, 10.5]}),
        (["chordal-check", "--eps", "0.1"], {"interval": [2, 3], "ladder": [10, True]}),
        (["abscissa"], {"rule": {"kind": "all-ones"}, "truncation": 150.9}),
        # nor is a boolean a number, which float() and complex() would read as 0 or 1
        (["fit", "--degree", "3"], {**DISC_EXP, "set": {**DISC_EXP["set"], "radius": True}}),
        (["laurent"], {"set": {**ANNULUS, "r_inner": True}, "anchors": [[0, 0]],
                       "function": {"kind": "named", "name": "identity"}}),
        (["eval"], {"coefficients": [[True, False]], "points": [[1, 0]]}),
        (["fit", "--degree", "3"],
         {**DISC_EXP, "target": {"kind": "named", "name": "constant", "constant": [True, False]}}),
        (["universal-verify"],
         {**ZERO_SCHEDULE, "schedule": {**ZERO_SCHEDULE["schedule"], "coefficients": [[True, False]]}}),
    ])
    def test_non_integral_or_boolean_integers_exit_2(self, tmp_path, capsys, argv, doc):
        # int() would truncate 1.7 to 1 and read true as 1
        src = write(tmp_path / "in.json", doc)
        assert main([*argv, "--input", src, "--output", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err or "must be a number" in err

    def test_integral_float_is_an_integer(self, tmp_path):
        src = write(tmp_path / "in.json", {"rule": {"kind": "all-ones"}, "truncation": 150.0})
        out = tmp_path / "a.json"
        assert main(["abscissa", "--input", src, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["truncation_used"] == 150

    @pytest.mark.parametrize("key, value", [("converged", "false"), ("cut", 1.5), ("tol", True)])
    def test_stage_record_fields_load_strictly(self, tmp_path, capsys, key, value):
        record = {**ZERO_SCHEDULE["schedule"]["records"][0], key: value}
        doc = {**ZERO_SCHEDULE, "schedule": {**ZERO_SCHEDULE["schedule"], "records": [record]}}
        src = write(tmp_path / "in.json", doc)
        assert main(["universal-verify", "--input", src, "--output", str(tmp_path / "out.json")]) == 2
        assert "malformed stage record" in capsys.readouterr().err

    def test_schedule_cuts_load_strictly(self, tmp_path, capsys):
        doc = {**ZERO_SCHEDULE, "schedule": {**ZERO_SCHEDULE["schedule"], "cuts": [1.0]}}
        src = write(tmp_path / "in.json", doc)
        assert main(["universal-verify", "--input", src, "--output", str(tmp_path / "out.json")]) == 2
        assert "malformed schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [KeyError("internal"), TypeError("internal")])
    def test_internal_errors_propagate(self, tmp_path, monkeypatch, exc):
        # a bug inside a handler is not bad input: it must not exit 2
        import dirapprox.cli as cli_mod

        def broken(args):
            raise exc

        monkeypatch.setattr(cli_mod, "_cmd_eval", broken)
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        with pytest.raises(type(exc)):
            main(["eval", "--input", src])

    def test_internal_errors_inside_a_reader_propagate(self, tmp_path, monkeypatch):
        # the set reader checks its JSON, then lets the constructor's own errors through
        import dirapprox.geometry as geometry_mod

        def broken(*args):
            raise TypeError("internal")

        monkeypatch.setattr(geometry_mod, "disc", broken)
        src = write(tmp_path / "in.json", DISC_EXP)
        with pytest.raises(TypeError, match="internal"):
            main(["fit", "--input", src, "--degree", "3"])


class TestThreadCap:
    def test_cap_exported_to_blas_variables(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("DIRAPPROX_THREADS", "2")
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        assert main(["eval", "--input", src]) == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_specific_variable_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("DIRAPPROX_THREADS", "2")
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        assert main(["eval", "--input", src]) == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_invalid_cap_is_invalid_input(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRAPPROX_THREADS", "zero")
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        assert main(["eval", "--input", src]) == 2
        monkeypatch.setenv("DIRAPPROX_THREADS", "-1")
        assert main(["eval", "--input", src]) == 2


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(argv, cwd, env_changes=None):
    """Run ``argv`` in a child Python that imports the ``dirapprox`` tree
    this process imported, whatever the child's working directory.
    ``env_changes`` sets variables, or unsets those mapped to None."""
    env = dict(os.environ)
    for var, value in (env_changes or {}).items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    source_root = str(Path(dirapprox.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def run_console_script(args, cwd):
    """Run the ``dirapprox`` console script as pip's generated wrapper does:
    import the ``[project.scripts]`` entry point from pyproject.toml and
    exit with its return value.  No install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["dirapprox"]
    module, attr = entry.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return run_cli(["-c", wrapper, *args], cwd)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        proc = run_console_script(["eval", "--input", src], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.5"

    def test_diagnostics_go_to_stderr(self, tmp_path):
        proc = run_console_script(
            ["eval", "--input", str(tmp_path / "ghost.json")], tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    def test_module_invocation(self, tmp_path):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        proc = run_cli(["-m", "dirapprox.cli", "eval", "--input", src], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.5"


# every public name of the package, each loaded on first access
PUBLIC_NAMES = (
    "errors", "AbscissaReport", "CoefficientRule", "DirichletPolynomial",
    "estimate_abscissas", "evaluate", "evaluate_many", "seminorm_sigma", "shift_by_delta",
    "LiftedPolynomial", "bohr_gap_report", "lift", "unlift",
    "SampleDensity", "annulus", "disc", "discretize", "jordan_polygon", "rectangle",
    "translate", "union_of_disjoint", "FitOptions", "FitResult", "TargetFunction",
    "constrained_fit", "convergence_study", "minimax_fit", "LaurentPieces",
    "RationalDirichletFunction", "laurent_decompose", "rational_dirichlet_fit", "FamilyEntry",
    "TargetFamily", "UniversalOptions", "UniversalSchedule", "build_universal",
    "compact_rectangle", "verify_schedule", "ConvergenceReport",
    "chi", "chi_many", "chi_uniform_error", "chordal_convergence_check",
    "zeta_chordal_convergence_check", "__version__",
)
SUBMODULES = ("bohr", "chordal", "fit", "geometry", "laurent", "series", "universal")


def child_prints(code, tmp_path, env_changes=None) -> str:
    proc = run_cli(["-c", code], tmp_path, env_changes)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestImportCost:
    def test_import_leaves_scipy_unloaded(self, tmp_path):
        code = "import sys, dirapprox, dirapprox.cli; print('scipy' in sys.modules)"
        assert child_prints(code, tmp_path) == "False"

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path):
        # so the thread cap is exported before numpy starts its BLAS pool
        assert child_prints("import sys, dirapprox.cli; print('numpy' in sys.modules)", tmp_path) == "False"

    def test_thread_cap_reaches_openblas(self, tmp_path):
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        code = (
            "import ctypes, pathlib\n"
            "from dirapprox.cli import main\n"
            f"assert main(['eval', '--input', {src!r}]) == 0\n"
            "import numpy\n"
            "libs = sorted((pathlib.Path(numpy.__file__).parent.parent / 'numpy.libs').glob('*openblas*.so*'))\n"
            "fn = getattr(ctypes.CDLL(str(libs[0])), 'scipy_openblas_get_num_threads64_', None) if libs else None\n"
            "if fn is not None:\n"
            "    fn.argtypes, fn.restype = [], ctypes.c_int\n"
            "print(fn() if fn is not None else 'absent')\n"
        )
        unset = dict.fromkeys(_THREAD_VARS)  # maps each to None
        out = child_prints(code, tmp_path, {**unset, "DIRAPPROX_THREADS": "1"}).split("\n")
        if out[-1] == "absent":
            pytest.skip("numpy's OpenBLAS does not export scipy_openblas_get_num_threads64_")
        assert out == ["0.5", "1"]

    def test_eval_loads_only_its_modules_and_import_builds_no_table(self, tmp_path):
        # the log table and the factor memo fill on first use, outside cold start
        src = write(tmp_path / "p.json", {**TWO_POW, "points": [[1, 0]]})
        code = (
            "import sys\n"
            "from dirapprox.cli import main\n"
            f"assert main(['eval', '--input', {src!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dirapprox'))\n"
        )
        out = child_prints(code, tmp_path).split("\n")[-1]
        assert out == str(["dirapprox", *(f"dirapprox.{m}" for m in ("_wire", "cli", "errors", "series"))])
        code = (
            "import dirapprox.bohr as bohr, dirapprox.chordal, dirapprox.series as series\n"
            "print(series._log_table.size, len(bohr._primes), len(bohr._TABLE_CACHE), len(bohr._INDEX_OF),"
            " len(bohr._N_OF))\n"
        )
        assert child_prints(code, tmp_path) == "0 0 0 0 0"

    def test_bohr_gap_report_leaves_scipy_unloaded(self, tmp_path):
        code = (
            "import sys, dirapprox as dx\n"
            "p = dx.DirichletPolynomial([1, 0.5j, -0.25, 0.2, 0.1, -0.1j, 0.05])\n"  # k = 4: polished samples
            "assert dx.bohr_gap_report(p).within_tolerance\n"
            "print('scipy' in sys.modules)\n"
        )
        assert child_prints(code, tmp_path) == "False"

    def test_package_names_resolve_lazily(self, tmp_path):
        names = PUBLIC_NAMES + SUBMODULES
        code = (
            "import sys, dirapprox\n"
            "loaded = 'numpy' in sys.modules\n"
            f"missing = [n for n in {names!r} if getattr(dirapprox, n, None) is None]\n"
            f"print(loaded, missing, set({names!r}) <= set(dir(dirapprox)), sorted(dirapprox.__all__))\n"
        )
        assert child_prints(code, tmp_path) == f"False [] True {sorted(PUBLIC_NAMES)}"

    def test_names_follow_patched_submodule_attributes(self, monkeypatch):
        # nothing is cached in the package namespace, so a patch is seen there
        import dirapprox.bohr as bohr_mod

        monkeypatch.setattr(bohr_mod, "lift", "patched")
        assert dirapprox.lift == "patched"
        monkeypatch.undo()
        assert dirapprox.lift is bohr_mod.lift
