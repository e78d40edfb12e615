"""Tests for the command-line interface: reports, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egain.cli as cli
from egain import classical
from conftest import BELOW_THE_BOUND, save_matrix, squeezed_covariance
from egain.cli import main
from egain.errors import HypothesisViolationError
from egain.fock import CAMPAIGN_SUPPORT
from egain.matio import write_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGain:
    def test_attenuator_preset(self, capsys):
        code, out, _ = run(["gain", "--preset", "attenuator", "--k", "0.5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["gain_closed_form"] == pytest.approx(2.0 * math.log(0.5))
        assert report["regular"] is True
        assert report["admissibility"]["verdict"] == "positive_semidefinite"

    def test_classical_noise_zero_gain(self, capsys):
        code, out, _ = run(
            ["gain", "--preset", "classical-noise", "--k", "1", "--noise", "0.3"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["gain_closed_form"] == 0.0
        assert report["admissibility"]["strict"] is True

    def test_channel_file(self, tmp_path, capsys):
        path = str(tmp_path / "channel.json")
        write_json(
            path,
            {"K": [[2.0, 0.0], [0.0, 2.0]], "mu": [[1.6, 0.0], [0.0, 1.6]]},
        )
        code, out, _ = run(["gain", "--channel-file", path], capsys)
        assert code == 0
        assert json.loads(out)["gain_closed_form"] == pytest.approx(math.log(4.0))

    def test_singular_k_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "singular.json")
        write_json(path, {"K": [[0.0, 0.0], [0.0, 0.0]], "mu": [[2.0, 0.0], [0.0, 2.0]]})
        code, _, err = run(["gain", "--channel-file", path], capsys)
        assert code == 2
        assert "non-regular" in err

    def test_inadmissible_exits_2_with_certificate(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        write_json(path, {"K": [[2.0, 0.0], [0.0, 2.0]], "mu": [[0.1, 0.0], [0.0, 0.1]]})
        code, _, err = run(["gain", "--channel-file", path], capsys)
        assert code == 2
        assert "min eigenvalue" in err

    def test_missing_channel_spec_exits_2(self, capsys):
        code, _, err = run(["gain"], capsys)
        assert code == 2
        assert "preset" in err

    def test_rotated_noise_below_the_bound_exits_2(self, tmp_path, capsys):
        # a rotated squeeze of mu does not blur its certificate (README, Strong squeezing)
        path = str(tmp_path / "rotated.json")
        write_json(path, {"K": (0.5 * np.eye(2)).tolist(), "mu": squeezed_covariance(0.3, 6, 0.3).tolist()})
        assert run(["gain", "--channel-file", path], capsys) == (
            2,
            "",
            "error: channel noise is below the admissibility bound: min eigenvalue -2.500e-01\n",
        )


class TestSweep:
    def test_csv_shape_and_convergence(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.csv")
        code, _, _ = run(
            ["sweep", "--preset", "attenuator", "--k", "0.5", "--out", out_path], capsys
        )
        assert code == 0
        lines = open(out_path).read().strip().split("\n")
        header_idx = lines.index("beta,gain,gap_to_closed_form")
        rows = [line.split(",") for line in lines[header_idx + 1 :]]
        gaps = [float(r[2]) for r in rows]
        assert "# converged: true" in lines
        assert abs(gaps[-1]) < 1e-3
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_identity_channel_all_gaps_zero(self, tmp_path, capsys):
        # classical-noise with k = 1 and zero extra noise is the identity
        out_path = str(tmp_path / "identity.csv")
        code, _, _ = run(
            ["sweep", "--preset", "classical-noise", "--k", "1", "--out", out_path],
            capsys,
        )
        assert code == 0
        lines = open(out_path).read().strip().split("\n")
        header_idx = lines.index("beta,gain,gap_to_closed_form")
        gaps = [abs(float(line.split(",")[2])) for line in lines[header_idx + 1 :]]
        assert max(gaps) < 1e-12

    def test_warning_row_on_non_convergence(self, tmp_path, capsys, monkeypatch):
        # the adaptive sweep converges above its floor on every preset, so
        # non-convergence is reached by patching the library call
        from egain.channels import GainReport

        def fake_sweep(channel, hamiltonian, beta_grid=None):
            return GainReport(
                beta_grid=np.array([1.0, 0.1]),
                gains=np.array([1.0, 0.9]),
                closed_form=0.5,
                converged=False,
            )

        monkeypatch.setattr(cli, "gain_beta_sweep", fake_sweep)
        out_path = str(tmp_path / "warn.csv")
        code, _, _ = run(
            ["sweep", "--preset", "attenuator", "--k", "0.5", "--out", out_path], capsys
        )
        assert code == 0
        text = open(out_path).read()
        assert "# warning:" in text


class TestFock:
    def test_small_campaign_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "fock.json")
        code, _, _ = run(
            [
                "fock",
                "--preset",
                "attenuator",
                "--k",
                "0.7",
                "--trials",
                "5",
                "--seed",
                "11",
                "--out",
                out_path,
            ],
            capsys,
        )
        assert code == 0
        report = json.load(open(out_path))
        assert report["holds_count"] == 5
        assert report["seed"] == 11
        assert len(report["records"]) == 5
        assert report["worst_margin"] > 0

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        argv = [
            "fock",
            "--preset",
            "amplifier",
            "--k",
            "1.5",
            "--trials",
            "4",
            "--seed",
            "3",
        ]
        for path in paths:
            assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_tiny_dim_exits_4_but_reports(self, tmp_path, capsys):
        out_path = str(tmp_path / "tiny.json")
        code, _, _ = run(
            [
                "fock",
                "--preset",
                "amplifier",
                "--k",
                "1.5",
                "--dim",
                "8",
                "--trials",
                "6",
                "--seed",
                "0",
                "--out",
                out_path,
            ],
            capsys,
        )
        assert code == 4
        report = json.load(open(out_path))
        assert report["unreliable_count"] > 0
        assert len(report["records"]) == 6

    def test_tiny_k_reports_the_bound(self, capsys):
        # k**2 underflows to 0 at k = 1e-200, so the bound is taken as 2 log k; an attenuator
        # keeps all its mass, so its slack is rounding alone and the trial is reliable
        code, out, err = run(
            ["fock", "--preset", "attenuator", "--k", "1e-200", "--dim", "8", "--trials", "1"],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["records"][0]["bound"] == pytest.approx(-921.0340371976183)

    def test_small_dim_clamps_generator_support(self, tmp_path, capsys):
        # support-10 campaign inputs must shrink to fit a dim-8 cutoff; inputs on every level are
        # no truncation error for an attenuator, which moves no mass past the cutoff
        out_path = str(tmp_path / "tiny_att.json")
        code, _, _ = run(
            [
                "fock",
                "--preset",
                "attenuator",
                "--k",
                "0.7",
                "--dim",
                "8",
                "--trials",
                "4",
                "--seed",
                "0",
                "--out",
                out_path,
            ],
            capsys,
        )
        assert code == 0
        report = json.load(open(out_path))
        assert len(report["records"]) == 4
        assert report["support"] == 8 and report["reliable_count"] == 4

    def test_extremality_campaign(self, capsys):
        code, out, _ = run(
            [
                "fock",
                "--preset",
                "classical-noise",
                "--k",
                "1",
                "--noise",
                "0.3",
                "--trials",
                "3",
                "--seed",
                "5",
                "--extremality",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["campaign"] == "extremality"
        assert report["holds_count"] == 3
        assert "gaussian_gain" in report["records"][0]

    def test_hypothesis_violation_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise HypothesisViolationError("degenerate input")

        monkeypatch.setattr(cli, "extremality_campaign", boom)
        code, _, err = run(
            ["fock", "--preset", "attenuator", "--k", "0.7", "--extremality"], capsys
        )
        assert code == 3
        assert "degenerate" in err


    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, capsys, trials):
        code, out, err = run(
            ["fock", "--preset", "attenuator", "--k", "0.7", "--trials", trials], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: trials must be an integer >= 1, got {trials}\n"


# Input files of the frozen-digest cases, named by relative paths so that the
# reports, which quote them, do not depend on the test's temporary directory.
FROZEN_INPUTS = {
    "channel.json": {
        "K": [[1.2, 0.3, 0.0, 0.0], [0.0, 1.1, 0.0, 0.2], [0.0, 0.0, 0.9, 0.0], [0.1, 0.0, 0.0, 1.3]],
        "mu": (2.0 * np.eye(4)).tolist(),
    },
    "epsilon.json": {
        "matrix": [[1.0, 0.2, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0], [0.0, 0.0, 1.5, 0.1], [0.0, 0.0, 0.1, 0.6]]
    },
    "alpha.json": {
        "matrix": [[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2], [0.1, 0.0, 1.2, 0.0], [0.0, 0.2, 0.0, 0.9]]
    },
}


# md5 of the reports of the closed-form Kraus tables, frozen after the
# holds and reliable counts were checked against the exponentiated
# dilation's, and their numbers against full d x d eigensolves and dense
# moments (within 1.3e-14); stacked campaigns reproduce one-trial-at-a-time
# runs byte for byte. The extremality digests were frozen again when the
# Gaussian references took their spectra from Cholesky factors: every
# holds and reliable count stayed, and gaussian_gain moved by <= 1.3e-15.
# All five fock digests were frozen again when the slack became a proved bound:
# the reports lost ``reliability_threshold``, each ``deficit`` became the mass
# the channel moved past the cutoff, and every other field and count stayed.
# The gain, sweep, williamson and exit-4 digests were frozen before every
# report came to be written from one place in ``main``.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        pytest.param(
            "fock --preset amplifier --k 1.5 --trials 20 --seed 3",
            0,
            "ad7ac357f2046e4332e2e6367547ed97",
            id="amplifier-lower-bound",
        ),
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 0.3 --extremality --trials 10 --seed 3",
            0,
            "548e583291d364819172edfc93063269",
            id="classical-noise-extremality",
        ),
        # three chunks at d = 60: each chunk's references are taken as one stack
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 0.3 --extremality --trials 40 --seed 3",
            0,
            "7471400bb9329000c397732f85019c3b",
            id="classical-noise-extremality-three-chunks",
        ),
        # attenuator outputs occupy fewer than dim levels
        pytest.param(
            "fock --preset attenuator --k 0.7 --trials 20 --seed 3",
            0,
            "75560c9eb21bf9b05b66f50353c94cd8",
            id="attenuator-lower-bound",
        ),
        # too few reliable trials: the report is written and the exit code is 4
        pytest.param(
            "fock --preset amplifier --k 3 --dim 16 --trials 4 --seed 1",
            4,
            "e092b76a7a11c59aa57d65bf2ea4fdf9",
            id="amplifier-unreliable",
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5",
            0,
            "0dd82b15f9b3b525b0292000a216252d",
            id="gain-preset",
        ),
        pytest.param(
            "gain --channel-file channel.json",
            0,
            "cf381154660696755195bc2bdc375ea4",
            id="gain-channel-file",
        ),
        pytest.param(
            "sweep --preset amplifier --k 2",
            0,
            "8baaab2df03dc2034fbb9aafe3e7f123",
            id="sweep-preset",
        ),
        pytest.param(
            "sweep --channel-file channel.json --epsilon-file epsilon.json",
            0,
            "8affc7a6cc62a0daddaab379e7502f19",
            id="sweep-files",
        ),
        pytest.param(
            "williamson alpha.json",
            0,
            "17ddfbc8f663f7e78710feac194d20d7",
            id="williamson",
        ),
    ],
)
def test_report_is_byte_identical_to_the_frozen_digest(
    argv, code, digest, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("EGAIN_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, payload in FROZEN_INPUTS.items():
        write_json(name, payload)
    returned, out, err = run(argv.split(), capsys)
    assert (returned, err) == (code, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest
    # the same bytes with --out, and nothing on stdout
    assert run([*argv.split(), "--out", "report.out"], capsys) == (code, "", "")
    assert hashlib.md5(pathlib.Path("report.out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, env_tol",
    [
        pytest.param("gain --preset attenuator --k 2", None, id="refused-preset"),
        pytest.param("williamson missing.json", None, id="missing-file"),
        pytest.param("sweep --preset amplifier --k 2", "banana", id="bad-env-tol"),
    ],
)
def test_failing_invocation_leaves_an_existing_out_file_untouched(
    argv, env_tol, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    if env_tol is None:
        monkeypatch.delenv("EGAIN_TOL", raising=False)
    else:
        monkeypatch.setenv("EGAIN_TOL", env_tol)
    pathlib.Path("report.out").write_text("an earlier report\n")
    code, out, err = run([*argv.split(), "--out", "report.out"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert os.listdir() == ["report.out"]
    assert pathlib.Path("report.out").read_text() == "an earlier report\n"


# Frozen stdout of `egain classical --k 10`: the CSV must stay byte-identical.
CLASSICAL_K10_CSV = """\
# seed: none
# n_max: 10000000
k,H,doubly_stochastic
1,0.55625758212129395,true
2,0.80979351922958442,true
3,1.0221137216708793,true
4,1.1899020968185163,true
5,1.3221691211271669,true
6,1.4283686366569508,true
7,1.5156356483061704,true
8,1.5889399666648831,true
9,1.6517064672229984,true
10,1.7063273912071821,true
"""
# Frozen stdout of `egain classical --k 14`, the README example.
CLASSICAL_K14_CSV = (
    CLASSICAL_K10_CSV
    + """\
11,1.7545102045987291,true
12,1.7975024681747638,true
13,1.8362365613175564,true
14,1.8714239931628232,true
"""
)


class TestClassical:
    def test_csv_is_byte_identical_to_the_frozen_table(self, capsys):
        code, out, err = run(["classical", "--k", "10"], capsys)
        assert code == 0
        assert err == ""
        assert out == CLASSICAL_K10_CSV

    def test_k14_csv_is_byte_identical_to_the_frozen_table(self, capsys):
        code, out, err = run(["classical", "--k", "14"], capsys)
        assert code == 0
        assert err == ""
        assert out == CLASSICAL_K14_CSV

    @pytest.mark.parametrize("a, b, scale", [(20, 25, 5), (300, 100, 9)])
    def test_one_call_gives_the_verdicts_of_the_per_k_checks(self, a, b, scale, capsys, monkeypatch):
        # the XOR table with one entry moved first fails at the prefix 2^scale
        def moved(u, v):
            return (u ^ v) ^ ((u == a) & (v == b)).astype(u.dtype)

        monkeypatch.setattr(classical, "_xor_table", moved)
        dist, family = classical.heavy_tail(), classical.xor_family()
        verdicts = [classical.doubly_stochastic_check(family, dist, k) for k in range(1, 11)]
        assert verdicts == [k < scale for k in range(1, 11)]
        head, rows = CLASSICAL_K10_CSV.split("k,H,doubly_stochastic\n")
        expected = head + "k,H,doubly_stochastic\n" + "".join(
            f"{row.rsplit(',', 1)[0]},{str(verdict).lower()}\n"
            for row, verdict in zip(rows.splitlines(), verdicts)
        )
        code, out, err = run(["classical", "--k", "10"], capsys)
        assert (code, out, err) == (0, expected, "")

    def test_k_beyond_the_limit_exits_2(self, capsys):
        code, out, err = run(["classical", "--k", "17"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: prefix exponent must be between 1 and 16\n"

    def test_table_rows(self, capsys):
        code, out, _ = run(["classical", "--k", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
        assert rows[0] == ["k", "H", "doubly_stochastic"]
        body = rows[1:]
        assert len(body) == 5
        assert all(r[2] == "true" for r in body)
        entropies = [float(r[1]) for r in body]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))


class TestWilliamson:
    def test_report(self, tmp_path, capsys):
        path = str(tmp_path / "alpha.json")
        save_matrix(path, np.diag([2.0, 2.0, 0.7, 0.7]))
        code, out, _ = run(["williamson", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["symplectic_eigenvalues"] == pytest.approx([2.0, 0.7])
        assert report["admissibility"]["verdict"] == "positive_definite"

    def test_accepts_matrix_object_file(self, tmp_path, capsys):
        path = str(tmp_path / "alpha_obj.json")
        write_json(path, {"matrix": [[1.0, 0.2], [0.2, 0.8]]})
        code, out, _ = run(["williamson", path], capsys)
        assert code == 0
        report = json.loads(out)
        nu = math.sqrt(1.0 * 0.8 - 0.2 * 0.2)
        assert report["symplectic_eigenvalues"] == pytest.approx([nu])

    @pytest.mark.parametrize("nu, r", BELOW_THE_BOUND)
    def test_reports_squeezed_state_below_the_bound_as_indefinite(self, nu, r, tmp_path, capsys):
        path = str(tmp_path / "squeezed.json")
        save_matrix(path, squeezed_covariance(nu, r))
        code, out, _ = run(["williamson", path], capsys)
        assert code == 0
        admissibility = json.loads(out)["admissibility"]
        assert admissibility["verdict"] == "indefinite"
        assert admissibility["min_eigenvalue"] == pytest.approx(nu - 0.5, abs=1e-9)

    def test_odd_dimension_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "odd.json")
        save_matrix(path, np.eye(3))
        code, _, _ = run(["williamson", path], capsys)
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(["williamson", "/no/such/file.json"], capsys)
        assert code == 2

    def test_failed_internal_check_exits_2_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        def defect(*args, **kwargs):
            raise RuntimeError("symplectic defect 1.000e-03 exceeds tolerance")

        monkeypatch.setattr(cli, "williamson", defect)
        path = str(tmp_path / "alpha.json")
        save_matrix(path, np.eye(2))
        assert run(["williamson", path], capsys) == (
            2,
            "",
            "error: internal numerical check failed: symplectic defect 1.000e-03 exceeds tolerance\n",
        )


class TestTolerancePlumbing:
    # K = I/2 needs mu >= 3/8: this noise falls short by a relative 1e-6
    BORDERLINE = {"K": [[0.5, 0.0], [0.0, 0.5]], "mu": [[0.375 * (1 - 1e-6), 0.0], [0.0, 0.375 * (1 - 1e-6)]]}

    def test_env_var_override(self, tmp_path, capsys, monkeypatch):
        # an absurdly loose EGAIN_TOL admits a slightly deficient channel
        path = str(tmp_path / "borderline.json")
        write_json(path, self.BORDERLINE)
        monkeypatch.delenv("EGAIN_TOL", raising=False)
        code, _, _ = run(["gain", "--channel-file", path], capsys)
        assert code == 2
        monkeypatch.setenv("EGAIN_TOL", "1e-3")
        code, out, _ = run(["gain", "--channel-file", path], capsys)
        assert code == 0

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "borderline2.json")
        write_json(path, self.BORDERLINE)
        monkeypatch.setenv("EGAIN_TOL", "1e-12")
        code, _, _ = run(["gain", "--channel-file", path, "--tol", "1e-3"], capsys)
        assert code == 0

    @pytest.mark.parametrize("command", ["gain", "sweep"])
    def test_tiny_tol_is_no_refusal_of_a_channel_file(self, command, tmp_path, capsys):
        # K.T delta K of this K is skew only up to rounding, which make_channel does not test
        K = np.random.default_rng(0).standard_normal((4, 4))
        path = str(tmp_path / "channel.json")
        write_json(path, {"K": K.tolist(), "mu": (50.0 * np.eye(4)).tolist()})
        code, _, err = run([command, "--channel-file", path, "--tol", "1e-18"], capsys)
        assert (code, err) == (0, "")

    def test_bad_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EGAIN_TOL", "banana")
        code, _, err = run(["gain", "--preset", "attenuator", "--k", "0.5"], capsys)
        assert code == 2
        assert "EGAIN_TOL" in err


@pytest.mark.parametrize(
    "argv, env_tol, message",
    [
        pytest.param("classical --k 2.5", None, "--k: invalid int value: '2.5'", id="int-k"),
        pytest.param(
            "fock --preset attenuator --k 0.7 --dim 2.5",
            None,
            "--dim: not an integer: '2.5'",
            id="int-dim",
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5 --tol nan", None, "--tol: must be finite", id="tol-nan"
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5 --tol -1",
            None,
            "--tol: must be positive",
            id="tol-negative",
        ),
        pytest.param(
            "williamson alpha.json --tol 0", None, "--tol: must be positive", id="tol-zero"
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5",
            "nan",
            "EGAIN_TOL must be a finite positive number",
            id="env-tol-nan",
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5",
            "-1",
            "EGAIN_TOL must be a finite positive number",
            id="env-tol-negative",
        ),
        pytest.param("gain --preset amplifier --k inf", None, "--k: must be finite", id="k-inf"),
        pytest.param(
            "fock --preset classical-noise --k 1 --noise nan",
            None,
            "--noise: must be finite",
            id="noise-nan",
        ),
        # the Fock oracle has no noisy attenuator or amplifier, and certifies no matrix
        pytest.param(
            "fock --preset attenuator --k 0.7 --noise 0.3",
            None,
            "--noise applies only to classical-noise, not attenuator",
            id="fock-attenuator-noise",
        ),
        pytest.param(
            "fock --preset amplifier --k 1.5 --noise 0.3",
            None,
            "--noise applies only to classical-noise, not amplifier",
            id="fock-amplifier-noise",
        ),
        pytest.param(
            "fock --preset attenuator --k 0.7 --tol 1e-6",
            None,
            "unrecognized arguments: --tol 1e-6",
            id="fock-tol",
        ),
        pytest.param(
            "fock --preset attenuator --k 0.7 --channel-file missing.json",
            None,
            "unrecognized arguments: --channel-file missing.json",
            id="fock-channel-file",
        ),
        # neither channel source is silently ignored for the other
        pytest.param(
            "gain --preset amplifier --k 2 --channel-file ch.json",
            None,
            "argument --channel-file: not allowed with argument --preset",
            id="gain-preset-and-channel-file",
        ),
        pytest.param(
            "sweep --channel-file ch.json --preset amplifier --k 2",
            None,
            "argument --preset: not allowed with argument --channel-file",
            id="sweep-channel-file-and-preset",
        ),
        pytest.param(
            "classical --k 2 --n-max -5",
            None,
            "--n-max must be at least 2^k = 4",
            id="n-max-below-prefix",
        ),
        pytest.param(
            "sweep --preset attenuator --k 0.5 --beta-max inf",
            None,
            "--beta-max: must be finite",
            id="beta-max-inf",
        ),
        # the grid point that first crosses the overflow floor is named
        pytest.param(
            "sweep --preset attenuator --k 0.5 --beta-min 1e-300",
            None,
            "beta = 3.16e-113 is too small: the Gibbs covariance would overflow",
            id="beta-min-tiny",
        ),
        # finite but out-of-range numbers: numpy overflow ends the run with exit 2
        pytest.param("gain --preset amplifier --k 1e100", None, "numeric overflow", id="k-1e100"),
        pytest.param("gain --preset amplifier --k 1e200", None, "numeric overflow", id="k-1e200"),
        pytest.param(
            "gain --preset classical-noise --k 1 --noise 1e308",
            None,
            "numeric overflow",
            id="noise-1e308",
        ),
        # K = k I with k^2 below the smallest normal float: refused naming k
        pytest.param(
            "sweep --preset attenuator --k 1e-200",
            None,
            "k = 1e-200 is too small: k^2 underflows",
            id="k-1e-200",
        ),
        pytest.param(
            "gain --preset attenuator --k 1e-170",
            None,
            "k = 1e-170 is too small: k^2 underflows",
            id="k-1e-170",
        ),
        pytest.param(
            "gain --preset attenuator --k 1e-160",
            None,
            "k = 1e-160 is too small: k^2 underflows",
            id="k-1e-160",
        ),
        pytest.param(
            "sweep --preset amplifier --k 1.5 --beta-max 1e308",
            None,
            "numeric overflow",
            id="beta-max-1e308",
        ),
        # sqrt(1 + noise) rounds to 1, and the dilation's amplitudes would take log(0)
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 1e-300 --dim 8 --trials 1",
            None,
            "classical_noise noise = 1e-300 gives sqrt(1 + noise) = 1",
            id="fock-noise-1e-300",
        ),
        pytest.param(
            "fock --preset amplifier --k 1e200 --dim 8 --trials 1",
            None,
            "numeric overflow",
            id="fock-k-1e200",
        ),
        # the output mass below the cutoff underflows and cannot be renormalized
        pytest.param(
            "fock --preset amplifier --k 1e154 --dim 8 --trials 3",
            None,
            "dim = 8 is 3.232e-309, not a positive normal float",
            id="fock-k-1e154",
        ),
        # negative values with an exponent or an infinity are values, not options
        pytest.param(
            "gain --preset attenuator --k -1e308",
            None,
            "attenuator requires 0 < k < 1",
            id="k-negative-exponent",
        ),
        # a preset refusal names the refused k
        pytest.param(
            "gain --preset attenuator --k -1e308",
            None,
            "attenuator requires 0 < k < 1, got k = -1e+308\n",
            id="preset-attenuator-names-k",
        ),
        pytest.param(
            "gain --preset amplifier --k -1.5",
            None,
            "amplifier requires k > 1, got k = -1.5\n",
            id="preset-amplifier-names-k",
        ),
        pytest.param(
            "fock --preset attenuator --k 2",
            None,
            "attenuator requires 0 < k < 1, got k = 2.0\n",
            id="fock-attenuator-names-k",
        ),
        pytest.param(
            "fock --preset attenuator --k -inf",
            None,
            "--k: must be finite, got '-inf'",
            id="fock-k-negative-inf",
        ),
    ],
)
def test_bad_numbers_exit_2_cleanly(argv, env_tol, message, capsys, monkeypatch):
    if env_tol is None:
        monkeypatch.delenv("EGAIN_TOL", raising=False)
    else:
        monkeypatch.setenv("EGAIN_TOL", env_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse refuses a flag by exiting
            code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, matrix, named",
    [
        pytest.param(
            "williamson {}",
            [[1.0, 0.0], [0.0, -1.0]],
            "error: covariance matrix is not positive definite\n",
            id="williamson-indefinite",
        ),
        pytest.param(
            "sweep --preset attenuator --k 0.5 --epsilon-file {}",
            [[1.0, 2.0], [2.0, 1.0]],
            "error: Hamiltonian matrix is not positive definite\n",
            id="sweep-indefinite-epsilon",
        ),
        # a rotated squeezed vacuum past r = 4: rounding may move nu by more than the tolerance
        pytest.param(
            "williamson {}",
            squeezed_covariance(0.5, 6, 0.3).tolist(),
            "error: admissibility of the covariance matrix is undecidable at this conditioning: "
            "lambda_min(D^-1 alpha D^-1) = 2.",
            id="williamson-undecidable",
        ),
    ],
)
def test_positive_definite_refusal_names_the_matrix(argv, matrix, named, tmp_path, capsys):
    path = str(tmp_path / "matrix.json")
    save_matrix(path, np.array(matrix))
    code = main(argv.format(path).split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(named)


@pytest.mark.parametrize(
    "argv, matrix",
    [
        # an admissible squeezed state (nu = 1) along the axes, A = I
        pytest.param("williamson {}", [[1e8, 0.0], [0.0, 1e-8]], id="williamson-squeezed"),
        pytest.param(
            "sweep --preset attenuator --k 0.5 --epsilon-file {}",
            [[1e12, 0.0], [0.0, 1.0]],
            id="sweep-stiff-epsilon",
        ),
    ],
)
def test_badly_scaled_positive_definite_matrix_is_accepted(argv, matrix, tmp_path, capsys):
    path = str(tmp_path / "matrix.json")
    save_matrix(path, np.array(matrix))
    code = main(argv.format(path).split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if argv.startswith("williamson"):
        report = json.loads(out)
        assert report["symplectic_eigenvalues"] == pytest.approx([1.0], rel=1e-15)
        assert report["admissibility"]["verdict"] == "positive_definite"


@pytest.mark.parametrize(
    "argv, payload, named",
    [
        pytest.param(
            "sweep --preset attenuator --k 0.5 --epsilon-file {}",
            [[1.0, 0.5], [0.0, 1.0]],
            "Hamiltonian matrix must be symmetric (defect 7.071e-01)",
            id="epsilon",
        ),
        pytest.param(
            "gain --channel-file {}",
            {"K": [[2.0, 0.0], [0.0, 2.0]], "mu": [[1.6, 0.5], [0.0, 1.6]]},
            "channel noise mu must be symmetric (defect 7.071e-01)",
            id="channel-mu",
        ),
    ],
)
def test_asymmetric_matrix_refusal_names_the_matrix(argv, payload, named, tmp_path, capsys):
    path = str(tmp_path / "matrix.json")
    write_json(path, payload)
    code = main(argv.format(path).split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {named}\n"


@pytest.mark.parametrize(
    "argv, flag, limit",
    [
        ("fock --preset attenuator --k 0.7 --dim", "--dim", cli.FOCK_DIM_MAX),
        ("fock --preset attenuator --k 0.7 --trials", "--trials", cli.FOCK_TRIALS_MAX),
        ("sweep --preset attenuator --k 0.5 --beta-points", "--beta-points", cli.BETA_POINTS_MAX),
    ],
)
def test_size_flags_are_capped_at_parse_time(argv, flag, limit, capsys, monkeypatch):
    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached

    # nothing is allocated: both builders are stubbed out
    monkeypatch.setattr(cli, "build_dilation", refuse)
    monkeypatch.setattr(cli, "default_beta_grid", refuse)
    with pytest.raises(Reached):
        main(f"{argv} {limit}".split())
    with pytest.raises(SystemExit) as exc:
        main(f"{argv} {10**12}".split())
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"{flag}: must be at most {limit}, got '{10**12}'" in err
    assert "Traceback" not in err


def test_readme_experiment_commands_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Experiments", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("egain ")]
    assert len(commands) == 8
    for line in commands:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func)


def test_fresh_process_loads_no_scipy(tmp_path):
    # numpy is the only run-time dependency: every subcommand runs with scipy unimportable,
    # and none loads dataclasses, whose record classes cost about 1 ms each to build at import
    matrix = tmp_path / "alpha.json"
    write_json(str(matrix), [[1.5, 0.0], [0.0, 1.5]])
    runs = [
        "gain --preset attenuator --k 0.5",
        "sweep --preset amplifier --k 2 --beta-points 5",
        "fock --preset attenuator --k 0.7 --dim 20 --trials 2",
        "fock --preset classical-noise --k 1 --noise 0.3 --dim 40 --trials 2 --extremality",
        "classical --k 3",
        f"williamson {matrix}",
    ]
    argvs = [[*argv.split(), "--out", str(tmp_path / f"{i}.out")] for i, argv in enumerate(runs)]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every import of scipy now raises ImportError\n"
        "import egain.cli\n"
        f"print([egain.cli.main(argv) for argv in {argvs!r}])\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == str([0] * len(runs))
    assert result.stderr == ""


# The valid real matrix each file role holds, and a one-mode command that reads it.
MATRIX_ROLES = {
    "K": ("gain --channel-file {}", [[0.5, 0.0], [0.0, 0.5]]),
    "mu": ("gain --channel-file {}", [[0.5, 0.0], [0.0, 0.5]]),
    "epsilon": (
        "sweep --preset attenuator --k 0.5 --beta-points 3 --epsilon-file {}",
        [[1.0, 0.0], [0.0, 1.0]],
    ),
    "alpha": ("williamson {}", [[1.5, 0.0], [0.0, 1.5]]),
}


def _matrix_file(tmp_path, role, matrix):
    """The file the command of ``role`` reads: ``matrix`` in that role, the valid one elsewhere."""
    path = str(tmp_path / "matrix.json")
    if role in ("K", "mu"):
        write_json(path, {"K": MATRIX_ROLES["K"][1], "mu": MATRIX_ROLES["mu"][1], role: matrix})
    else:
        write_json(path, {"matrix": matrix})
    return path


@pytest.mark.parametrize("role", sorted(MATRIX_ROLES))
@pytest.mark.parametrize(
    "matrix, message",
    [
        # each of these exited 0 before: the imaginary part, bool and string were coerced
        pytest.param(
            [[[0.5, 3.0], 0.0], [0.0, 0.5]],
            "matrix entries must be real numbers, got [0.5, 3.0]",
            id="re-im-pair",
        ),
        pytest.param(
            [[True, False], [False, True]], "matrix entries must be real numbers, got true", id="bool"
        ),
        pytest.param(
            [["1.5", 0.0], [0.0, 1.5]], 'matrix entries must be real numbers, got "1.5"', id="string"
        ),
        pytest.param(
            [1.5, 1.5], "a matrix must be a non-empty JSON array of rows, got [1.5, 1.5]", id="1-d"
        ),
        pytest.param(
            [[[1.5], [0.0]], [[0.0], [1.5]]],
            "matrix entries must be real numbers, got [1.5]",
            id="3-d",
        ),
    ],
)
def test_matrix_files_hold_real_numbers_only(role, matrix, message, tmp_path, capsys):
    argv = MATRIX_ROLES[role][0].format(_matrix_file(tmp_path, role, matrix))
    code, out, err = run(argv.split(), capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _mostly(sane, edge):
    """Three draws in four from ``sane``, so most invocations get past the parser."""
    return st.integers(0, 3).flatmap(lambda i: sane if i else edge)


# Numbers at the edges of float parsing and of the computations behind each flag.
EDGE_NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "-0", "0", "1e-300", "-1e-300", "5e-324",
                "-1", str(10**30), str(-(10**30)), str(10**400), "half", ""]
FUZZ_NUMBERS = _mostly(
    st.sampled_from(["0.5", "0.7", "1", "1.5", "2", "0.3"]), st.sampled_from(EDGE_NUMBERS)
)
# --k values each preset admits; a tiny attenuator k draws extremality campaigns that exit 3
PRESET_K = {"attenuator": ["0.5", "0.7", "1e-100"], "amplifier": ["1.5", "2"], "classical-noise": ["1"]}
FUZZ_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 10**30, 10**400, True, False, None, "1.5", [0.5, 3.0], []]),
)


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


FUZZ_MATRICES = _mostly(
    st.one_of(
        st.sampled_from([1.5 * np.eye(2), 0.5 * np.eye(2), np.eye(4), 2.0 * np.eye(2)]).map(
            lambda m: m.tolist()
        ),
        st.sampled_from([1, 2, 4]).flatmap(lambda n: _square(n, st.floats(-3.0, 3.0))),
    ),
    st.one_of(
        st.integers(1, 4).flatmap(lambda n: _square(n, FUZZ_ENTRIES)),
        st.lists(st.lists(FUZZ_ENTRIES, max_size=3), max_size=3),  # ragged and empty
        st.lists(FUZZ_ENTRIES, max_size=4),  # 1-d
        st.just([[[1.5, 0.0], [0.0, 1.5]]]),  # 3-d
        st.sampled_from([None, 1.5, "[[1.5]]", {}, {"matrix": None}]),
    ),
)


@st.composite
def _fuzz_invocations(draw):
    """(argv, files) for one CLI call; files maps a name in argv to its JSON payload."""

    def number():
        return draw(FUZZ_NUMBERS)

    def pick(sane, edge):
        return draw(_mostly(st.sampled_from(sane), st.sampled_from(edge)))

    command = draw(st.sampled_from(["gain", "sweep", "fock", "classical", "williamson"]))
    argv, files = [command], {}
    if command == "classical":
        argv += ["--k", pick([str(k) for k in range(1, 9)], ["-1", "0", "2.5", "nan", str(10**30)])]
        if draw(st.booleans()):
            argv += ["--n-max", pick(["300", "100000"], ["0", "-5", "1e9", str(10**30)])]
        return argv, files
    if command == "williamson":
        files["alpha.json"] = draw(FUZZ_MATRICES)
        argv += ["alpha.json"]
    elif command == "fock" or draw(st.booleans()):
        preset = draw(st.sampled_from(sorted(PRESET_K)))
        argv += ["--preset", preset, "--k", pick(PRESET_K[preset], EDGE_NUMBERS)]
        if preset == "classical-noise" or not draw(st.integers(0, 3)):
            argv += ["--noise", number()]
    else:
        files["channel.json"] = draw(
            _mostly(st.fixed_dictionaries({"K": FUZZ_MATRICES, "mu": FUZZ_MATRICES}), FUZZ_MATRICES)
        )
        argv += ["--channel-file", "channel.json"]
    if command == "fock":
        # 4, 6 and 8 lie below the campaign support of every preset but the amplifier's 6
        argv += ["--dim", pick(["4", "6", "8", "16", "24"], ["-1", "0", "2", "nan", str(10**30)])]
        argv += ["--trials", pick(["1", "2", "3"], ["-1", "0", "1e308", str(10**30)])]
        argv += ["--extremality"] if draw(st.booleans()) else []
    elif draw(st.booleans()):
        argv += ["--tol", number()]
    if command == "sweep":
        for flag in ("--beta-max", "--beta-min"):
            argv += [flag, number()] if draw(st.booleans()) else []
        argv += ["--beta-points", pick(["1", "5", "25"], ["-1", "0", "nan", str(10**30)])]
        if draw(st.booleans()):
            files["epsilon.json"] = draw(FUZZ_MATRICES)
            argv += ["--epsilon-file", "epsilon.json"]
    return argv, files


TINY_K_EXTREMALITY = "fock --preset attenuator --k 1e-100 --dim 8 --trials 3 --extremality".split()


@settings(max_examples=400, deadline=None)
@given(invocation=_fuzz_invocations(), env_tol=st.none() | FUZZ_NUMBERS)
@example(invocation=(TINY_K_EXTREMALITY, {}), env_tol=None)  # exits 3: a degenerate Gaussian image
def test_every_invocation_keeps_the_exit_code_contract(invocation, env_tol):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ):
        os.environ.pop("EGAIN_TOL", None)
        if env_tol is not None:
            os.environ["EGAIN_TOL"] = env_tol
        for name, payload in files.items():
            write_json(os.path.join(directory, name), payload)
        argv = [os.path.join(directory, a) if a in files else a for a in argv]
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag by exiting
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # exit 2 also covers a failed self-check of the numerics, which no input may reach
    assert "internal numerical check failed" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
    if argv[0] == "fock" and code in (0, 4):  # the states are drawn on at most dim levels
        report = json.loads(out.getvalue())
        assert report["support"] == min(CAMPAIGN_SUPPORT[report["kind"]], report["dim"]), argv
