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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egain.cli as cli
from egain import channels, classical, fock, symplectic
from conftest import BELOW_THE_BOUND, save_matrix, squeezed_covariance
from egain.cli import main
from egain.errors import HypothesisViolationError
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

        monkeypatch.setattr(channels, "gain_beta_sweep", fake_sweep)  # where cmd_sweep looks it up
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

    def test_byte_identical_for_same_seed(self, tmp_path, capsys, monkeypatch):
        paths = [str(tmp_path / name) for name in ("a.json", "b.json", "cached.json")]
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
        for path in paths[:2]:
            assert main(argv + ["--out", path]) == 0
        # a dilation whose support a campaign already computed writes the same bytes
        channel = fock.build_dilation("amplifier", 1.5)
        assert "_support" not in vars(channel)  # build_dilation leaves it to the first campaign
        fock.lower_bound_campaign(channel, 1, np.random.default_rng(0))
        assert "_support" in vars(channel)
        monkeypatch.setattr(fock, "build_dilation", lambda *args, **kwargs: channel)
        assert main(argv + ["--out", paths[2]]) == 0
        capsys.readouterr()
        reports = [open(path, "rb").read() for path in paths]
        assert reports[0] == reports[1] == reports[2]

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

    @pytest.mark.parametrize(
        "argv, support, code",
        [
            # inputs on every level are no truncation error for an attenuator, which moves no mass
            # past the cutoff, so the cap of 10 levels is cut to the 8 that exist
            ("--preset attenuator --k 0.7 --dim 8", 8, 0),
            ("--preset attenuator --k 0.7", 10, 0),
            ("--preset amplifier --k 1.5", 6, 0),
            ("--preset classical-noise --k 1 --noise 0.3", 10, 0),
            ("--preset attenuator --k 0.7 --noise 0.2", 10, 0),
            ("--preset amplifier --k 1.5 --noise 0.2", 5, 0),
            ("--preset amplifier --k 1.5 --dim 200", 10, 0),
            # no support meets the target: the campaign draws on the cap, and no trial is reliable
            ("--preset amplifier --k 3 --dim 16", 10, 4),
            ("--preset amplifier --k 3", 10, 4),
        ],
    )
    def test_support_is_the_most_levels_whose_slack_bound_meets_the_target(self, argv, support, code, capsys):
        returned, out, _ = run(["fock", *argv.split(), "--trials", "4", "--seed", "0"], capsys)
        report = json.loads(out)
        assert (returned, report["support"], len(report["records"])) == (code, support, 4)
        assert report["reliable_count"] == (4 if code == 0 else 0)
        assert (report["slack_bound"] <= 2e-3) == (code == 0)

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

    @pytest.mark.parametrize(
        "argv",
        ["--preset attenuator --k 0.7 --noise 0.2", "--preset amplifier --k 1.5 --noise 0.2 --extremality"],
        ids=["attenuator", "amplifier-extremality"],
    )
    def test_noisy_preset_campaign_holds_on_every_trial(self, capsys, argv):
        code, out, err = run(["fock", *argv.split()], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["noise"] == 0.2
        assert report["holds_count"] == report["reliable_count"] == report["trials"] == 100

    def test_hypothesis_violation_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise HypothesisViolationError("degenerate input")

        monkeypatch.setattr(fock, "extremality_campaign", boom)  # where cmd_fock looks it up
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
# All five were frozen again when the campaign support came from the proved slack: each
# report gained ``slack_bound`` and was otherwise byte for byte the same, except the exit-4
# amplifier's, whose support no bound certifies and went from 6 to the cap of 10 levels.
# The gain, sweep, williamson and exit-4 digests were frozen before every
# report came to be written from one place in ``main``.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        pytest.param(
            "fock --preset amplifier --k 1.5 --trials 20 --seed 3",
            0,
            "2d05f83bd5e92d070af355ea4d20eedb",
            id="amplifier-lower-bound",
        ),
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 0.3 --extremality --trials 10 --seed 3",
            0,
            "b03d1c1b68f512e3d9c98063764465e1",
            id="classical-noise-extremality",
        ),
        # three chunks at d = 60: each chunk's references are taken as one stack
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 0.3 --extremality --trials 40 --seed 3",
            0,
            "1da2f95014e8970aec60724b5ab11588",
            id="classical-noise-extremality-three-chunks",
        ),
        # attenuator outputs occupy fewer than dim levels
        pytest.param(
            "fock --preset attenuator --k 0.7 --trials 20 --seed 3",
            0,
            "bc4c6741542dc500f67c313564487cd9",
            id="attenuator-lower-bound",
        ),
        # too few reliable trials: the report is written and the exit code is 4
        pytest.param(
            "fock --preset amplifier --k 3 --dim 16 --trials 4 --seed 1",
            4,
            "ef5973d08b5a4bc4f8cecbb817bbc0e5",
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
    "argv",
    [
        pytest.param("gain --preset attenuator --k 2", id="refused-preset"),
        pytest.param("williamson missing.json", id="missing-file"),
    ],
)
def test_failing_invocation_leaves_an_existing_out_file_untouched(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("report.out").write_text("an earlier report\n")
    code, out, err = run([*argv.split(), "--out", "report.out"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert os.listdir() == ["report.out"]
    assert pathlib.Path("report.out").read_text() == "an earlier report\n"


# Frozen stdout of `egain classical --k 10`: the CSV must stay byte-identical.
CLASSICAL_K10_CSV = """\
# seed: none
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
        # no check of the package raises RuntimeError: the stub stands for a fault from below it
        def fault(*args, **kwargs):
            raise RuntimeError("LAPACK routine returned an inconsistent result")

        monkeypatch.setattr(symplectic, "williamson", fault)  # where cmd_williamson looks it up
        path = str(tmp_path / "alpha.json")
        save_matrix(path, np.eye(2))
        assert run(["williamson", path], capsys) == (
            2,
            "",
            "error: internal numerical check failed: LAPACK routine returned an inconsistent result\n",
        )


class TestTolerancePlumbing:
    # K = I/2 needs mu >= 3/8: this noise falls short by a relative 1e-6
    BORDERLINE = {"K": [[0.5, 0.0], [0.0, 0.5]], "mu": [[0.375 * (1 - 1e-6), 0.0], [0.0, 0.375 * (1 - 1e-6)]]}

    def test_env_var_override(self, tmp_path, capsys, monkeypatch):
        # an absurdly loose --tol admits a slightly deficient channel; an ambient EGAIN_TOL does not
        path = str(tmp_path / "borderline.json")
        write_json(path, self.BORDERLINE)
        monkeypatch.setenv("EGAIN_TOL", "1e-3")
        code, _, _ = run(["gain", "--channel-file", path], capsys)
        assert code == 2
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


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param("classical --k 2.5", "--k: invalid int value: '2.5'", id="int-k"),
        pytest.param(
            "fock --preset attenuator --k 0.7 --dim 2.5",
            "--dim: not an integer: '2.5'",
            id="int-dim",
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5 --tol nan", "--tol: must be finite", id="tol-nan"
        ),
        pytest.param(
            "gain --preset attenuator --k 0.5 --tol -1",
            "--tol: must be positive",
            id="tol-negative",
        ),
        pytest.param(
            "williamson alpha.json --tol 0", "--tol: must be positive", id="tol-zero"
        ),
        pytest.param("gain --preset amplifier --k inf", "--k: must be finite", id="k-inf"),
        pytest.param(
            "fock --preset classical-noise --k 1 --noise nan",
            "--noise: must be finite",
            id="noise-nan",
        ),
        # the Fock oracle certifies no matrix
        pytest.param(
            "fock --preset attenuator --k 0.7 --tol 1e-6",
            "unrecognized arguments: --tol 1e-6",
            id="fock-tol",
        ),
        pytest.param(
            "fock --preset attenuator --k 0.7 --channel-file missing.json",
            "unrecognized arguments: --channel-file missing.json",
            id="fock-channel-file",
        ),
        # neither channel source is silently ignored for the other
        pytest.param(
            "gain --preset amplifier --k 2 --channel-file ch.json",
            "argument --channel-file: not allowed with argument --preset",
            id="gain-preset-and-channel-file",
        ),
        pytest.param(
            "sweep --channel-file ch.json --preset amplifier --k 2",
            "argument --preset: not allowed with argument --channel-file",
            id="sweep-channel-file-and-preset",
        ),
        pytest.param(
            "classical --k 2 --n-max 300",
            "unrecognized arguments: --n-max 300",
            id="classical-n-max",
        ),
        pytest.param(
            "sweep --preset attenuator --k 0.5 --beta-max inf",
            "--beta-max: must be finite",
            id="beta-max-inf",
        ),
        # the grid point that first crosses the overflow floor is named
        pytest.param(
            "sweep --preset attenuator --k 0.5 --beta-min 1e-300",
            "beta = 3.16e-113 is too small: the Gibbs covariance would overflow",
            id="beta-min-tiny",
        ),
        # a preset noise entry mu that squares past the float range: refused naming k or noise
        pytest.param(
            "gain --preset amplifier --k 1e100",
            "k = 1e+100 is too large: the noise entry mu = 5e+199 squares past the float range",
            id="k-1e100",
        ),
        pytest.param(
            "gain --preset amplifier --k 1.378e77",
            "k = 1.38e+77 is too large: the noise entry mu = 9.49e+153 squares",
            id="k-1.378e77",
        ),
        pytest.param(
            "gain --preset classical-noise --k 1 --noise 1e308",
            "noise = 1e+308 is too large: the noise entry mu = 1e+308 squares past the float range",
            id="noise-1e308",
        ),
        pytest.param(
            "sweep --preset attenuator --k 0.5 --noise 9.481e153",
            "noise = 9.48e+153 is too large: the noise entry mu = 9.48e+153 squares",
            id="noise-9.481e153",
        ),
        # K = k I with k^2 below the smallest normal float or above the largest: refused naming k
        pytest.param(
            "sweep --preset attenuator --k 1e-200",
            "k = 1e-200 is too small: k^2 underflows",
            id="k-1e-200",
        ),
        pytest.param(
            "gain --preset attenuator --k 1e-170",
            "k = 1e-170 is too small: k^2 underflows",
            id="k-1e-170",
        ),
        pytest.param(
            "gain --preset attenuator --k 1e-160",
            "k = 1e-160 is too small: k^2 underflows",
            id="k-1e-160",
        ),
        pytest.param(
            "gain --preset amplifier --k 1e200",
            "k = 1e+200 is too large: k^2 overflows",
            id="k-1e200",
        ),
        pytest.param(
            "sweep --preset amplifier --k 1.5 --beta-max 1e308",
            "numeric overflow",
            id="beta-max-1e308",
        ),
        pytest.param(
            "fock --preset classical-noise --k 1 --dim 8 --trials 1",
            "classical_noise requires noise > 0\n",
            id="fock-classical-noise-without-noise",
        ),
        # sqrt(max(1, k^2) + noise) rounds to max(1, k), and a stage's amplitudes would take log(0)
        pytest.param(
            "fock --preset classical-noise --k 1 --noise 1e-300 --dim 8 --trials 1",
            "classical_noise k = 1.0, noise = 1e-300 gives stage parameters 1.0, 1.0",
            id="fock-noise-1e-300",
        ),
        pytest.param(
            "fock --preset amplifier --k 1.5 --noise 2e-16 --dim 8 --trials 1",
            "amplifier k = 1.5, noise = 2e-16 gives stage parameters 1.0, 1.5",
            id="fock-amplifier-noise-2e-16",
        ),
        pytest.param(
            "fock --preset attenuator --k 0.7 --noise -0.2",
            "noise must be nonnegative and finite, got -0.2\n",
            id="fock-attenuator-noise-negative",
        ),
        pytest.param(
            "fock --preset amplifier --k 1e200 --dim 8 --trials 1",
            "error: k = 1e+200 is too large: k^2 overflows\n",
            id="fock-k-1e200",
        ),
        # the output mass below the cutoff underflows and cannot be renormalized; no support
        # is certified, so the first trial is drawn on all 8 levels
        pytest.param(
            "fock --preset amplifier --k 1e154 --dim 8 --trials 3",
            "dim = 8 is 8.656e-309, not a positive normal float",
            id="fock-k-1e154",
        ),
        # negative values with an exponent or an infinity are values, not options
        pytest.param(
            "gain --preset attenuator --k -1e308",
            "attenuator requires 0 < k < 1",
            id="k-negative-exponent",
        ),
        # a preset refusal names the refused k
        pytest.param(
            "gain --preset attenuator --k -1e308",
            "attenuator requires 0 < k < 1, got k = -1e+308\n",
            id="preset-attenuator-names-k",
        ),
        pytest.param(
            "gain --preset amplifier --k -1.5",
            "amplifier requires k > 1, got k = -1.5\n",
            id="preset-amplifier-names-k",
        ),
        pytest.param(
            "fock --preset attenuator --k 2",
            "attenuator requires 0 < k < 1, got k = 2.0\n",
            id="fock-attenuator-names-k",
        ),
        # a preset k is refused before the noise, and in fock before the cutoff
        pytest.param(
            "fock --preset attenuator --k 2 --dim 2",
            "error: attenuator requires 0 < k < 1, got k = 2.0\n",
            id="fock-k-before-dim",
        ),
        pytest.param(
            "gain --preset attenuator --k 2 --noise -1",
            "error: attenuator requires 0 < k < 1, got k = 2.0\n",
            id="k-before-noise",
        ),
        pytest.param(
            "fock --preset attenuator --k -inf",
            "--k: must be finite, got '-inf'",
            id="fock-k-negative-inf",
        ),
    ],
)
def test_bad_numbers_exit_2_cleanly(argv, message, capsys):
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
    "argv, gain",
    [
        ("gain --preset amplifier --k 1.377e77", 2.0 * math.log(1.377e77)),
        ("gain --preset classical-noise --k 1 --noise 9.48e153", 0.0),
    ],
    ids=["amplifier-k", "classical-noise"],
)
def test_preset_noise_just_inside_the_float_range_is_accepted(argv, gain, capsys):
    # the other side of the noise-entry refusal: no warning, and the closed form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv.split(), capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["gain_closed_form"] == pytest.approx(gain, rel=1e-15)


@pytest.mark.parametrize(
    "preset",
    [
        "attenuator --k 2",
        "amplifier --k 1e200",
        "classical-noise --k 2 --noise 0.3",
        "amplifier --k 1.5 --noise -0.1",
        "attenuator --k 2 --noise -1",
    ],
)
def test_a_preset_outside_its_domain_gets_one_refusal_from_every_subcommand(preset, capsys):
    results = {run(f"{command} --preset {preset}".split(), capsys) for command in ("gain", "sweep", "fock")}
    assert len(results) == 1
    code, out, err = results.pop()
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("command", ["gain", "sweep --beta-points 2"])
def test_negative_zero_noise_is_reported_as_zero(command, capsys):
    # the preset domain reads -0.0 as no noise, so the report matches one for --noise 0
    reports = [run(f"{command} --preset attenuator --k 0.5 --noise {noise}".split(), capsys) for noise in ("-0", "0")]
    assert reports[0] == reports[1]
    assert ("noise: 0.0" if command != "gain" else '"noise": 0.0') in reports[0][1]


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
    monkeypatch.setattr(fock, "build_dilation", refuse)
    monkeypatch.setattr(channels, "default_beta_grid", refuse)
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
    result = _fresh_process(script)
    assert result.stdout.splitlines()[-1] == str([0] * len(runs))
    assert result.stderr == ""


def _fresh_process(script):
    """Run ``script`` in a new interpreter on this package's sources, with 80-column usage lines."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
        capture_output=True,
        text=True,
        check=True,
    )


def test_import_egain_loads_no_numpy():
    # the six modules are in sys.modules, where a tracer looks every module up, as LazyLoader's
    # type: each runs on the first read of one of its attributes
    script = (
        "import importlib.util, sys\n"
        "import egain\n"
        "names = ('symplectic', 'gaussian', 'channels', 'matio', 'fock', 'classical')\n"
        "print('numpy' in sys.modules, [type(sys.modules[f'egain.{n}']) is importlib.util._LazyModule for n in names])\n"
    )
    assert _fresh_process(script).stdout == f"False {[True] * 6}\n"


# Exit code and stderr of each refusal that argv alone decides, frozen when it was added.
ARGV_REFUSALS = {
    "--help": (0, ""),
    "gain --preset attenuator --k half": (
        2,
        "usage: egain gain [-h] [--out OUT]\n"
        "                  [--preset {attenuator,amplifier,classical-noise}] [--k K]\n"
        "                  [--noise NOISE] [--channel-file CHANNEL_FILE] [--tol TOL]\n"
        "egain gain: error: argument --k: not a number: 'half'\n",
    ),
    "sweep --preset attenuator --k 0.5 --beta-max 1e-3 --beta-min 1e-2": (2, "error: need beta_max > beta_min > 0\n"),
    "sweep --preset attenuator --beta-points 1": (2, "error: beta grid points must be an integer >= 2, got 1\n"),
    "classical --k 0": (2, "error: prefix exponent must be between 1 and 16\n"),
    "fock --k 0.7": (2, "error: fock campaigns require --preset\n"),
    "gain": (2, "error: provide --preset with --k, or --channel-file\n"),
    "gain --preset attenuator --k 2": (2, "error: attenuator requires 0 < k < 1, got k = 2.0\n"),
    "sweep --preset classical-noise --k 2": (2, "error: classical-noise requires k = 1, got k = 2.0\n"),
    "fock --preset amplifier --k 1e200": (2, "error: k = 1e+200 is too large: k^2 overflows\n"),
    "gain --preset amplifier --k 1.5 --noise -0.1": (2, "error: noise must be nonnegative and finite, got -0.1\n"),
    "fock --preset attenuator --k 0.7 --seed -1": (
        2,
        "usage: egain fock [-h] [--out OUT]\n"
        "                  [--preset {attenuator,amplifier,classical-noise}] [--k K]\n"
        "                  [--noise NOISE] [--dim DIM] [--trials TRIALS] [--seed SEED]\n"
        "                  [--extremality]\n"
        "egain fock: error: argument --seed: must be at least 0, got '-1'\n",
    ),
}


def test_argv_refusals_and_help_load_no_numpy():
    # each runs as `python -m egain ARGV` does; `--help` prints its usage to stdout
    script = (
        "import contextlib, io, json, runpy, sys\n"
        "results = []\n"
        f"for argv in {list(ARGV_REFUSALS)!r}:\n"
        "    sys.argv = ['egain', *argv.split()]\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            runpy.run_module('egain', run_name='__main__')\n"
        "        except SystemExit as exc:\n"
        "            results.append([exc.code, out.getvalue().split('\\n')[0], err.getvalue()])\n"
        "print(json.dumps(['numpy' in sys.modules, results]))\n"
    )
    loaded, results = json.loads(_fresh_process(script).stdout)
    assert loaded is False
    assert [(code, err) for code, _, err in results] == list(ARGV_REFUSALS.values())
    assert results[0][1] == "usage: egain [-h] {gain,sweep,fock,classical,williamson} ..."
    assert [first for _, first, _ in results[1:]] == [""] * (len(ARGV_REFUSALS) - 1)


# Matrix files, each written as it stands: JSON text, text the JSON module would not write, or bytes.
EYE2, EYE4 = "[[1, 0], [0, 1]]", "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
REFUSED_FILES = {
    "ragged.json": '{"matrix": [[1.0, 0.0], [0.0]]}',
    "empty.json": "[]",
    "flat.json": "[1.5, 1.5]",
    "cube.json": "[[[1.5], [0.0]], [[0.0], [1.5]]]",
    "bool.json": "[[true, false], [false, true]]",
    "string.json": '[["1.5", 0.0], [0.0, 1.5]]',
    "complex.json": "[[[0.5, 3.0], 0.0], [0.0, 0.5]]",
    "nan.json": "[[NaN, 0.0], [0.0, 1.5]]",
    "huge.json": "[[1.5, 1e999], [0.0, 1.5]]",
    "bigint.json": f"[[{10**400}, 0], [0, 1]]",
    "nokey.json": '{"K": [[1.0]]}',
    "odd.json": "[[1.5]]",
    "wide.json": "[[1.5, 0.0]]",
    "eye4.json": EYE4,
    "bad.json": "[[1, 0], [0, 1]",
    "latin.json": b"\xff[[1]]",
    "no-K.json": f'{{"mu": {EYE2}}}',
    "no-mu.json": f'{{"K": {EYE2}}}',
    "odd-K.json": '{"K": [[1.0]], "mu": [[1.0]]}',
    "wide-K.json": f'{{"K": [[1, 0, 0, 0], [0, 1, 0, 0]], "mu": {EYE4}}}',
    "mu4.json": f'{{"K": {EYE2}, "mu": {EYE4}}}',
    "two-modes.json": f'{{"K": {EYE4}, "mu": {EYE4}}}',
    "ragged-mu.json": f'{{"K": {EYE2}, "mu": [[1.0, 0.0], [0.0]]}}',
    "below-bound.json": '{"K": [[2.0, 0.0], [0.0, 2.0]], "mu": [[0.1, 0.0], [0.0, 0.1]]}',
}
# Exit code 2 and the stderr of each refusal that the argv and the files decide, frozen when it was added.
FILE_REFUSALS = {
    "williamson ragged.json": "matrix rows must all have the same length",
    "williamson empty.json": "a matrix must be a non-empty JSON array of rows, got []",
    "williamson flat.json": "a matrix must be a non-empty JSON array of rows, got [1.5, 1.5]",
    "williamson cube.json": "matrix entries must be real numbers, got [1.5]",
    "williamson bool.json": "matrix entries must be real numbers, got true",
    "sweep --preset attenuator --k 0.5 --epsilon-file string.json": 'matrix entries must be real numbers, got "1.5"',
    "williamson complex.json": "matrix entries must be real numbers, got [0.5, 3.0]",
    "williamson nan.json": "matrix entries must be finite numbers, got NaN",
    "sweep --preset amplifier --k 2 --epsilon-file huge.json": "matrix entries must be finite numbers, got Infinity",
    "williamson bigint.json": "numeric overflow: int too large to convert to float; input out of range",
    "williamson nokey.json": "nokey.json: matrix object files need a 'matrix' key",
    "gain --channel-file no-K.json": "channel file must contain 'K' and 'mu' matrices",
    "sweep --channel-file no-mu.json": "channel file must contain 'K' and 'mu' matrices",
    "gain --channel-file odd-K.json": "K must be square with even dimension",
    "gain --channel-file wide-K.json": "K must be square with even dimension",
    "williamson odd.json": "covariance matrix must be square with even dimension",
    "williamson wide.json": "covariance matrix must be square with even dimension",
    "gain --channel-file mu4.json": "channel noise mu must be 2x2, got (4, 4)",
    "sweep --preset attenuator --k 0.5 --epsilon-file eye4.json": "Hamiltonian matrix must be 2x2, got (4, 4)",
    "sweep --channel-file two-modes.json --epsilon-file wide.json": "Hamiltonian matrix must be 4x4, got (1, 2)",
    "gain --channel-file ragged-mu.json": "matrix rows must all have the same length",
    "williamson missing.json": "[Errno 2] No such file or directory: 'missing.json'",
    "gain --channel-file bad.json": "bad.json: not valid JSON: Expecting ',' delimiter: line 1 column 16 (char 15)",
    "williamson latin.json": "latin.json: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
    "invalid start byte",
    # a file refusal comes before every refusal that needs numpy: the channel's certificate,
    # a k whose square underflows and a beta too small to represent
    "sweep --channel-file below-bound.json --epsilon-file ragged.json": "matrix rows must all have the same length",
    "sweep --preset attenuator --k 1e-200 --epsilon-file nan.json": "matrix entries must be finite numbers, got NaN",
    "sweep --preset attenuator --k 0.5 --beta-min 1e-300 --epsilon-file odd.json": (
        "Hamiltonian matrix must be 2x2, got (1, 1)"
    ),
}


def test_file_refusals_load_no_numpy(tmp_path):
    # each runs as `python -m egain ARGV` does, in the directory that holds the files
    for name, text in REFUSED_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    script = (
        "import contextlib, io, json, os, runpy, sys\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "results = []\n"
        f"for argv in {list(FILE_REFUSALS)!r}:\n"
        "    sys.argv = ['egain', *argv.split()]\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            runpy.run_module('egain', run_name='__main__')\n"
        "        except SystemExit as exc:\n"
        "            results.append([exc.code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(['numpy' in sys.modules, results]))\n"
    )
    loaded, results = json.loads(_fresh_process(script).stdout)
    assert results == [[2, "", f"error: {message}\n"] for message in FILE_REFUSALS.values()]
    assert loaded is False


def test_json_nested_past_the_parser_depth_is_refused_naming_the_file(tmp_path, capsys):
    # the parser's RecursionError is no failed numerical check
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["williamson", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON: ") and "internal" not in err


# Per subcommand, the lazy egain modules a fresh child runs; every other one stays unrun.
CORE = ("symplectic", "gaussian", "channels")
MODULES_RUN = {
    "gain --preset attenuator --k 0.5": ("symplectic", "channels", "matio"),
    "gain --channel-file {channel}": ("symplectic", "channels", "matio"),
    "sweep --preset amplifier --k 2 --beta-points 5": ("symplectic", "channels", "matio", "gaussian"),
    "sweep --channel-file {channel} --epsilon-file {matrix} --beta-points 5": (
        "symplectic", "channels", "matio", "gaussian"
    ),
    "williamson {matrix}": ("symplectic", "matio"),
    "fock --preset attenuator --k 0.7 --dim 20 --trials 2": ("fock", "matio"),
    "fock --preset classical-noise --k 1 --noise 0.3 --dim 20 --trials 2 --extremality": ("fock", "matio", *CORE),
    "classical --k 3": ("classical", "matio"),
}


@pytest.mark.parametrize("argv", list(MODULES_RUN))
def test_fresh_process_runs_only_the_modules_its_subcommands_use(argv, tmp_path):
    # every lazy module is in sys.modules from `import egain` on, where a tracer looks every
    # module up, but its code runs on the first read of one of its attributes; until then the
    # module's type is LazyLoader's _LazyModule, and after it the plain module type; and no
    # subcommand loads numpy.polynomial, which the stored quadrature rule of `classical` avoids
    matrix, channel = tmp_path / "alpha.json", tmp_path / "channel.json"
    write_json(str(matrix), [[1.5, 0.0], [0.0, 1.5]])
    write_json(str(channel), {"K": [[0.5, 0.0], [0.0, 0.5]], "mu": [[0.5, 0.0], [0.0, 0.5]]})
    args = [*argv.format(matrix=matrix, channel=channel).split(), "--out", str(tmp_path / "report")]
    script = (
        "import importlib.util, sys, types\n"
        "import egain.cli\n"
        "names = ('symplectic', 'gaussian', 'channels', 'fock', 'classical', 'matio')\n"
        f"print(egain.cli.main({args!r}))\n"
        "kinds = {importlib.util._LazyModule: 'idle', types.ModuleType: 'ran'}\n"
        "print(sorted(n for n in names if kinds[type(sys.modules[f'egain.{n}'])] == 'ran'))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    result = _fresh_process(script)
    assert result.stdout.splitlines() == ["0", str(sorted(MODULES_RUN[argv])), "False"]
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
        # 4, 6 and 8 lie below the campaign support's cap of 10 levels
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
NOISY_AMPLIFIER = "fock --preset amplifier --k 2 --noise 0.3 --dim 8 --trials 3 --extremality".split()


@settings(max_examples=400, deadline=None)
@given(invocation=_fuzz_invocations())
@example(invocation=(TINY_K_EXTREMALITY, {}))  # exits 3: a degenerate Gaussian image
@example(invocation=(NOISY_AMPLIFIER, {}))  # both stages, which the derandomized draws never reach
def test_every_invocation_keeps_the_exit_code_contract(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
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
    if argv[0] == "fock" and code in (0, 4):  # the states are drawn on the dilation's support
        report = json.loads(out.getvalue())
        channel = fock.build_dilation(report["kind"], report["k"], report["dim"], report["noise"])
        assert (report["support"], report["slack_bound"]) == channel._support, argv
