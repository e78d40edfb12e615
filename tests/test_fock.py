"""Tests for the truncated Fock-space oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from egain import channels, fock
from egain.channels import apply_to_covariance, gaussian_gain, preset_channel
from egain.errors import HypothesisViolationError, InadmissibleInputError
from egain.fock import (
    DilationChannel,
    apply_channel,
    build_dilation,
    covariance_of,
    fock_density,
    number_state,
    lower_bound_campaign,
    extremality_campaign,
    random_low_support_state,
    slack_from_deficit,
    thermal_state,
    verify_lower_bound,
    verify_extremality,
    von_neumann_entropy,
)
from egain.gaussian import mode_entropy
from egain.presets import PRESET_NAMES
from egain.symplectic import DEFAULT_TOL

DIM = 60


def annihilation(dim):
    """Annihilation operator a|n> = sqrt(n)|n-1> truncated to dim levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadratures(dim):
    """Quadrature operators q = (a + a†)/sqrt2, p = -i(a - a†)/sqrt2."""
    a = annihilation(dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    return q, p


def dense_covariance(state):
    """Reference moments: tr(rho op) for q, p and their symmetrized products, dense."""
    ops = quadratures(state.dim)
    mean = np.array([np.trace(state.rho @ op).real for op in ops])
    second = np.array([[np.trace(state.rho @ (0.5 * (a @ b + b @ a))).real for b in ops] for a in ops])
    return mean, second - np.outer(mean, mean)


def unitary_from_skew(G):
    """exp(G) for anti-Hermitian G, via the Hermitian eigenproblem of iG."""
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


def ladder_column(k, n, dim):
    """Kraus amplitudes on input level n, by exponentiating the dilation, as a reference.

    The block from (system n, environment vacuum) is exponentiated alone: the
    beamsplitter, cos(theta) = k < 1, runs down the ladder (n - j, j), j <= n,
    exactly; the two-mode squeezer, cosh(r) = k > 1, runs up the ladder
    (n + j, j) and is cut off at dim, which distorts the amplitudes near the
    top. Entry l is V_l's amplitude on |n>: the attenuator's agree with the
    closed form up to a phase (-1)^l per operator, which leaves the channel
    unchanged.
    """
    lowering = k < 1.0
    angle = math.acos(k) if lowering else -math.acosh(k)
    size = n + 1 if lowering else dim - n
    j = np.arange(size - 1, dtype=float)
    off = angle * np.sqrt((n - j if lowering else n + j + 1.0) * (j + 1.0))
    G = np.diag(off, k=1) - np.diag(off, k=-1)
    return unitary_from_skew(G)[:, 0]


def ladder_amplitudes(k, dim):
    """The (dim, dim) table of ``ladder_column``s, laid out as the dilation's tables."""
    amps = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        column = ladder_column(k, n, dim)
        amps[: len(column), n] = column
    return amps


def campaign_states(channel, seed, trials):
    """The states a campaign on ``channel`` seeded with ``seed`` draws, in trial order."""
    gen = np.random.default_rng(seed)
    support = channel._support[0]
    return [random_low_support_state(gen, dim=channel.dim, support=support) for _ in range(trials)]


def dense_stages(channel):
    """The channel's stages as lists of dense Kraus operators, in order.

    Rebuilds each V_l entry by entry from its table row, independently of the
    block slicing in ``fock._kraus_sums``: V_l sends |n> to |n - l> in a loss
    stage (``first``, or the noiseless attenuator's ``kraus``) and to |n + l> in a gain stage.
    """
    dim = channel.dim
    tables = [(channel.kraus, channel.first is None and channel.k < 1.0)]
    if channel.first is not None:
        tables.insert(0, (channel.first, True))
    stages = []
    for amps, lowering in tables:
        ops = []
        for l in range(dim):
            V = np.zeros((dim, dim), dtype=complex)
            for n in range(dim):
                m = n - l if lowering else n + l
                if 0 <= m < dim:
                    V[m, n] = amps[l, n]
            ops.append(V)
        stages.append(ops)
    return stages


def dense_kraus_sum(stages, rho):
    """Reference channel action: sum_l V_l rho V_l† over dense operators, stage by stage."""
    for ops in stages:
        rho = sum(V @ rho @ V.conj().T for V in ops)
    return rho


def dense_output(stages, state):
    """Normalized output state of the dense reference, as ``apply_channel`` returns it."""
    out = dense_kraus_sum(stages, state.rho)
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def entropy_of_populations(p):
    """Entropy -sum p log p of a probability vector, in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def channel_on_identity(channel):
    """The image sum_l V_l V_l† of the identity operator under the channel."""
    return fock._kraus_sums(channel, np.eye(channel.dim))[0]


def full_block_kraus_sums(channel, rho):
    """Kraus sums of one matrix over every l and whole blocks, whatever levels it occupies."""
    for amps, lowering in ((channel.first, True), (channel.kraus, channel.first is None and channel.k < 1.0)):
        if amps is None:
            continue
        out = np.zeros_like(rho, dtype=complex)
        for l, row in enumerate(amps):
            src, dst = slice(l, None), slice(0, len(row) - l)
            if not lowering:
                src, dst = dst, src
            out[dst, dst] += np.outer(row[src], row[src].conj()) * rho[src, src]
        rho = out
    return rho


def displacement_mixture_kraus(nbar, dim, order):
    """Classical noise as a Gauss-Hermite mixture of displacement unitaries.

    An independent reference for the composed dilation: the isotropic
    Gaussian mixture of displacements with per-quadrature variance nbar,
    discretized by a tensor Gauss-Hermite rule of the given order.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    a = annihilation(dim)
    scale = math.sqrt(nbar)
    kraus = []
    for i in range(order):
        for j in range(order):
            shift = scale * (nodes[i] + 1j * nodes[j])
            displacement = unitary_from_skew(shift * a.conj().T - np.conj(shift) * a)
            kraus.append(math.sqrt(weights[i] * weights[j] / math.pi) * displacement)
    return kraus


PRESET_ARGS = [("attenuator", 0.7), ("amplifier", 1.5), ("classical_noise", 1.0)]
PRESETS = pytest.mark.parametrize("kind, k", PRESET_ARGS)
NOISY_PRESETS = pytest.mark.parametrize("kind, k", [("attenuator", 0.7), ("amplifier", 1.5)])


@pytest.fixture(scope="module")
def attenuator():
    return build_dilation("attenuator", 0.7, dim=DIM)


@pytest.fixture(scope="module")
def amplifier():
    return build_dilation("amplifier", 1.5, dim=DIM)


@pytest.fixture(scope="module")
def classical_noise():
    return build_dilation("classical_noise", 1.0, dim=DIM, noise=0.3)


@pytest.fixture(scope="module")
def bounded_records():
    """(dilation, records) of criterion 5's and 6's campaigns, then of the flat inputs I_s/s up to each
    dilation's support, on those dilations and the noisy presets."""
    dilations = [
        build_dilation("attenuator", 0.7, dim=DIM),
        build_dilation("amplifier", 1.5, dim=DIM),
        build_dilation("classical_noise", 1.0, dim=DIM, noise=0.3),
    ]
    gen = np.random.default_rng(501)
    found = [(channel, lower_bound_campaign(channel, 300, gen)["records"]) for channel in dilations]
    found.append((dilations[2], extremality_campaign(dilations[2], 100, np.random.default_rng(601))["records"]))
    noisy = [build_dilation(kind, k, dim=DIM, noise=0.2) for kind, k in [("attenuator", 0.7), ("amplifier", 1.5)]]
    for channel in dilations + noisy:
        flat = [np.diag([1.0 / s] * s + [0.0] * (DIM - s)) for s in range(1, channel._support[0] + 1)]
        found.append((channel, [verify_lower_bound(channel, fock_density(rho)) for rho in flat]))
    return found


class TestOperators:
    def test_annihilation_ladder(self):
        a = annihilation(4)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))

    def test_canonical_commutator_below_cutoff(self):
        # [q, p] = i holds everywhere except the cutoff corner
        q, p = quadratures(30)
        comm = q @ p - p @ q
        assert comm[:29, :29] == pytest.approx(1j * np.eye(30)[:29, :29], abs=1e-12)

    def test_diagonal_moments_equal_dense_traces(self, amplifier, rng):
        # amplifier outputs reach the top level, where aa† has its zero entry
        states = [random_low_support_state(rng, support=support) for support in (1, 2, 10, DIM)]
        states += [apply_channel(amplifier, random_low_support_state(rng, support=6)) for _ in range(3)]
        assert states[-1].rho[-1, -1] != 0.0
        for state in states:
            mean, alpha = covariance_of(state)
            dense_mean, dense_alpha = dense_covariance(state)
            assert np.abs(mean - dense_mean).max() <= 1e-13
            assert np.abs(alpha - dense_alpha).max() <= 1e-13
            assert np.array_equal(alpha, alpha.T)


class TestFockDensity:
    def test_renormalizes_trace(self):
        state = fock_density(np.diag([0.5, 0.4]).astype(complex))
        assert np.trace(state.rho).real == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InadmissibleInputError):
            fock_density(rho)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InadmissibleInputError):
            fock_density(np.diag([1.2, -0.2]).astype(complex))

    @pytest.mark.parametrize(
        "rho",
        [[[math.nan]], [[1.0, math.nan], [math.nan, 0.0]], [[math.inf]], [[0.5, math.inf], [math.inf, 0.5]]],
        ids=["nan", "nan-off-diagonal", "inf", "inf-off-diagonal"],
    )
    def test_rejects_non_finite_entries(self, rho):
        # a nan defect, eigenvalue and trace pass every comparison of the other checks
        with pytest.raises(InadmissibleInputError, match="^density matrix entries must be finite$"):
            with np.errstate(invalid="ignore"):
                fock_density(np.array(rho, dtype=complex))

    def test_input_is_left_unchanged(self):
        rho = np.array([[0.6, 0.1 + 1e-14], [0.1, 0.6]], dtype=complex)
        before = rho.copy()
        fock_density(rho)
        assert np.array_equal(rho, before)

    def test_random_states_are_valid(self, rng):
        for _ in range(5):
            state = random_low_support_state(rng, dim=20, support=6)
            assert np.trace(state.rho).real == pytest.approx(1.0)
            assert np.abs(state.rho[6:, :]).max() == 0.0
            assert np.linalg.eigvalsh(state.rho)[0] >= -1e-12

    def test_negative_eigenvalue_behind_zero_levels_is_refused(self):
        # the padded spectrum starts with the unoccupied levels' zeros
        with pytest.raises(InadmissibleInputError) as block:
            fock_density(np.diag([1.2, -0.2]).astype(complex))
        with pytest.raises(InadmissibleInputError, match=re.escape(str(block.value))):
            fock_density(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("row, col", [(0, 1), (0, 3)], ids=["inside-the-diagonal", "column-only"])
    def test_zero_padded_non_hermitian_block_is_refused(self, row, col):
        # level 3 is occupied by its column alone: reading rows only would drop it
        rho = np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        rho[row, col] = 0.4
        with pytest.raises(InadmissibleInputError, match="not Hermitian"):
            fock_density(rho)

    def test_zero_matrix_is_refused_by_the_trace_check(self):
        with pytest.raises(InadmissibleInputError, match=r"trace 0\.000e\+00 too far from 1"):
            fock_density(np.zeros((5, 5)))
        with pytest.raises(InadmissibleInputError, match="trace 0"):
            fock._validated(np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))]).astype(complex), 2)

    @pytest.mark.parametrize(
        "second, named",
        [
            ([[0.5, 0.3], [0.0, 0.5]], r"not Hermitian \(defect 3\.000e-01\)"),  # _validated
            ([[1.2, 0.0], [0.0, -0.2]], r"has eigenvalue -2\.000e-01 < -1e-10"),  # _spectra
            ([[0.3, 0.0], [0.0, 0.1]], r"trace 4\.000e-01 too far from 1"),  # _spectra
        ],
        ids=["hermitian", "eigenvalue", "trace"],
    )
    def test_stack_refusal_names_the_matrix_that_fails(self, second, named):
        stack = np.array([np.diag([0.5, 0.5]), second], dtype=complex)
        with pytest.raises(InadmissibleInputError, match=f"^density matrix {named}$"):
            fock._validated(stack, 2)

    @pytest.mark.parametrize(
        "first, second, named",
        [
            ([[0.3, 0.0], [0.0, 0.1]], [[1.2, 0.0], [0.0, -0.2]], "has eigenvalue -2.000e-01 < -1e-10"),
            ([[0.5, 0.3], [0.0, 0.5]], [[math.nan, 0.0], [0.0, 0.5]], "entries must be finite"),
            ([[0.5, 0.1], [0.0, 0.5]], [[0.5, 0.3], [0.0, 0.5]], "not Hermitian (defect 1.000e-01)"),
        ],
        ids=["eigenvalue-before-trace", "finite-before-hermitian", "first-of-one-check"],
    )
    def test_each_check_runs_on_the_whole_stack_before_the_next(self, first, second, named):
        # the checks' order decides the message, then the matrices' order, as in the phase-space core
        with pytest.raises(InadmissibleInputError, match=f"^density matrix {re.escape(named)}$"):
            fock._validated(np.array([first, second], dtype=complex), 2)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(InadmissibleInputError, match=r"must be square and nonempty, not \(0, 0\)"):
            fock_density(np.zeros((0, 0)))

    def test_random_state_on_no_levels_is_refused(self, rng):
        with pytest.raises(InadmissibleInputError, match=r"^support must be an integer >= 1, got 0$"):
            random_low_support_state(rng, support=0)

    @pytest.mark.parametrize("support", [-1, 2.5, math.inf, math.nan])
    def test_random_state_refuses_a_support_that_is_no_positive_integer(self, rng, support):
        expected = rf"^support must be an integer >= 1, got {support!r}$"
        with pytest.raises(InadmissibleInputError, match=expected):
            random_low_support_state(rng, support=support)

    def test_random_state_takes_an_integral_float_support(self):
        drawn = [random_low_support_state(np.random.default_rng(4), 8, support) for support in (3, 3.0)]
        assert np.array_equal(drawn[0].rho, drawn[1].rho)

    def test_padded_spectrum_matches_a_full_eigensolve(self, attenuator, rng):
        states = [random_low_support_state(rng, support=support) for support in (1, 3, 10)]
        states += [apply_channel(attenuator, state) for state in states]
        for state in states:
            full = np.linalg.eigvalsh(state.rho)
            assert np.abs(np.sort(state.spectrum) - full).max() <= 1e-14
            w = full[full > 0.0]
            assert abs(von_neumann_entropy(state) + (w * np.log(w)).sum()) <= 1e-13


class TestThermalState:
    def test_populations_geometric(self):
        nu = 1.0
        state = thermal_state(nu, 20)
        pops = np.diag(state.rho).real
        ratios = pops[1:] / pops[:-1]
        assert ratios == pytest.approx(np.full(19, 1.0 / 3.0), rel=1e-12)

    def test_vacuum_case(self):
        state = thermal_state(0.5, 10)
        assert state.rho[0, 0] == pytest.approx(1.0)
        assert von_neumann_entropy(state) == 0.0

    def test_covariance_matches_nu(self):
        for nu in (0.6, 1.0, 2.0):
            mean, alpha = covariance_of(thermal_state(nu, DIM))
            assert mean == pytest.approx(np.zeros(2), abs=1e-13)
            assert alpha == pytest.approx(nu * np.eye(2), abs=1e-10)

    def test_entropy_matches_gaussian_formula(self):
        for nu in (0.6, 1.0, 2.0):
            state = thermal_state(nu, 80)
            assert von_neumann_entropy(state) == pytest.approx(
                float(mode_entropy(nu)), abs=1e-6
            )

    def test_rejects_below_vacuum(self):
        with pytest.raises(InadmissibleInputError):
            thermal_state(0.4, 10)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_a_nu_that_is_not_finite(self, nu):
        # NaN populations would otherwise give the entropy -0.0
        expected = rf"^thermal state requires finite nu >= 1/2, got {nu!r}$"
        with pytest.raises(InadmissibleInputError, match=expected):
            thermal_state(nu, DIM)

    def test_rejects_a_nu_whose_level_ratio_rounds_to_one(self):
        # ratio = (nu - 1/2)/(nu + 1/2) is 1.0 in floats, so no mass is kept below the cutoff
        expected = r"^thermal state nu = 1e\+16 keeps no mass below dim = 60$"
        with pytest.raises(InadmissibleInputError, match=expected):
            thermal_state(1e16, DIM)

    @pytest.mark.parametrize("dim", [0, 2.5, -3, math.inf, math.nan])
    def test_rejects_a_dim_that_is_no_positive_integer(self, dim):
        # dim = 0 gave a 0 x 0 state and dim = 2.5 a 3-level one
        for nu in (0.5, 1.0):
            with pytest.raises(InadmissibleInputError, match=rf"^dim must be an integer >= 1, got {dim!r}$"):
                thermal_state(nu, dim)

    def test_takes_an_integral_float_dim(self):
        drawn = [thermal_state(1.0, dim) for dim in (8, 8.0)]
        assert drawn[1].dim == 8 and isinstance(drawn[1].dim, int)
        assert np.array_equal(drawn[0].rho, drawn[1].rho)


class TestNumberState:
    @pytest.mark.parametrize("n", [1.5, -1, 4, math.nan])
    def test_rejects_a_level_that_is_not_below_dim(self, n):
        # n = 1.5 raised numpy's IndexError
        with pytest.raises(InadmissibleInputError, match=rf"^n must be an integer >= 0 and < 4, got {n!r}$"):
            number_state(n, 4)

    @pytest.mark.parametrize("dim", [4.5, 0, math.inf])
    def test_rejects_a_dim_that_is_no_positive_integer(self, dim):
        # dim = 4.5 raised a TypeError
        with pytest.raises(InadmissibleInputError, match=rf"^dim must be an integer >= 1, got {dim!r}$"):
            number_state(1, dim)

    @pytest.mark.parametrize("n, dim, named", [("1", 4, "n"), (1, "4", "dim"), (None, 4, "n")])
    def test_refuses_a_value_that_is_no_number_by_name(self, n, dim, named):
        # comparing a string with an int raised a bare TypeError
        with pytest.raises(InadmissibleInputError, match=rf"^{named} must be an integer >= .*, got "):
            number_state(n, dim)

    def test_takes_integral_floats(self):
        state = number_state(2.0, 4.0)
        assert state.dim == 4 and isinstance(state.dim, int)
        assert np.array_equal(state.rho, number_state(2, 4).rho)


class TestDilations:
    def test_kraus_completeness(self, attenuator, amplifier, classical_noise):
        # V_l are weighted shifts, so sum_l V_l† V_l is diagonal with entries
        # sum_l |amps[l, n]|^2. An attenuator stage keeps every level below
        # the cutoff, so these are 1; an amplifier stage keeps the part of
        # the negative binomial P(l; n + 1, 1/k^2) with n + l below the cutoff.
        # Classical noise is checked stage by stage.
        n = np.arange(DIM)
        for amps in (attenuator.kraus, classical_noise.first):
            assert amps.shape == (DIM, DIM)
            assert np.abs((np.abs(amps) ** 2).sum(axis=0) - 1.0).max() < 1e-12
        for amps, k in ((amplifier.kraus, 1.5), (classical_noise.kraus, math.sqrt(1.3))):
            assert amps.shape == (DIM, DIM)
            kept = nbinom.cdf(DIM - n - 1, n + 1, 1.0 / k**2)
            assert np.abs((np.abs(amps) ** 2).sum(axis=0) - kept).max() < 1e-12

    @pytest.mark.parametrize(
        "kind, k, noise",
        [
            ("attenuator", 0.7, None),
            ("amplifier", 1.5, None),
            ("classical_noise", 1.0, 0.3),
            ("attenuator", 0.7, 0.2),
            ("amplifier", 1.5, 0.2),
        ],
    )
    def test_matches_dense_kraus_sum(self, kind, k, noise, rng):
        channel = build_dilation(kind, k, dim=20, noise=noise)
        assert len(channel.kraus) == 20
        stages = dense_stages(channel)
        state = random_low_support_state(rng, dim=20, support=8)
        reference = dense_output(stages, state)
        assert np.abs(apply_channel(channel, state).rho - reference).max() <= 1e-14
        image = dense_kraus_sum(stages, np.eye(20))
        assert np.abs(channel_on_identity(channel) - image).max() <= 1e-14

    def test_attenuator_matches_closed_form(self, attenuator, rng):
        ladder = ladder_amplitudes(0.7, DIM)
        phases = (-1.0) ** np.arange(DIM)
        assert np.abs(ladder * phases[:, None] - attenuator.kraus).max() <= 1e-14
        alt = DilationChannel(kind="attenuator", k=0.7, dim=DIM, kraus=ladder)
        state = random_low_support_state(rng)
        out_closed = apply_channel(attenuator, state).rho
        out_ladder = apply_channel(alt, state).rho
        assert np.abs(out_closed - out_ladder).max() < 1e-12

    def test_amplifier_matches_the_ladder_at_a_large_cutoff(self, amplifier):
        # the ladder is cut off at its dim, so it is exact only far below it;
        # at 200 levels the campaign inputs' columns are exact to rounding
        for n in range(amplifier._support[0]):
            column = ladder_column(1.5, n, 200)[: DIM - n]
            assert np.abs(column - amplifier.kraus[: DIM - n, n]).max() <= 1e-14

    def test_moments_transform_as_gaussian_channel(self, attenuator, classical_noise, rng):
        state = random_low_support_state(rng)
        mean_in, alpha_in = covariance_of(state)
        for channel in (attenuator, classical_noise):
            gch = channel.gaussian_channel()
            out = apply_channel(channel, state)
            mean_out, alpha_out = covariance_of(out)
            assert mean_out == pytest.approx(gch.K.T @ mean_in, abs=1e-10)
            assert alpha_out == pytest.approx(apply_to_covariance(gch, alpha_in), abs=1e-10)

    def test_amplifier_moments_within_truncation_error(self, amplifier, rng):
        state = random_low_support_state(rng, support=6)
        _, alpha_in = covariance_of(state)
        _, alpha_out = covariance_of(apply_channel(amplifier, state))
        expected = apply_to_covariance(amplifier.gaussian_channel(), alpha_in)
        assert alpha_out == pytest.approx(expected, abs=1e-5)

    def test_identity_like_limit(self, rng):
        channel = build_dilation("attenuator", 0.999, dim=DIM)
        state = random_low_support_state(rng)
        out = apply_channel(channel, state)
        assert np.abs(out.rho - state.rho).max() < 5e-3

    def test_phi_of_identity_corner(self, attenuator):
        # levels whose preimages fit under the cutoff see Phi[I] = k^-2 I;
        # higher levels draw population from beyond the cutoff and are
        # excluded (their preimage mass peaks near m / k^2 > dim)
        image = channel_on_identity(attenuator)
        target = np.eye(DIM) / 0.49
        assert np.abs(image[:10, :10] - target[:10, :10]).max() < 1e-6

    def test_classical_noise_matches_displacement_mixture(self, classical_noise):
        # high number states are where a coarse quadrature of the mixture
        # fails; the composition must agree with a fine one far inside 1e-6
        mixture_stages = [displacement_mixture_kraus(0.3, DIM, 25)]
        for n in (8, 9):
            state = number_state(n, DIM)
            composed = von_neumann_entropy(apply_channel(classical_noise, state))
            mixture = von_neumann_entropy(fock_density(dense_output(mixture_stages, state)))
            assert abs(composed - mixture) <= 1e-9

    def test_classical_noise_phi_of_identity_corner(self, classical_noise):
        # K = 1, so Phi[I] = I wherever the attenuator stage's preimages fit
        image = channel_on_identity(classical_noise)
        assert np.abs(image[:20, :20] - np.eye(20)).max() < 1e-12

    @pytest.mark.parametrize("noise", [None, 0.0, -0.0])
    def test_classical_noise_requires_noise(self, noise):
        with pytest.raises(InadmissibleInputError, match=r"^classical_noise requires noise > 0$"):
            build_dilation("classical_noise", 1.0, dim=20, noise=noise)

    @pytest.mark.parametrize(
        "kind, k, noise",
        [(kind, k, noise) for kind, k in PRESET_ARGS for noise in (1e-300, 2e-16)]
        # sqrt(1 + 3e-16) rounds to 1, but sqrt(2.25 + 3e-16) is not 1.5
        + [("attenuator", 0.7, 3e-16), ("classical_noise", 1.0, 3e-16)],
    )
    def test_noise_without_a_dilation_is_refused(self, kind, k, noise):
        # sqrt(max(1, k^2) + noise) rounds to max(1, k), and a stage's amplitudes would take log(0)
        with pytest.raises(InadmissibleInputError, match=f"^{kind} k = {k!r}, noise = {noise:g} gives stage"):
            build_dilation(kind, k, dim=8, noise=noise)

    @pytest.mark.parametrize("kind, k, noise", [("attenuator", 1e-300, 1e308), ("amplifier", 1e154, 1.7e308)])
    def test_noise_whose_stage_rounds_to_zero_or_overflows_is_refused(self, kind, k, noise):
        with pytest.raises(InadmissibleInputError, match=r"gives stage parameters 0\.0, .*: none may round to 0, 1 or inf$"):
            build_dilation(kind, k, dim=8, noise=noise)

    def test_least_resolved_noise_builds(self):
        channel = build_dilation("classical_noise", 1.0, dim=8, noise=4e-16)
        assert math.sqrt(1.0 + channel.noise) > 1.0

    @PRESETS
    @pytest.mark.parametrize("noise", [-0.1, -2.0, math.inf, math.nan])
    def test_noise_that_is_negative_or_not_finite_is_refused_by_name(self, kind, k, noise):
        with pytest.raises(InadmissibleInputError, match=f"^noise must be nonnegative and finite, got {noise!r}$"):
            build_dilation(kind, k, dim=8, noise=noise)

    def test_presets_keep_their_stage_tables_and_output_energies_bit_for_bit(self):
        # each preset's own stage parameters and energy formula, from before the presets shared one build
        nbar = np.random.default_rng(11).exponential(3.0, 10_000).tolist()
        root_gain = math.sqrt(1.0 + 0.3)
        for kind, k, noise, kraus, first, energy in [
            ("attenuator", 0.7, 0.0, 0.7, None, lambda n: 0.7 * 0.7 * n + 0.0),
            ("amplifier", 1.5, 0.0, 1.5, None, lambda n: 1.5 * 1.5 * n + (1.5 * 1.5 - 1.0)),
            ("classical_noise", 1.0, 0.3, root_gain, 1.0 / root_gain, lambda n: n + 0.3),
        ]:
            channel = build_dilation(kind, k, dim=DIM, noise=noise)
            assert np.array_equal(channel.kraus, fock._amplitudes(kraus, DIM))
            if first is None:
                assert channel.first is None
            else:
                assert np.array_equal(channel.first, fock._amplitudes(first, DIM))
            energies = [fock._output_energy(channel, n) for n in nbar]
            assert np.array(energies).tobytes() == np.array([energy(n) for n in nbar]).tobytes()

    @pytest.mark.parametrize("dim", [60.5, math.nan, math.inf])
    def test_dim_that_is_not_a_whole_number_is_refused_by_name(self, dim, rng):
        message = re.escape(f"dim must be an integer >= 4, got {dim!r}")
        for kind, k, noise in [("attenuator", 0.7, 0.0), ("amplifier", 1.5, 0.0), ("classical_noise", 1.0, 0.3)]:
            with pytest.raises(InadmissibleInputError, match=message):
                build_dilation(kind, k, dim=dim, noise=noise)
        with pytest.raises(InadmissibleInputError, match=re.escape(f"dim must be an integer >= 1, got {dim!r}")):
            random_low_support_state(rng, dim=dim)

    @pytest.mark.parametrize("dim", [3, 2.5, 0, -math.inf, "8", "3"])
    def test_dim_below_four_keeps_its_message(self, dim):
        # one whole-number refusal, by name, also for a value that is no number at all
        message = re.escape(f"dim must be an integer >= 4, got {dim!r}")
        with pytest.raises(InadmissibleInputError, match=f"^{message}$"):
            build_dilation("attenuator", 0.7, dim=dim)

    def test_integral_float_dim_is_accepted(self):
        channel = build_dilation("amplifier", 1.5, dim=8.0)
        assert type(channel.dim) is int
        assert np.array_equal(channel.kraus, build_dilation("amplifier", 1.5, dim=8).kraus)
        drawn = [random_low_support_state(np.random.default_rng(2), dim=dim, support=3) for dim in (8.0, 8)]
        assert np.array_equal(drawn[0].rho, drawn[1].rho)

    @pytest.mark.parametrize("check", [apply_channel, verify_lower_bound])
    def test_refuses_a_state_on_another_cutoff(self, check):
        with pytest.raises(InadmissibleInputError, match="^state and channel dimensions differ$"):
            check(build_dilation("attenuator", 0.7, dim=8), number_state(0, 9))

    def test_parameter_validation(self):
        with pytest.raises(InadmissibleInputError):
            build_dilation("attenuator", 1.2, dim=20)
        with pytest.raises(InadmissibleInputError):
            build_dilation("amplifier", 0.8, dim=20)
        with pytest.raises(InadmissibleInputError):
            build_dilation("squeezer", 1.0, dim=20)

    @pytest.mark.parametrize("noise", [None, 0, -0.0, -0.1, 0.2, math.inf, math.nan])
    @pytest.mark.parametrize("k", [0, 1, -1, math.nan, 1e-200, 1.3e154, 1e200])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_both_routes_share_one_preset_domain(self, name, k, noise):
        # each route may add only the refusals of its own arithmetic; every other input is
        # accepted by both or refused by both with one message
        routes = [
            (lambda: preset_channel(name, k, noise=noise), ("k^2 underflows", "squares past the float range")),
            (
                lambda: build_dilation(name.replace("-", "_"), k, dim=4, noise=noise),
                ("classical_noise requires noise > 0", "none may round to 0, 1 or inf"),
            ),
        ]
        shared = []
        for build, own in routes:
            try:
                build()
                shared.append(None)
            except InadmissibleInputError as exc:
                shared.append(None if any(refusal in str(exc) for refusal in own) else str(exc))
        assert shared[0] == shared[1]

    @pytest.mark.parametrize("name, k", [("attenuator", 0.7), ("amplifier", 1.5), ("classical-noise", 1.0)])
    def test_both_routes_read_none_and_negative_zero_as_no_noise(self, name, k):
        channel = preset_channel(name, k, noise=0.0)
        for noise in (None, -0.0):
            other = preset_channel(name, k, noise=noise)
            assert np.array_equal(other.K, channel.K) and other.mu.tobytes() == channel.mu.tobytes()
            if name != "classical-noise":
                assert build_dilation(name, k, dim=8, noise=noise).noise.hex() == "0x0.0p+0"


class TestTruncationPolicy:
    def test_continuity_bound_covers_an_exact_two_level_pair(self):
        # |0><0| and (1 - eps)|0><0| + eps|1><1| lie at trace distance eps with mean photon numbers
        # 0 and eps, and their entropies differ by h(eps) = 0.056 at eps = 0.01: more than the
        # energy term 2 eps g(E/eps) = 2 eps g(1) = 0.028 at E = eps, so the bound needs its h(eps)
        eps = 0.01
        exact = entropy_of_populations([1.0 - eps, eps])
        assert exact == pytest.approx(0.056, abs=1e-3)
        slack = slack_from_deficit(eps**2, eps, 2)
        assert exact <= slack <= 2 * eps * (2 * math.log(2)) + exact + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), levels=st.integers(2, 12))
    def test_continuity_bound_covers_diagonal_pairs(self, seed, levels):
        # diagonal states in the number basis have exact entropies, trace distance and energies
        gen = np.random.default_rng(seed)
        p = gen.dirichlet(np.full(levels, 0.3))
        q = (1.0 - gen.uniform(0.0, 0.5)) * p + gen.uniform(0.0, 0.5) * gen.dirichlet(np.ones(levels))
        q /= q.sum()
        eps = 0.5 * np.abs(p - q).sum()
        energy = max(np.arange(levels) @ p, np.arange(levels) @ q)
        slack = slack_from_deficit(eps**2, energy, levels)
        assert abs(entropy_of_populations(p) - entropy_of_populations(q)) <= slack

    def test_slack_at_zero_energy_is_the_rounding_term(self):
        # both states are then the vacuum: only the two eigensolves' Fannes terms are left
        T = 8.0 * DIM * DIM * 2.0**-53
        expected = 2 * (T * math.log(DIM - 1) - T * math.log(T) - (1 - T) * math.log1p(-T))
        assert slack_from_deficit(0.0, 0.0, DIM) == pytest.approx(expected, rel=1e-12)
        assert slack_from_deficit(0.0, 0.0, DIM) < 1e-9

    @pytest.mark.parametrize("deficit", [0.9, 1.0], ids=["0.9", "eps>1"])
    def test_slack_is_capped_by_the_most_entropy_at_its_energy(self, deficit):
        # two states of mean photon number <= E differ in entropy by at most g(E), the thermal
        # state's, also where eps = sqrt(deficit + d u) >= 1 and the continuity bound says nothing
        g = float(mode_entropy(1.5 + 0.5))
        assert g <= slack_from_deficit(deficit, 1.5, 8) <= g + 1e-9
        assert slack_from_deficit(deficit, math.inf, 8) == math.inf

    def test_deficit_is_the_mass_the_channel_moves_past_the_cutoff(self):
        # the thermal input's own tail is no part of a verdict about the state the oracle holds
        state = thermal_state(2.0, 20)  # its dropped tail, 0.6^20 = 3.66e-5, is in no record
        record = verify_lower_bound(build_dilation("attenuator", 0.7, dim=20), state)
        assert 0.0 <= record["deficit"] <= 20 * 2.0**-53  # an attenuator keeps all its mass
        amplifier = build_dilation("amplifier", 1.5, dim=20)
        kept = np.trace(fock._kraus_sums(amplifier, state.rho[None])[0], axis1=1, axis2=2).real[0]
        assert verify_lower_bound(amplifier, state)["deficit"] == 1.0 - kept > 1e-3

    @pytest.mark.parametrize("k, n", [(1e3, 5), (1e100, 0)])
    def test_output_that_keeps_almost_no_mass_holds_unreliably(self, k, n):
        # 1 - t rounds to 1 for the kept mass t: the energy bound n_out / t stays finite at
        # k = 1e3 and overflows at 1e100, and either way the slack decides nothing
        record = verify_lower_bound(build_dilation("amplifier", k, dim=8), number_state(n, 8))
        assert record["deficit"] == 1.0
        assert record["holds"] and not record["reliable"]

    def test_reliable_means_the_slack_cannot_decide_the_verdict(self, amplifier):
        for record in lower_bound_campaign(amplifier, 20, np.random.default_rng(5))["records"]:
            assert record["reliable"] == (abs(record["gain"] - record["bound"]) > record["slack"])
            assert record["holds"] == (record["gain"] >= record["bound"] - record["slack"])

    def test_support_clamped_to_small_dim(self, rng):
        state = random_low_support_state(rng, dim=8, support=10)
        assert state.rho.shape == (8, 8)
        assert np.trace(state.rho).real == pytest.approx(1.0)

    def test_small_dim_flagged_unreliable(self, rng):
        channel = build_dilation("amplifier", 1.5, dim=8)
        state = random_low_support_state(rng, dim=8, support=4)
        record = verify_lower_bound(channel, state)
        assert not record["reliable"]

    def test_output_mass_that_underflows_is_refused(self):
        # every amplitude on |5> underflows at k = 1e154, so no mass is kept
        channel = build_dilation("amplifier", 1e154, dim=8)
        with pytest.raises(InadmissibleInputError, match=r"dim = 8 is 0\.000e\+00, not a positive normal"):
            apply_channel(channel, number_state(5, 8))

    def test_stack_refusal_names_the_output_mass_that_underflows(self):
        # the vacuum keeps 8e-200, a normal float; every amplitude on |5> underflows at k = 1e100
        channel = build_dilation("amplifier", 1e100, dim=8)
        stack = np.stack([number_state(0, 8).rho, number_state(5, 8).rho])
        with pytest.raises(InadmissibleInputError, match=r"^output mass .* dim = 8 is 0\.000e\+00, not a positive"):
            fock._kept(channel, stack)
        assert fock._kept(channel, stack[:1])[2] == [pytest.approx(8e-200, rel=1e-12)]

    @pytest.mark.parametrize(
        "kind, k, noise",
        [
            ("attenuator", 0.7, None),
            ("amplifier", 1.5, None),
            ("classical_noise", 1.0, 0.3),
            ("amplifier", 2.0, None),  # the largest slacks, up to 0.39 at d = 60
            ("attenuator", 0.7, 0.2),
            ("amplifier", 1.5, 0.2),
        ],
    )
    def test_slack_covers_the_cutoff_error(self, kind, k, noise):
        # each campaign state, embedded at a cutoff its output does not reach,
        # gives the reference gain; the d = 60 gain must be within its slack
        ref_dim, trials = 200, 20
        channel = build_dilation(kind, k, dim=DIM, noise=noise)
        reference = build_dilation(kind, k, dim=ref_dim, noise=noise)
        summary = lower_bound_campaign(channel, trials, np.random.default_rng(5))
        for state, record in zip(campaign_states(channel, 5, trials), summary["records"]):
            rho = np.zeros((ref_dim, ref_dim), dtype=complex)
            rho[:DIM, :DIM] = state.rho
            exact = verify_lower_bound(reference, fock_density(rho))["gain"]
            assert abs(record["gain"] - exact) <= record["slack"]

    def test_slack_bound_covers_every_record(self, bounded_records):
        for channel, records in bounded_records:
            assert max(record["slack"] for record in records) <= channel._support[1], channel.kind

    def test_slack_bound_from_the_least_loss_misses_a_record(self, bounded_records):
        # the bound takes the most mass a number state on the support loses: the least is too small
        def bound(channel, pick):
            support = channel._support[0]
            losses = [verify_lower_bound(channel, number_state(n, DIM))["deficit"] for n in range(support)]
            lost = pick(losses) + DIM * 2.0**-53
            return slack_from_deficit(lost, fock._output_energy(channel, support - 1) / (1.0 - lost), DIM)

        missed = 0
        for channel, records in bounded_records:
            assert bound(channel, max) == channel._support[1]
            missed += max(record["slack"] for record in records) > bound(channel, min)
        assert missed

    def test_record_keys(self, rng, attenuator, classical_noise):
        state = random_low_support_state(rng, dim=DIM)
        common = {"gain", "deficit", "slack", "holds", "reliable"}
        assert set(verify_lower_bound(attenuator, state)) == common | {"bound"}
        extremality = {"gaussian_gain", "flagged_saturating", "min_symplectic_eigenvalue"}
        assert set(verify_extremality(classical_noise, state)) == common | extremality


class TestProp1:
    def test_vacuum_through_attenuator(self, attenuator):
        record = verify_lower_bound(attenuator, number_state(0, DIM))
        assert record["holds"]
        assert record["bound"] == pytest.approx(2.0 * math.log(0.7))
        assert record["gain"] == pytest.approx(0.0, abs=1e-9)

    def test_thermal_gain_matches_exact_gaussian(self, attenuator):
        nu = 1.0
        record = verify_lower_bound(attenuator, thermal_state(nu, DIM))
        nu_out = 0.49 * (nu - 0.5) + 0.5
        exact = float(mode_entropy(nu_out) - mode_entropy(nu))
        assert record["gain"] == pytest.approx(exact, abs=1e-4)
        assert record["reliable"]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_states_through_amplifier(self, amplifier_small, seed):
        gen = np.random.default_rng(seed)
        state = random_low_support_state(gen, dim=40, support=5)
        record = verify_lower_bound(amplifier_small, state)
        assert record["holds"]

    def test_campaign_summary(self, classical_noise, rng):
        summary = lower_bound_campaign(classical_noise, 10, rng)
        assert summary["holds_count"] == 10
        assert summary["reliable_count"] == 10
        assert len(summary["records"]) == 10
        assert summary["support"] == 10

    @pytest.mark.parametrize(
        "trials, message",
        [
            (0, "trials must be an integer >= 1, got 0"),
            (-3, "trials must be an integer >= 1, got -3"),
            (2.5, "trials must be an integer >= 1, got 2.5"),
            (math.nan, "trials must be an integer >= 1, got nan"),
            (math.inf, "trials must be an integer >= 1, got inf"),
            ("3", "trials must be an integer >= 1, got '3'"),
        ],
        ids=["0", "-3", "2.5", "nan", "inf", "string"],
    )
    def test_campaign_refuses_no_trials(self, attenuator, rng, trials, message):
        for campaign in (lower_bound_campaign, extremality_campaign):
            with pytest.raises(InadmissibleInputError, match=f"^{re.escape(message)}$"):
                campaign(attenuator, trials, rng)

    def test_integral_float_trials_are_accepted(self, classical_noise):
        for campaign in (lower_bound_campaign, extremality_campaign):
            summary = campaign(classical_noise, 3.0, np.random.default_rng(4))
            assert summary == campaign(classical_noise, 3, np.random.default_rng(4))
            assert type(summary["trials"]) is int

    def test_campaign_reports_the_support_it_drew_below_the_preset(self):
        # at dim 6 the attenuator's 10 campaign levels are cut to the 6 that exist
        channel = build_dilation("attenuator", 0.7, dim=6)
        summary = lower_bound_campaign(channel, 3, np.random.default_rng(2))
        assert summary["support"] == 6
        states = campaign_states(channel, 2, 3)
        assert all(np.any(state.rho[5]) for state in states)  # the top level is drawn on
        assert [r["gain"] for r in summary["records"]] == [verify_lower_bound(channel, s)["gain"] for s in states]

    def test_amplifier_campaign_uses_reduced_support(self, rng):
        channel = build_dilation("amplifier", 1.5, dim=DIM)
        summary = lower_bound_campaign(channel, 5, rng)
        assert summary["support"] == 6
        assert summary["reliable_count"] == 5


class TestProp3:
    def test_thermal_equality_through_strict_channel(self, classical_noise):
        record = verify_extremality(classical_noise, thermal_state(1.0, DIM))
        assert record["holds"]
        assert not record["flagged_saturating"]
        assert record["gain"] == pytest.approx(record["gaussian_gain"], abs=1e-4)

    def test_random_states_dominate_their_gaussification(self, classical_noise, rng):
        for _ in range(5):
            state = random_low_support_state(rng)
            record = verify_extremality(classical_noise, state)
            assert record["holds"]

    def test_degenerate_covariance_rejected(self, classical_noise):
        with pytest.raises(HypothesisViolationError):
            verify_extremality(classical_noise, number_state(0, DIM))

    def test_saturating_channel_flagged_not_refused(self, attenuator):
        record = verify_extremality(attenuator, thermal_state(1.0, DIM))
        assert record["flagged_saturating"]
        assert record["holds"]

    def test_campaign(self, classical_noise, rng):
        summary = extremality_campaign(classical_noise, 5, rng)
        assert summary["holds_count"] == 5

    @pytest.mark.parametrize("image, vacuum", [(3, 10), (10, 3)], ids=["image-first", "input-first"])
    def test_chunk_raises_for_its_first_failing_trial(self, attenuator, monkeypatch, image, vacuum):
        # (1 - p)|0><0| + p|1><1| has nu = 1/2 + p, which passes the input test at
        # p = 1.5 tol; the saturating attenuator shrinks p by k^2 = 0.49, below tol
        p = 1.5 * DEFAULT_TOL
        blurred = fock_density(np.diag([1.0 - p, p] + [0.0] * (DIM - 2)).astype(complex))
        failing = {image: blurred, vacuum: number_state(0, DIM)}
        messages = {}
        for trial, state in failing.items():
            with pytest.raises(HypothesisViolationError) as alone:
                verify_extremality(attenuator, state)
            messages[trial] = str(alone.value)
        assert "degenerate Gaussian image" in messages[image]
        assert "state covariance is degenerate" in messages[vacuum]
        draw, kernel, stacks = fock._random_states, fock._kraus_sums, []

        def draw_failing(*args):
            rho, states = draw(*args)
            return rho, [failing.get(trial, state) for trial, state in enumerate(states)]

        def spy(channel, rho):
            stacks.append(len(rho))
            return kernel(channel, rho)

        attenuator._support  # the number states' Kraus sums, which run on its first use, before any trial's
        monkeypatch.setattr(fock, "_random_states", draw_failing)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(HypothesisViolationError, match=re.escape(messages[min(image, vacuum)])):
            extremality_campaign(attenuator, 18, np.random.default_rng(7))
        assert stacks == []

    @pytest.mark.parametrize("name", ["classical_noise", "attenuator"])
    def test_hypotheses_solve_two_stacked_spectra(self, name, request, count_eigensolves):
        # the input and output spectra, each from a Cholesky factor, off which
        # both nondegeneracy tests and the Gaussian gain are read, as one stack
        # whatever the chunk's size
        channel = request.getfixturevalue(name)
        channel.gaussian_channel()  # solved once, before the count
        chunk = fock._random_states(np.random.default_rng(7), 18, DIM, 10)[1]
        for states in ([thermal_state(1.0, DIM)], chunk):
            count_eigensolves.clear()
            references = fock._references(channel, states, extremality=True)
            assert len(references) == len(states)
            assert count_eigensolves == ["cholesky", "eigvalsh"] * 2


@pytest.fixture(scope="module")
def amplifier_small():
    return build_dilation("amplifier", 2.0, dim=40)


@pytest.fixture(scope="module")
def small_dilations():
    return [
        build_dilation("attenuator", 0.7, dim=20),
        build_dilation("amplifier", 1.5, dim=20),
        build_dilation("classical_noise", 1.0, dim=20, noise=0.3),
    ]


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """List that gains the shape of each np.linalg.eigvalsh argument."""
    solver, shapes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestNoisyPresets:
    """The thermal attenuator and the noisy amplifier, alpha -> k^2 alpha + (|1 - k^2|/2 + 0.2) I, by both routes."""

    @NOISY_PRESETS
    def test_thermal_moments_and_gains_match_the_phase_space_route(self, kind, k):
        # at d = 200 the outputs of these thermal inputs keep all but a negligible tail
        channel = build_dilation(kind, k, dim=200, noise=0.2)
        gch = channel.gaussian_channel()
        for nu in (0.5, 0.8, 1.5):
            state = thermal_state(nu, 200)
            alpha = nu * np.eye(2)
            mean, alpha_out = covariance_of(apply_channel(channel, state))
            assert np.abs(mean).max() == 0.0
            assert np.abs(alpha_out - (gch.K.T @ alpha @ gch.K + gch.mu)).max() <= 1e-13
            record = verify_lower_bound(channel, state)
            assert abs(record["gain"] - gaussian_gain(gch, alpha)) <= record["slack"]

    @NOISY_PRESETS
    @pytest.mark.parametrize("campaign", [lower_bound_campaign, extremality_campaign])
    def test_campaign_holds_on_every_trial(self, kind, k, campaign):
        summary = campaign(build_dilation(kind, k, dim=DIM, noise=0.2), 50, np.random.default_rng(3))
        assert summary["holds_count"] == summary["reliable_count"] == 50


class TestOccupiedLevels:
    """Kraus stages and validation touch only the levels a matrix occupies; no output may show it."""

    def test_each_matrix_is_validated_as_if_alone(self, rng):
        # one matrix per occupancy; solving them as one union block moves the smaller ones' bits
        stack = [number_state(0, DIM).rho]
        stack += [random_low_support_state(rng, support=support).rho for support in (4, 10)]
        stack += [thermal_state(2.0, DIM).rho]
        together = np.stack(stack)
        spectra = fock._validated(together, DIM)  # validates in place
        for rho, validated, spectrum in zip(stack, together, spectra):
            alone = fock_density(rho)
            assert np.array_equal(validated, alone.rho)
            assert np.array_equal(spectrum, alone.spectrum)

    def test_attenuator_campaign_solves_only_occupied_blocks(self, attenuator, eigvalsh_shapes):
        lower_bound_campaign(attenuator, 20, np.random.default_rng(7))
        # per chunk, one solve of its inputs, then one of its outputs
        assert eigvalsh_shapes == [(18, 10, 10)] * 2 + [(2, 10, 10)] * 2

    def test_amplifier_campaign_solves_its_outputs_on_every_level(self, amplifier, eigvalsh_shapes):
        lower_bound_campaign(amplifier, 20, np.random.default_rng(7))
        assert eigvalsh_shapes == [(18, 6, 6), (18, DIM, DIM), (2, 6, 6), (2, DIM, DIM)]

    @pytest.mark.parametrize(
        "make_state",
        [lambda d: number_state(d - 1, d), lambda d: thermal_state(2.0, d), lambda d: number_state(0, d)],
        ids=["top-level", "full-support", "one-level"],
    )
    def test_edge_states_match_dense_reference(self, small_dilations, make_state):
        for channel in small_dilations:
            state = make_state(channel.dim)
            reference = dense_output(dense_stages(channel), state)
            assert np.abs(apply_channel(channel, state).rho - reference).max() <= 1e-14

    def test_occupancy_is_taken_over_the_whole_stack(self, small_dilations, rng):
        # only the last matrix reaches level 15: occupancy read from the first
        # matrix alone would move one level and lose the rest
        dim = 20
        states = [
            number_state(0, dim),
            random_low_support_state(rng, dim=dim, support=4),
            number_state(15, dim),
        ]
        for channel in small_dilations:
            stages = dense_stages(channel)
            stack = np.stack([state.rho for state in states])
            sums = fock._kraus_sums(channel, stack)[0]
            # apply_channel's path, _kept then _normalized, run on the whole stack at once
            outs, levels, _ = fock._kept(channel, stack)
            spectra = fock._normalized(outs, levels, dim)
            for state, summed, out, spectrum in zip(states, sums, outs, spectra):
                assert np.array_equal(summed, full_block_kraus_sums(channel, state.rho))
                assert np.abs(out - dense_output(stages, state)).max() <= 1e-14
                alone = apply_channel(channel, state)
                assert np.array_equal(out, alone.rho)
                assert np.array_equal(spectrum, alone.spectrum)

    @pytest.mark.parametrize(
        "kind, k, noise",
        [("amplifier", 1.5, 0.0), ("classical_noise", 1.0, 0.3)],
        ids=["amplifier", "classical-noise"],
    )
    def test_half_occupied_state_at_dim_400_keeps_the_byte_budget(self, kind, k, noise):
        # all 400 terms of the raising stage at once would take 400 x 200 x 200 x 16 B = 256 MB;
        # the dense operators would take 1 GB a stage, so the reference is the whole-block
        # loop that test_occupancy_is_taken_over_the_whole_stack ties to them at dim 20
        dim = 400
        channel = build_dilation(kind, k, dim=dim, noise=noise)
        state = random_low_support_state(np.random.default_rng(3), dim=dim, support=dim // 2)
        tracemalloc.start()
        try:
            out = apply_channel(channel, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * fock._STACK_BYTES
        reference = full_block_kraus_sums(channel, state.rho)
        reference = 0.5 * (reference + reference.conj().T)
        assert np.abs(out.rho - reference / np.trace(reference).real).max() <= 1e-14

    @pytest.mark.parametrize("dim", [20, DIM])
    def test_row_scan_of_kraus_stacks_equals_the_row_or_column_scan(self, dim, monkeypatch):
        # every stack scanned on rows alone, a campaign's inputs and each dilation's
        # outputs, is Hermitian up to signed zeros: its columns add no level
        scan, scanned = fock._levels, []

        def checked(rho, hermitian=False):
            if hermitian:
                assert np.array_equal(scan(rho, hermitian=True), scan(rho))
                scanned.append(len(rho))
            return scan(rho, hermitian)

        monkeypatch.setattr(fock, "_levels", checked)
        # level 5 is occupied by a purely imaginary off-diagonal pair alone
        imaginary = np.diag([0.5, 0.5] + [0.0] * (dim - 2)).astype(complex)
        imaginary[1, 5], imaginary[5, 1] = 0.25j, -0.25j
        assert scan(imaginary, hermitian=True) == scan(imaginary) == 6
        for kind, k, noise in [("attenuator", 0.7, 0.0), ("amplifier", 1.5, 0.0), ("classical_noise", 1.0, 0.3)]:
            channel = build_dilation(kind, k, dim=dim, noise=noise)
            lower_bound_campaign(channel, 20, np.random.default_rng(3))
            out = fock._kraus_sums(channel, imaginary[None])[0]
            assert np.array_equal(scan(out, hermitian=True), scan(out))
        chunks = math.ceil(20 / (fock._STACK_BYTES // (16 * dim * dim)))  # 1 at d = 20, 2 at d = 60
        # each dilation's 10 number states on the first use of its support, each chunk's inputs and
        # outputs, then the pair's input
        assert len(scanned) == 3 * (10 + 2 * chunks + 1)
        # the row scan ends early when every last row is occupied; these stacks take both ways
        top = number_state(dim - 1, dim).rho
        mixed = np.stack([number_state(0, dim).rho, top, imaginary])  # last row occupied in one matrix only
        zero = np.zeros((dim, dim), dtype=complex)
        cases = [(mixed, [1, dim, 6]), (top[None], [dim]), (zero[None], [0]), (zero, 0), (top, dim)]
        for rho, levels in cases:
            assert np.array_equal(scan(rho, hermitian=True), levels)
            assert np.array_equal(scan(rho), levels)
            assert scan(rho, hermitian=True).shape == scan(rho).shape == np.shape(levels)

    def test_raw_input_is_scanned_on_rows_and_columns(self):
        # level 3 of this raw matrix is occupied by its column alone; fock_density
        # refuses it (test_zero_padded_non_hermitian_block_is_refused) only if it sees it
        raw = np.diag([0.5, 0.5, 0.0, 0.0, 0.0]).astype(complex)
        raw[0, 3] = 0.4
        assert fock._levels(raw) == 4
        assert fock._levels(raw, hermitian=True) == 2

    @pytest.mark.parametrize("dim", [4, 5, 8])
    def test_raising_stage_equals_the_full_block_sum_at_every_occupancy(self, dim):
        # the raising stage adds V_0 .. V_{d-s} along diagonals and the rest as slices:
        # s = d leaves one diagonal operator, s = 1 none of the slices
        rng = np.random.default_rng(dim)
        amplifier = build_dilation("amplifier", 1.5, dim=dim)
        for channel in (amplifier, build_dilation("classical_noise", 1.0, dim=dim, noise=0.3)):
            for s in range(1, dim + 1):
                alone = random_low_support_state(rng, dim=dim, support=s).rho
                supports = (1, s, -(-s // 2))  # the widest second, so the stack's occupancy is not the first's
                stack = np.stack([random_low_support_state(rng, dim=dim, support=t).rho for t in supports])
                assert np.array_equal(fock._kraus_sums(channel, alone)[0], full_block_kraus_sums(channel, alone))
                for rho in (alone[None], stack):
                    for summed, m in zip(fock._kraus_sums(channel, rho)[0], rho):
                        assert np.array_equal(summed, full_block_kraus_sums(channel, m))

    def test_channel_on_identity_is_the_full_block_sum(self, small_dilations):
        for channel in small_dilations:
            identity = np.eye(channel.dim)
            assert np.array_equal(channel_on_identity(channel), full_block_kraus_sums(channel, identity))


class TestStackedCampaigns:
    """Campaigns run chunks of trials as stacks; their records are the per-state verifiers'."""

    TRIALS = 40  # three chunks at d = 60

    def test_lower_bound_records_equal_per_state_results(self, attenuator, amplifier, classical_noise):
        for channel in (attenuator, amplifier, classical_noise):
            summary = lower_bound_campaign(channel, self.TRIALS, np.random.default_rng(7))
            states = campaign_states(channel, 7, self.TRIALS)
            assert summary["records"] == [verify_lower_bound(channel, state) for state in states]

    def test_extremality_records_equal_per_state_results(self, attenuator, classical_noise):
        for channel in (classical_noise, attenuator):
            summary = extremality_campaign(channel, self.TRIALS, np.random.default_rng(7))
            states = campaign_states(channel, 7, self.TRIALS)
            assert summary["records"] == [verify_extremality(channel, state) for state in states]
            saturating = channel is attenuator
            assert all(r["flagged_saturating"] == saturating for r in summary["records"])

    @pytest.mark.parametrize(
        "dim, support, count",
        [(DIM, 10, 18), (DIM, 6, 18), (8, 10, 18), (DIM, 1, 18), (DIM, 10, 1)],
        ids=["60-10", "60-6", "8-10", "60-1-one-slot", "60-10-one-trial"],
    )
    def test_chunk_draw_equals_successive_single_draws(self, dim, support, count):
        # one component slot (support 1) and one live trial are the edges of the one-pass draw
        chunked, alone = np.random.default_rng(5), np.random.default_rng(5)
        rho, states = fock._random_states(chunked, count, dim, min(support, dim))
        assert rho.shape == (count, dim, dim) and len(states) == count
        for m, state in zip(rho, states):
            single = random_low_support_state(alone, dim=dim, support=support)
            assert np.array_equal(m, single.rho)
            assert np.array_equal(state.rho, single.rho)
            assert np.array_equal(state.spectrum, single.spectrum)
        # both generators are left in the same state
        after_chunk = random_low_support_state(chunked, dim=dim, support=support)
        after_singles = random_low_support_state(alone, dim=dim, support=support)
        assert np.array_equal(after_chunk.rho, after_singles.rho)

    def test_campaign_layer_reads_the_renormalized_outputs(self, attenuator, amplifier, classical_noise):
        # a campaign divides only the spectra of what _kept returns;
        # apply_channel divides the whole stack by _normalized: both must read the same bits
        for channel in (attenuator, amplifier, classical_noise):
            support = channel._support[0]
            rho = fock._random_states(np.random.default_rng(3), 18, DIM, support)[0]
            out, levels, _ = fock._kept(channel, rho)
            w, tr = fock._spectra(out, levels, DIM)
            assert np.array_equal(w / tr[:, None], fock._normalized(out, levels, DIM))

    def test_kept_renormalizes_as_numpy_divides_complex_by_real(self, small_dilations, rng):
        # _kept multiplies each float part by 1/t; numpy's complex-by-real division gives the same
        # bits on every entry that is not -0.0, and Kraus sums hold none
        dim = small_dilations[0].dim
        states = [number_state(dim - 1, dim), thermal_state(2.0, dim)]
        states += [random_low_support_state(rng, dim=dim, support=support) for support in (1, 4, dim)]
        stack = np.stack([state.rho for state in states])
        for channel in small_dilations:
            out = fock._kraus_sums(channel, stack)[0]
            parts = out.view(float)
            assert not np.signbit(parts[parts == 0.0]).any()
            kept, levels, _ = fock._kept(channel, stack)
            top = levels.max()
            out[:, :top, :top] /= np.trace(out, axis1=1, axis2=2).real[:, None, None]
            assert kept.tobytes() == out.tobytes()

    def test_chunk_entropies_equal_each_spectrum_alone(self, rng):
        # pure states sum to -0.0 alone: the chunk must keep the sign, and skip exact zeros
        states = [number_state(0, DIM), thermal_state(2.0, DIM), number_state(DIM - 1, DIM)]
        states += [random_low_support_state(rng, support=support) for support in (1, 3, 10, 10)]
        spectra = np.stack([state.spectrum for state in states])
        for entropy, w in zip(fock._entropies_of(spectra).tolist(), spectra):
            w = w[w > 0.0]
            alone = float(-(w * np.log(w)).sum())
            assert (entropy, math.copysign(1.0, entropy)) == (alone, math.copysign(1.0, alone))

    def test_degenerate_trial_mid_chunk_raises_before_its_chunk_runs(self, classical_noise, monkeypatch):
        with pytest.raises(HypothesisViolationError) as alone:
            verify_extremality(classical_noise, number_state(0, DIM))
        draw, kernel, drawn, stacks = fock._random_states, fock._kraus_sums, [], []

        def draw_vacuum_25th(*args):
            rho, states = draw(*args)
            trials = range(len(drawn), len(drawn) + len(states))
            drawn.extend(states)
            return rho, [number_state(0, DIM) if i == 24 else state for i, state in zip(trials, states)]

        def spy(channel, rho):
            stacks.append(len(rho))
            return kernel(channel, rho)

        monkeypatch.setattr(fock, "_random_states", draw_vacuum_25th)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(HypothesisViolationError, match=re.escape(str(alone.value))):
            extremality_campaign(classical_noise, self.TRIALS, np.random.default_rng(7))
        assert stacks == [18]
        assert len(drawn) == 36

    def test_gaussian_counterpart_is_solved_once(self, monkeypatch):
        solve, calls = channels.preset_channel, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(channels, "preset_channel", counted)  # where fock looks it up
        channel = build_dilation("classical_noise", 1.0, dim=20, noise=0.3)
        for seed in (7, 8):
            extremality_campaign(channel, 5, np.random.default_rng(seed))
        assert calls == [("classical-noise", 1.0)]
        assert channel.gaussian_channel() is channel.gaussian_channel()

    def test_stacks_stay_within_the_byte_budget(self, monkeypatch):
        kernel, sizes = fock._kraus_sums, []

        def spy(channel, rho):
            sizes.append(len(rho))
            out, levels = kernel(channel, rho)
            assert out.shape[1:] == (DIM, DIM) and out.nbytes <= fock._STACK_BYTES  # the widest stack
            return out, levels

        monkeypatch.setattr(fock, "_kraus_sums", spy)
        fresh = build_dilation("classical_noise", 1.0, dim=DIM, noise=0.3)
        lower_bound_campaign(fresh, self.TRIALS, np.random.default_rng(7))
        # the support's number states, one a stack, on first use only; then the trials
        assert sizes == [1] * 10 + [18, 18, 4]
        lower_bound_campaign(fresh, 4, np.random.default_rng(7))
        assert sizes[13:] == [4]

    def test_one_trial_per_stack_at_the_largest_cutoff(self, monkeypatch):
        # one 1000-level state is over the budget, so a stack holds one trial;
        # an identity channel and vacuum inputs keep the set-up cheap, and the
        # spy stops the campaign at its first stack
        dim = 1000
        identity = np.zeros((dim, dim), dtype=complex)
        identity[0] = 1.0
        channel = DilationChannel(kind="attenuator", k=0.5, dim=dim, kraus=identity)
        counts, shapes = [], []
        support = channel._support[0]  # computed before the spy, which would stop its Kraus sums

        class FirstStack(Exception):
            pass

        def spy(channel, rho):
            shapes.append(rho.shape)
            raise FirstStack

        def draw_vacua(rng, count, dim, support):
            counts.append(count)
            states = [number_state(0, dim)] * count
            return np.stack([state.rho for state in states]), states

        monkeypatch.setattr(fock, "_random_states", draw_vacua)
        monkeypatch.setattr(fock, "_kraus_sums", spy)
        with pytest.raises(FirstStack):
            lower_bound_campaign(channel, 3, np.random.default_rng(0))
        # the Kraus sums see the levels the inputs are drawn on, of a one-trial stack
        assert counts == [1]
        assert shapes == [(1, support, support)]
