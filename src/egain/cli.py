"""Command-line front end.

Subcommands expose the library's main computations as machine-readable
reports: ``gain`` (closed-form minimal entropy gain of a channel), ``sweep``
(Gibbs-state gains along a descending beta grid), ``fock`` (randomized
bound-verification campaign in the truncated number basis), ``classical``
(the infinite-entropy-gain classical counterexample), and ``williamson``
(normal form of a covariance matrix file).

The CLI only orchestrates and formats: every number in a report comes from a
library call. Reports are JSON (sorted keys) or CSV, written atomically, and
byte-identical for identical configuration and seed.

Exit codes: 0 success; 2 inadmissible input (including numbers so large or
small that the computation overflows); 3 hypothesis violation; 4 unreliable
truncation beyond threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .channels import (
    PRESET_NAMES,
    GaussianChannel,
    default_beta_grid,
    gain_beta_sweep,
    make_channel,
    minimal_entropy_gain,
    preset_channel,
)
from .classical import doubly_stochastic_check, heavy_tail, xor_family
from .errors import HypothesisViolationError, InadmissibleInputError
from .fock import (
    RELIABILITY_THRESHOLD,
    build_dilation,
    lower_bound_campaign,
    extremality_campaign,
)
from .gaussian import quadratic_hamiltonian
from .matio import _json_text, decode_array, encode_array, load_matrix, read_json, write_text
from .symplectic import DEFAULT_TOL, _uncertainty_cert, canonical_form, williamson

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_HYPOTHESIS = 3
EXIT_UNRELIABLE = 4

# A campaign whose reliable fraction drops below this floor exits with code 4;
# the report is still written so the unreliable trials stay visible.
RELIABLE_FRACTION_FLOOR = 0.95

# Largest `classical --k`: the structure check of the 2^k prefix costs ~4^k.
CLASSICAL_K_MAX = 16
# Largest `fock --dim`, `fock --trials` and `sweep --beta-points`, refused at
# parse time: each Fock stage holds dim^2 complex amplitudes (16 MB at 1000).
FOCK_DIM_MAX = 1000
FOCK_TRIALS_MAX = 100_000
BETA_POINTS_MAX = 1000


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, out: str | None) -> None:
    """Write a report to stdout, or atomically to ``out``."""
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _finite(text: str) -> float:
    """argparse type: a finite float, refused before any numpy call sees it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite, positive certificate tolerance."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _at_most(limit: int):
    """argparse type: an integer no larger than ``limit``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {text!r}")
        return value

    return parse


def _resolve_tol(args: argparse.Namespace) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("EGAIN_TOL")
    if env is not None:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            raise InadmissibleInputError(
                f"EGAIN_TOL must be a finite positive number, got {env!r}"
            ) from exc
    return DEFAULT_TOL


def _resolve_channel(args: argparse.Namespace, tol: float) -> tuple[GaussianChannel, dict]:
    """Build the channel named on the command line, plus its report stanza."""
    if args.channel_file:
        data = read_json(args.channel_file)
        if not isinstance(data, dict) or "K" not in data or "mu" not in data:
            raise InadmissibleInputError("channel file must contain 'K' and 'mu' matrices")
        K = decode_array(data["K"])
        mu = decode_array(data["mu"])
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2 != 0:
            raise InadmissibleInputError("K must be square with even dimension")
        space = canonical_form(K.shape[0] // 2)
        channel = make_channel(K.real, mu.real, space, tol=tol)
        source = {"channel_file": args.channel_file}
    elif args.preset:
        channel = preset_channel(args.preset, args.k, noise=args.noise, tol=tol)
        source = {"preset": args.preset, "k": float(args.k), "noise": float(args.noise)}
    else:
        raise InadmissibleInputError("provide --preset with --k, or --channel-file")
    return channel, source


def cmd_gain(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    channel, source = _resolve_channel(args, tol)
    gain = minimal_entropy_gain(channel)
    report = {
        "command": "gain",
        "seed": None,
        "source": source,
        "modes": channel.space.s,
        "admissibility": dict(dataclasses.asdict(channel.cert), strict=bool(channel.strict)),
        "regular": bool(channel.regular),
        "gain_closed_form": gain,
        # the general bound -log ||Phi[I]|| is log |det K|, the closed form itself
        "lower_bound_general": gain,
    }
    _emit(_json_text(report), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    channel, source = _resolve_channel(args, tol)
    space = channel.space
    if args.epsilon_file:
        epsilon = load_matrix(args.epsilon_file).real
        source["epsilon_file"] = args.epsilon_file
    else:
        epsilon = np.eye(2 * space.s)
    hamiltonian = quadratic_hamiltonian(space, epsilon, tol=tol)
    grid = default_beta_grid(args.beta_max, args.beta_min, args.beta_points)
    report = gain_beta_sweep(channel, hamiltonian, beta_grid=grid)
    lines = ["# seed: none"]
    for key, value in sorted(source.items()):
        lines.append(f"# {key}: {value}")
    lines.append(f"# closed_form: {_fmt(report.closed_form)}")
    lines.append(f"# converged: {str(report.converged).lower()}")
    if not report.converged:
        lines.append(
            "# warning: sweep did not converge above the beta floor; "
            "last gap " + _fmt(report.gains[-1] - report.closed_form)
        )
    lines.append("beta,gain,gap_to_closed_form")
    for beta, gain in zip(report.beta_grid, report.gains):
        lines.append(f"{_fmt(beta)},{_fmt(gain)},{_fmt(gain - report.closed_form)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fock(args: argparse.Namespace) -> int:
    if not args.preset:
        raise InadmissibleInputError("fock campaigns require --preset")
    kind = args.preset.replace("-", "_")
    if args.noise and kind != "classical_noise":
        raise InadmissibleInputError(f"--noise applies only to classical-noise, not {args.preset}")
    channel = build_dilation(kind, args.k, dim=args.dim, noise=args.noise)
    rng = np.random.default_rng(args.seed)
    if args.extremality:
        summary = extremality_campaign(channel, args.trials, rng)
        reference_key = "gaussian_gain"
    else:
        summary = lower_bound_campaign(channel, args.trials, rng)
        reference_key = "bound"
    keys = ("gain", reference_key, "deficit", "holds", "reliable")
    records = [{key: r[key] for key in keys} for r in summary["records"]]
    margins = [r["gain"] - r[reference_key] for r in records]
    report = {
        "command": "fock",
        "campaign": "extremality" if args.extremality else "lower_bound",
        "seed": int(args.seed),
        "kind": kind,
        "k": float(args.k),
        "noise": channel.noise,
        "dim": int(args.dim),
        "trials": int(args.trials),
        "support": summary["support"],
        "holds_count": summary["holds_count"],
        "reliable_count": summary["reliable_count"],
        "unreliable_count": args.trials - summary["reliable_count"],
        "worst_margin": min(margins),
        "max_deficit": max(r["deficit"] for r in records),
        "reliability_threshold": RELIABILITY_THRESHOLD,
        "records": records,
    }
    _emit(_json_text(report), args.out)
    if summary["reliable_count"] < RELIABLE_FRACTION_FLOOR * args.trials:
        return EXIT_UNRELIABLE
    return EXIT_OK


def cmd_classical(args: argparse.Namespace) -> int:
    k_max = args.k
    if not 1 <= k_max <= CLASSICAL_K_MAX:
        raise InadmissibleInputError(
            f"prefix exponent must be between 1 and {CLASSICAL_K_MAX}"
        )
    if args.n_max < 1 << k_max:
        raise InadmissibleInputError(f"--n-max must be at least 2^k = {1 << k_max}")
    dist = heavy_tail(args.n_max)
    family = xor_family()
    lines = ["# seed: none", f"# n_max: {dist.n_max}", "k,H,doubly_stochastic"]
    for k in range(1, k_max + 1):
        entropy = dist.truncated_entropy(1 << k)
        verdict = doubly_stochastic_check(family, dist, k)
        lines.append(f"{k},{_fmt(entropy)},{str(verdict).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_williamson(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    alpha = load_matrix(args.matrix_file).real
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1] or alpha.shape[0] % 2 != 0:
        raise InadmissibleInputError("covariance matrix must be square with even dimension")
    space = canonical_form(alpha.shape[0] // 2)
    decomposition = williamson(alpha, space, tol=tol)
    report = {
        "command": "williamson",
        "seed": None,
        "matrix_file": args.matrix_file,
        "modes": space.s,
        "symplectic_eigenvalues": [float(nu) for nu in decomposition.nu],
        "T": encode_array(decomposition.T),
        "admissibility": dataclasses.asdict(_uncertainty_cert(decomposition.nu, tol)),
    }
    _emit(_json_text(report), args.out)
    return EXIT_OK


def _add_channel_flags(parser: argparse.ArgumentParser, fock: bool = False) -> None:
    """Channel flags; the Fock oracle takes presets only and certifies no matrix, so no file or tolerance.

    Elsewhere a preset and a channel file exclude each other, so neither is ignored.
    """
    source = parser if fock else parser.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESET_NAMES, help="named one-mode channel")
    parser.add_argument("--k", type=_finite, default=0.5, help="channel parameter k")
    parser.add_argument(
        "--noise", type=_finite, default=0.0, help="extra classical noise per quadrature"
    )
    if not fock:
        source.add_argument("--channel-file", help="JSON file holding matrices K and mu")
        parser.add_argument("--tol", type=_tolerance, default=None, help="certificate tolerance")
    parser.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egain",
        description="Minimal entropy gain of bosonic Gaussian channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gain = sub.add_parser("gain", help="closed-form minimal entropy gain")
    _add_channel_flags(p_gain)
    p_gain.set_defaults(func=cmd_gain)

    p_sweep = sub.add_parser("sweep", help="Gibbs-state gain along a beta grid")
    _add_channel_flags(p_sweep)
    p_sweep.add_argument("--epsilon-file", help="JSON matrix file for the Hamiltonian")
    p_sweep.add_argument("--beta-max", type=_finite, default=1.0)
    p_sweep.add_argument("--beta-min", type=_finite, default=1e-6)
    p_sweep.add_argument("--beta-points", type=_at_most(BETA_POINTS_MAX), default=25)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fock = sub.add_parser("fock", help="randomized Kraus-oracle bound campaign")
    _add_channel_flags(p_fock, fock=True)
    p_fock.add_argument(
        "--dim", type=_at_most(FOCK_DIM_MAX), default=60, help="Fock-space cutoff"
    )
    p_fock.add_argument("--trials", type=_at_most(FOCK_TRIALS_MAX), default=100)
    p_fock.add_argument("--seed", type=int, default=0)
    p_fock.add_argument(
        "--extremality",
        action="store_true",
        help="check Gaussian extremality instead of the universal bound",
    )
    p_fock.set_defaults(func=cmd_fock)

    p_classical = sub.add_parser("classical", help="classical counterexample table")
    p_classical.add_argument(
        "--k", type=int, default=14, help="largest prefix exponent to tabulate"
    )
    p_classical.add_argument(
        "--n-max", type=int, default=10_000_000, help="distribution truncation, at least 2^k"
    )
    p_classical.add_argument("--out", help="output path (stdout when omitted)")
    p_classical.set_defaults(func=cmd_classical)

    p_will = sub.add_parser("williamson", help="normal form of a covariance file")
    p_will.add_argument("matrix_file", help="JSON matrix file")
    p_will.add_argument("--tol", type=_tolerance, default=None)
    p_will.add_argument("--out", help="output path (stdout when omitted)")
    p_will.set_defaults(func=cmd_williamson)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy overflow, division by zero and invalid values raise instead of
        # warning, so a finite but out-of-range number ends in exit 2, as does
        # a float OverflowError (an amplifier k whose square overflows)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return int(args.func(args))
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    # InadmissibleInputError and json.JSONDecodeError are ValueErrors
    except (FloatingPointError, OverflowError, OSError, KeyError, ValueError) as exc:
        message = str(exc)
        if isinstance(exc, (FloatingPointError, OverflowError)):
            message = f"numeric overflow: {message}; input out of range"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    raise SystemExit(main())
