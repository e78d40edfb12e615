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
small that the computation overflows) or a failed internal numerical check;
3 hypothesis violation; 4 too few reliable campaign trials (ones whose margin
exceeds their proved truncation slack).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

# lazy modules, each run on the first read of one of its names; numpy loads only after the argv and
# file refusals, and matio, which reads the files, imports numpy only to build an array
from . import channels, classical, fock, gaussian, matio, symplectic
from .errors import DEFAULT_DIM, DEFAULT_TOL, HypothesisViolationError, InadmissibleInputError, _beta_grid_points
from .presets import PRESET_NAMES, _preset_noise

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


def __getattr__(name: str):
    """The campaign drivers, read from ``fock`` where ``cmd_fock`` looks them up (PEP 562)."""
    if name not in ("build_dilation", "lower_bound_campaign", "extremality_campaign"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(fock, name)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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


def _at_most(limit: float, least: float = -math.inf):
    """argparse type: an integer no larger than ``limit`` and no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not least <= value <= limit:
            bound = f"at most {limit}" if value > limit else f"at least {least}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    return parse


def _check_argv(args: argparse.Namespace) -> None:
    """Every refusal that argv alone decides, raised before numpy is imported; a preset's noise is stored as a float."""
    if args.command in ("gain", "sweep") and not (args.channel_file or args.preset):
        raise InadmissibleInputError("provide --preset with --k, or --channel-file")
    if args.command == "sweep":
        _beta_grid_points(args.beta_max, args.beta_min, args.beta_points)
    elif args.command == "fock" and not args.preset:
        raise InadmissibleInputError("fock campaigns require --preset")
    elif args.command == "classical" and not 1 <= args.k <= CLASSICAL_K_MAX:
        raise InadmissibleInputError(f"prefix exponent must be between 1 and {CLASSICAL_K_MAX}")
    if args.command in ("gain", "sweep", "fock") and args.preset:
        args.noise = _preset_noise(args.preset, args.k, args.noise)


def _check_files(args: argparse.Namespace) -> None:
    """Every refusal that the input files decide, raised before numpy is imported; each file is read
    once, and its checked rows kept in ``args``. An epsilon file must fit the channel: a preset has one mode."""
    if args.command == "williamson":
        args.alpha = matio.matrix_rows(args.matrix_file, "covariance matrix")
    elif args.command in ("gain", "sweep") and args.channel_file:
        args.K, args.mu = matio.channel_rows(args.channel_file)
    if args.command == "sweep" and args.epsilon_file:
        size = len(args.K) if args.channel_file else 2
        args.epsilon = matio.matrix_rows(args.epsilon_file, "Hamiltonian matrix", size)


def _resolve_channel(args: argparse.Namespace) -> tuple[channels.GaussianChannel, dict]:
    """Build the channel named on the command line, plus its report stanza."""
    if args.channel_file:
        space = symplectic.canonical_form(len(args.K) // 2)
        return channels.make_channel(args.K, args.mu, space, tol=args.tol), {"channel_file": args.channel_file}
    channel = channels.preset_channel(args.preset, args.k, noise=args.noise, tol=args.tol)
    return channel, {"preset": args.preset, "k": float(args.k), "noise": float(args.noise)}


def cmd_gain(args: argparse.Namespace) -> tuple[dict, int]:
    channel, source = _resolve_channel(args)
    cert = channel.cert
    gain = channels.minimal_entropy_gain(channel)
    report = {
        "command": "gain",
        "seed": None,
        "source": source,
        "modes": channel.space.s,
        "admissibility": dict(cert._asdict(), verdict=cert.verdict, strict=bool(channel.strict)),
        "regular": bool(channel.regular),
        "gain_closed_form": gain,
        # the general bound -log ||Phi[I]|| is log |det K|, the closed form itself
        "lower_bound_general": gain,
    }
    return report, EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    import numpy as np

    channel, source = _resolve_channel(args)
    if args.epsilon_file:
        source["epsilon_file"] = args.epsilon_file
    epsilon = args.epsilon if args.epsilon_file else np.eye(2 * channel.space.s)
    hamiltonian = gaussian.quadratic_hamiltonian(channel.space, epsilon, tol=args.tol)
    grid = channels.default_beta_grid(args.beta_max, args.beta_min, args.beta_points)
    report = channels.gain_beta_sweep(channel, hamiltonian, beta_grid=grid)
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
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_fock(args: argparse.Namespace) -> tuple[dict, int]:
    import numpy as np

    kind = args.preset.replace("-", "_")
    channel = fock.build_dilation(kind, args.k, dim=args.dim, noise=args.noise)
    rng = np.random.default_rng(args.seed)
    if args.extremality:
        summary = fock.extremality_campaign(channel, args.trials, rng)
        reference_key = "gaussian_gain"
    else:
        summary = fock.lower_bound_campaign(channel, args.trials, rng)
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
        "slack_bound": summary["slack_bound"],
        "holds_count": summary["holds_count"],
        "reliable_count": summary["reliable_count"],
        "unreliable_count": args.trials - summary["reliable_count"],
        "worst_margin": min(margins),
        "max_deficit": max(r["deficit"] for r in records),
        "records": records,
    }
    unreliable = summary["reliable_count"] < RELIABLE_FRACTION_FLOOR * args.trials
    return report, EXIT_UNRELIABLE if unreliable else EXIT_OK


def cmd_classical(args: argparse.Namespace) -> tuple[str, int]:
    dist = classical.heavy_tail()
    lines = ["# seed: none", "k,H,doubly_stochastic"]
    failing = classical.first_failing_prefix(classical.xor_family(), dist, args.k)
    for k in range(1, args.k + 1):
        entropy = dist.truncated_entropy(1 << k)
        lines.append(f"{k},{_fmt(entropy)},{str(k < failing).lower()}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_williamson(args: argparse.Namespace) -> tuple[dict, int]:
    space = symplectic.canonical_form(len(args.alpha) // 2)
    decomposition = symplectic.williamson(args.alpha, space, tol=args.tol)
    cert = symplectic._uncertainty_cert(decomposition.nu, args.tol)
    report = {
        "command": "williamson",
        "seed": None,
        "matrix_file": args.matrix_file,
        "modes": space.s,
        "symplectic_eigenvalues": [float(nu) for nu in decomposition.nu],
        "T": matio.encode_array(decomposition.T),
        "admissibility": dict(cert._asdict(), verdict=cert.verdict),
    }
    return report, EXIT_OK


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
        parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="certificate tolerance")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative number as a value, not an option.

    argparse's own pattern for negative numbers has no exponent and no
    infinity, so ``--k -1e308`` or ``--k -inf`` would be refused as a missing
    argument before ``_finite`` could name the value. Subparsers inherit the
    class. No option of this CLI is spelled as a dash followed by a digit,
    ``.``, ``inf`` or ``nan``, so none is mistaken for a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egain",
        description="Minimal entropy gain of bosonic Gaussian channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (stdout when omitted)")

    p_gain = sub.add_parser("gain", parents=[out], help="closed-form minimal entropy gain")
    _add_channel_flags(p_gain)
    p_gain.set_defaults(func=cmd_gain)

    p_sweep = sub.add_parser("sweep", parents=[out], help="Gibbs-state gain along a beta grid")
    _add_channel_flags(p_sweep)
    p_sweep.add_argument("--epsilon-file", help="JSON matrix file for the Hamiltonian")
    p_sweep.add_argument("--beta-max", type=_finite, default=1.0)
    p_sweep.add_argument("--beta-min", type=_finite, default=1e-6)
    p_sweep.add_argument("--beta-points", type=_at_most(BETA_POINTS_MAX), default=25)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fock = sub.add_parser("fock", parents=[out], help="randomized Kraus-oracle bound campaign")
    _add_channel_flags(p_fock, fock=True)
    p_fock.add_argument(
        "--dim", type=_at_most(FOCK_DIM_MAX), default=DEFAULT_DIM, help="Fock-space cutoff"
    )
    p_fock.add_argument("--trials", type=_at_most(FOCK_TRIALS_MAX), default=100)
    p_fock.add_argument("--seed", type=_at_most(math.inf, 0), default=0)
    p_fock.add_argument(
        "--extremality",
        action="store_true",
        help="check Gaussian extremality instead of the universal bound",
    )
    p_fock.set_defaults(func=cmd_fock)

    p_classical = sub.add_parser("classical", parents=[out], help="classical counterexample table")
    p_classical.add_argument(
        "--k", type=int, default=14, help="largest prefix exponent to tabulate"
    )
    p_classical.set_defaults(func=cmd_classical)

    p_will = sub.add_parser("williamson", parents=[out], help="normal form of a covariance file")
    p_will.add_argument("matrix_file", help="JSON matrix file")
    p_will.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_will.set_defaults(func=cmd_williamson)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_argv(args)
        _check_files(args)
        import numpy as np

        # numpy overflow, division by zero and invalid values raise instead of
        # warning, so a finite but out-of-range number ends in exit 2, as does
        # a Python float OverflowError
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report, code = args.func(args)
        text = report if isinstance(report, str) else matio._json_text(report)
        if args.out is None:
            sys.stdout.write(text)
        else:
            matio.write_text(args.out, text)
        return code
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    # InadmissibleInputError and json.JSONDecodeError are ValueErrors; the package raises no RuntimeError of its own
    except (FloatingPointError, OverflowError, OSError, KeyError, ValueError, RuntimeError) as exc:
        message = str(exc)
        if isinstance(exc, (FloatingPointError, OverflowError)):
            message = f"numeric overflow: {message}; input out of range"
        elif isinstance(exc, RuntimeError):
            message = f"internal numerical check failed: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    raise SystemExit(main())
