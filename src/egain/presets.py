"""The preset channels' domain, which presets exist and which k and noise each accepts, for both
routes and the CLI. It loads no numpy, and ``import egain`` does not run it."""

import math
import sys

from .errors import InadmissibleInputError

PRESET_NAMES = ("attenuator", "amplifier", "classical-noise")


def _preset_noise(name: str, k: float, noise) -> float:
    """The noise of preset ``name`` as a float, None and -0.0 read as 0.0, refused by name unless k
    (an amplifier's with k^2 a float) and noise lie in the preset's domain, which both routes share."""
    if name not in PRESET_NAMES:
        raise InadmissibleInputError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "attenuator" and not 0.0 < k < 1.0:
        raise InadmissibleInputError(f"attenuator requires 0 < k < 1, got k = {float(k)!r}")
    if name == "amplifier" and not k > 1.0:
        raise InadmissibleInputError(f"amplifier requires k > 1, got k = {float(k)!r}")
    if name == "amplifier" and not k < math.sqrt(sys.float_info.max):
        raise InadmissibleInputError(f"k = {k:.3g} is too large: k^2 overflows")
    if name == "classical-noise" and k != 1.0:
        raise InadmissibleInputError(f"classical-noise requires k = 1, got k = {float(k)!r}")
    if noise is not None and not 0.0 <= noise < math.inf:
        raise InadmissibleInputError(f"noise must be nonnegative and finite, got {noise!r}")
    return float(noise or 0.0)
