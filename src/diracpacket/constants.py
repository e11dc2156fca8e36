"""Unit system and physical constants.

Everything internal runs in natural electron units, m_e = hbar = c = 1:
lengths are Compton wavelengths hbar/(m_e c), energies are rest energies
m_e c^2, and times are Compton times hbar/(m_e c^2).  The only dimensional
bridge the library needs is the Compton time in seconds, the one constant
COMPTON_TIME_SECONDS.

The fine-structure constant is the one setting.  It is kept at the fixed
reference value 1/137.036 by default so published reference numbers are
reproduced digit for digit; it can be overridden per computation through
:class:`PhysicalConstants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALPHA_DEFAULT = 1.0 / 137.036

# hbar / (m_e c^2) in seconds.
COMPTON_TIME_SECONDS = 1.2880887e-21


@dataclass(frozen=True)
class PhysicalConstants:
    """The one setting of the unit system: the fine-structure constant.

    Parameters
    ----------
    alpha : float
        Fine-structure constant.  Must lie in (0, 0.01); values outside
        that range have no hydrogenic regime worth simulating and almost
        certainly indicate a units mistake.

    Times in seconds always use the fixed COMPTON_TIME_SECONDS.
    """

    alpha: float = ALPHA_DEFAULT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 0.01):
            raise ValueError(
                f"alpha must be finite and inside (0, 0.01), got {self.alpha!r}"
            )


DEFAULT_CONSTANTS = PhysicalConstants()
