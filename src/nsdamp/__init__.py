"""Spectral solver and verification harness for damped incompressible flow.

A pseudo-spectral integrator for the incompressible Navier-Stokes equations
with a polynomial velocity damping term on a periodic box, truncated to a
closed ball of Fourier modes, plus the bookkeeping needed to *certify* runs:
an energy-budget ledger, analytic inequality oracles, and experiment drivers
for stability, continuity, large-time decay, and refinement studies, each
verdict a certificate of finite checks.

The package namespace re-exports the public names (``__all__``) of every
module except the command-line entry point ``nsdamp.cli``.
"""

from . import (certificate, checkpoint, config, dynamics, experiments, inequalities,
               initial_conditions, ledger, spectral)
from .certificate import *  # noqa: F401,F403
from .checkpoint import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .inequalities import *  # noqa: F401,F403
from .initial_conditions import *  # noqa: F401,F403
from .ledger import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (certificate, checkpoint, config, dynamics, experiments, inequalities,
                   initial_conditions, ledger, spectral)
    for name in module.__all__
]
