"""Margulis expander walk on Z_N^2 and its discrete phase-space quantization.

The package has seven layers:

* :mod:`margulis.walk` -- the classical walk: the eight affine maps, the
  stochastic step and its dense matrix.
* :mod:`margulis.spectrum` -- spectral-gap reports: the dense spectrum of a
  walk matrix, solved in the blocks of the lattice symmetries.
* :mod:`margulis.frames` -- walk frames as CSV tables and PGM heatmaps.
* :mod:`margulis.phasespace` -- Weyl-Heisenberg and phase-point operators,
  the Wigner transform, and the unitaries implementing affine lattice maps.
* :mod:`margulis.channel` -- the degree-8 unitary-mixture channel built
  from the eight walk maps, its superoperator and mixing rate, and
  ``verify_identities``, the random-input checks behind ``margulis verify``.
* :mod:`margulis.circuits` -- qudit gate-list synthesis of the channel's
  unitaries for N = d^n, checked against their action on random states.
* :mod:`margulis.continuous` -- first/second-moment dynamics of the
  real-plane version and the discretized contraction experiment.

A command-line frontend lives in :mod:`margulis.cli`.
"""

__version__ = "0.1.0"

from .walk import (AffineMap, GridDist, GABBER_GALIL_BOUND, apply_affine, generator_map,
                   walk_matrix, walk_step)
from .spectrum import SpectralReport, spectral_report
from .phasespace import (PhaseSpaceContext, affine_unitary, fourier,
                         inverse_wigner, parity, phase_point, quadratic_phase,
                         weyl, wigner)
from .channel import (KrausChannel, apply_channel, channel_report,
                      expander_lambda, margulis_channel, superoperator,
                      verify_identities)
from .circuits import (Gate, GateList, affine_circuit, circuit_deviation, evaluate,
                       quadratic_circuit, weyl_circuit)
from .continuous import (ContractionReport, CovMatrix, MeanVector,
                         SampledField, TEST_FUNCTIONS, contraction_check,
                         discretize, f_map, g_map, g_matrix, gn_closed_form,
                         growth_rate, mean_update)

__all__ = [name for name in dir() if not name.startswith("_")]
