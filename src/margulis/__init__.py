"""Margulis expander walk on Z_N^2 and its discrete phase-space quantization.

The package has five layers:

* :mod:`margulis.walk` -- the classical walk: affine generators, the
  stochastic step, its dense matrix, and spectral-gap reports.
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

from .walk import (AffineMap, GridDist, SpectralReport, GABBER_GALIL_BOUND,
                   GENERATOR_LABELS, apply_affine, generator_data,
                   generator_map, margulis_generators, spectral_report,
                   walk_matrix, walk_step)
from .phasespace import (PhaseSpaceContext, affine_unitary, fourier,
                         inverse_wigner, parity, phase_point, quadratic_phase,
                         weyl, wigner)
from .channel import (KrausChannel, apply_channel, channel_report,
                      expander_lambda, margulis_channel, superoperator,
                      verify_identities)
from .circuits import (Gate, GateList, affine_circuit, circuit_deviation,
                       equal_up_to_phase, evaluate, quadratic_circuit, weyl_circuit)
from .continuous import (ContractionReport, CovMatrix, MeanVector,
                         SampledField, TEST_FUNCTIONS, contraction_check,
                         discretize, f_map, g_map, g_matrix, gn_closed_form,
                         growth_rate, mean_update)

__all__ = [name for name in dir() if not name.startswith("_")]
