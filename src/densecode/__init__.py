"""Upper bounds on the LOCC dense-coding capacity of multiqubit states shared
between N senders and two receivers, under noiseless and noisy channels,
together with the generalized geometric measure of entanglement."""

from .capacity import (DEFAULT_OPT, BoundReport, EncodingUnitaryParams, OptConfig,
                       OptimizationError, SearchDiagnostics,
                       closed_form_ghz_bound, covariant_chi, global_capacity,
                       locc_bound_noiseless, min_output_entropy,
                       noiseless_bounds, noisy_locc_bound, noisy_locc_bounds)
from .channels import (ChannelSpec, KrausSet, apply_channel, check_covariance,
                       kraus_for, marginal_kraus, parse_channel, pauli_basis)
from .ggm import (BipartitionScan, CutSpectra, Theorem2Flags, above_gghz_line,
                  ggm, theorem2_conditions, theorem2_flags)
from .qcore import (DensityOp, PureState, RegisterLayout, apply_local_unitary,
                    binary_entropy, partial_trace, tensor,
                    von_neumann_entropy)
from .states import (GghzParams, RngSeed, StateFormatError, haar_amplitudes,
                     haar_random_pure, load_state, make_gghz, make_ghz,
                     save_state)

__version__ = "0.1.0"

__all__ = [
    "BipartitionScan", "BoundReport", "ChannelSpec",
    "CutSpectra", "DEFAULT_OPT", "DensityOp", "EncodingUnitaryParams",
    "GghzParams", "KrausSet", "OptConfig", "OptimizationError",
    "PureState", "RegisterLayout", "RngSeed", "SearchDiagnostics",
    "StateFormatError", "Theorem2Flags", "above_gghz_line",
    "apply_channel", "apply_local_unitary", "binary_entropy",
    "check_covariance", "closed_form_ghz_bound", "covariant_chi", "ggm",
    "global_capacity", "haar_amplitudes", "haar_random_pure", "kraus_for",
    "load_state", "locc_bound_noiseless", "make_gghz", "make_ghz",
    "marginal_kraus", "min_output_entropy", "noiseless_bounds",
    "noisy_locc_bound", "noisy_locc_bounds", "parse_channel", "partial_trace",
    "pauli_basis", "save_state", "tensor", "theorem2_conditions",
    "theorem2_flags", "von_neumann_entropy",
]
