"""Upper bounds on the LOCC dense-coding capacity of multiqubit states shared
between N senders and two receivers, under noiseless and noisy channels,
together with the generalized geometric measure of entanglement."""

from .capacity import (DEFAULT_OPT, BoundReport,
                       EncodingUnitaryParams, Ensemble, OptConfig,
                       OptimizationError, SearchDiagnostics,
                       closed_form_ghz_bound, covariant_chi, ensemble_chi,
                       extremum_residual_ad,
                       ghz_zeta_eigenvalues, global_capacity,
                       locc_bound_noiseless, min_output_entropy,
                       noiseless_bounds, noisy_locc_bound,
                       pauli_encoded_ensemble)
from .channels import (ChannelSpec, KrausSet, apply_channel, channel_to_string,
                       check_covariance, kraus_for, marginal_kraus,
                       parse_channel, pauli_basis, twirl)
from .ggm import (BipartitionScan, CutSpectra, Theorem2Flags, above_gghz_line,
                  ggm, gghz_ggm_at_capacity, theorem2_conditions,
                  theorem2_flags)
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
    "Ensemble", "GghzParams", "KrausSet", "OptConfig", "OptimizationError",
    "PureState", "RegisterLayout", "RngSeed", "SearchDiagnostics",
    "StateFormatError", "Theorem2Flags", "above_gghz_line",
    "apply_channel", "apply_local_unitary", "binary_entropy",
    "channel_to_string", "check_covariance", "closed_form_ghz_bound",
    "covariant_chi", "ensemble_chi", "extremum_residual_ad",
    "gghz_ggm_at_capacity", "ggm", "ghz_zeta_eigenvalues",
    "global_capacity", "haar_amplitudes", "haar_random_pure", "kraus_for",
    "load_state", "locc_bound_noiseless", "make_gghz", "make_ghz",
    "marginal_kraus", "min_output_entropy", "noiseless_bounds",
    "noisy_locc_bound", "parse_channel", "partial_trace", "pauli_basis",
    "pauli_encoded_ensemble", "save_state", "tensor",
    "theorem2_conditions", "theorem2_flags", "twirl", "von_neumann_entropy",
]
