"""corrchan: correlated-noise quantum channels in arbitrary finite dimension.

Builds mixed-unitary channels whose two uses share errors with a tunable
correlation weight, finds the pure input states minimising the output
entropy, detects the sharp separable-to-maximally-entangled transition in
the optimal inputs, decides from the operator algebra whether such a
transition must exist, and evaluates closed-form fidelity and linearized
entropy estimates.
"""

from .analysis import (AnalyticEstimates, SweepEntry, SweepResult,
                       TheoremVerdict, analytic_estimates, check_theorem,
                       detect_transition, estimate_mu_c_crossing,
                       mutual_information_i2, sweep, verify_covariance,
                       verify_schur_average)
from .channels import (CorrelatedChannel, KrausChannel, PauliOperatorSet,
                       apply_correlated, apply_correlated_pure, apply_phi,
                       apply_phi_c, pauli_channel, pauli_column_probs,
                       pauli_identity_residuals, pauli_operator_set,
                       qubit_ixz_channel, symmetric_pauli_channel)
from .linalg import (TOL, entropy_of_spectrum, fidelity_pure, linear_entropy,
                     tensor, von_neumann_entropy)
from .optimize import (MinEntropyResult, OptimizerConfig, ansatz_output_matrix,
                       minimize_ansatz, minimize_full, objective,
                       oracle_sample)
from .states import (SymmetricAnsatz, ansatz_state, basis_separable,
                     entanglement_of, from_params, haar_random_unitary,
                     invariance_check_me, max_entangled, params_of,
                     random_pure_state)

__version__ = "0.1.0"

__all__ = [
    "AnalyticEstimates", "CorrelatedChannel", "KrausChannel",
    "MinEntropyResult", "OptimizerConfig", "PauliOperatorSet",
    "SweepEntry", "SweepResult", "SymmetricAnsatz", "TheoremVerdict",
    "TOL", "analytic_estimates", "ansatz_output_matrix", "ansatz_state",
    "apply_correlated", "apply_correlated_pure", "apply_phi",
    "apply_phi_c", "basis_separable", "check_theorem", "detect_transition",
    "entanglement_of", "entropy_of_spectrum", "estimate_mu_c_crossing",
    "fidelity_pure", "from_params", "haar_random_unitary",
    "invariance_check_me", "linear_entropy", "max_entangled",
    "minimize_ansatz", "minimize_full", "mutual_information_i2",
    "objective", "oracle_sample", "params_of", "pauli_channel",
    "pauli_column_probs", "pauli_identity_residuals", "pauli_operator_set",
    "qubit_ixz_channel", "random_pure_state", "symmetric_pauli_channel",
    "sweep", "tensor", "verify_covariance", "verify_schur_average",
    "von_neumann_entropy",
]
