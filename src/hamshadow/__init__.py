"""Shadow tomography from single-Hamiltonian quench dynamics.

Evolve a state under one fixed Hamiltonian for random durations, measure
in the computational basis, and invert the averaged record to estimate
arbitrary observables. The package covers the exact inverse map and its
completeness diagnosis, finite-time bias correction, variance theory,
simulated experiments, and a config-driven CLI.
"""

from .qmatrix import (
    SpectralHamiltonian,
    evolve,
    hermitian_spectral,
    partial_trace,
    swap_operator,
)
from .times import TimeModel
from .rdu import (
    DegeneracySpec,
    frame_potential_finite_time,
    frame_potential_rdu_exact,
)
from .shadowmap import (
    CompletenessDiagnosis,
    IncompleteInverterError,
    ShadowInverter,
    build_inverter,
    diagnose_detection,
    hamiltonian_fingerprint,
)
from .sampler import (
    Snapshot,
    SnapshotSet,
    load_snapshots,
    run_batch,
    save_snapshots,
    substream,
)
from .estimators import (
    EstimateReport,
    Observable,
    estimate_linear,
    estimate_nonlinear,
    estimate_purity,
    median_of_means,
    snapshot_values,
    wrong_postprocessing_values,
)
from .variance import (
    VarianceReport,
    empirical_variance,
    sample_complexity,
    second_moment_exact,
    shadow_norm_sq,
    variance_approx_linear,
    variance_approx_nonlinear,
    variance_exact,
)
from .models import (
    RydbergParams,
    cluster_state,
    exp_family_vh,
    ghz_state,
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    ladder_product_state,
    pauli_tensor,
    random_hermitian,
    random_positions,
    rydberg_hamiltonian,
    single_qubit_theta,
    thermal_state,
)

__version__ = "0.1.0"
