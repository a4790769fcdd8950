"""Few-qubit density-matrix simulator and protocol engine for spin-mediated
entanglement operations between static qubits."""

from .channels import NoiseParams, dephasing, imperfect_init, relaxation
from .metrics import BellLabel, bell_fidelity, concurrence, success_stats
from .protocol import (
    ChainReport,
    ParityTree,
    PumpTrajectory,
    chain_report,
    fresh_pair_fidelity,
    generate_resource,
    parity_success_output,
    parity_tree,
    pump_until,
    resource_rows,
)
from .qcore import (
    DensityMatrix,
    KrausChannel,
    MeasurementBranch,
    apply_channel,
    apply_unitary,
    ket,
    measure,
    partial_trace,
    tensor_dm,
)
from .rng import trial_rng, trial_streams, trial_uniforms
from .scattering import (
    FullScatterParams,
    forward_unitary,
    full_scatter,
    herald_transmission,
)

__version__ = "0.1.0"
