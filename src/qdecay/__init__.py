"""Monte Carlo quantum-trajectory toolkit for two-level spontaneous decay.

Three single-decay engines (qmop, swf, nsm), homodyne detection with
back-action, driven fluorescence, and the ensemble statistics needed to
compare them against their analytic laws.
"""

from .core import (
    EventKind,
    Model,
    ModelParams,
    QubitState,
    RngStream,
    TrajectoryEvent,
    TrajectoryRecord,
    derive_stream,
    normalize,
    occupation,
    photon_packet_length,
    sigma_x_expectation,
)
from .homodyne import (
    DensityMatrix2,
    FieldPair,
    HomodyneBlock,
    HomodyneRecord,
    NoiseModel,
    apply_detection_exact,
    apply_detection_first_order,
    back_action_increment,
    back_action_step,
    beamsplitter_mix,
    ensemble_autocorrelation,
    homodyne_current,
    iter_homodyne_records,
    run_homodyne_ensemble,
    run_homodyne_trajectory,
    signal_autocorrelation,
)
from .models import (
    DecayBlock,
    DropMoments,
    EnsembleSummary,
    NsmEvent,
    NsmOutcome,
    fluctuation_gap_density,
    jump_probability,
    occupation_drop_density,
    occupation_drop_moments,
    qmop_propagate,
    run_decay_ensemble,
    run_nsm_trajectory,
    run_qmop_trajectory,
    run_swf_trajectory,
    sample_fluctuation_gap,
    survival_probability,
    swf_detection_probability,
    unitary_weights,
)
from .rabi import (
    DriveParams,
    DrivenEnsemble,
    FluorescenceSeries,
    fluorescence_fluctuation_histogram,
    fluorescence_intensity,
    rabi_frequency,
    rabi_occupation_undamped,
    run_driven_ensemble,
    run_driven_trajectory,
    torrey_occupation,
)
from .stats import (
    EcdfResult,
    HistogramResult,
    SpectrumResult,
    ecdf,
    histogram,
    ks_distance,
    mean_var_se,
    power_spectrum,
)

__version__ = "0.1.0"
