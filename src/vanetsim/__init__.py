"""Highway content-distribution toolkit.

Simulates rateless-coded packet dissemination between vehicles and roadside
stations on a highway with Poisson traffic, computes the matching
closed-form throughput expectations for discrete and continuous velocity
distributions, and solves for the throughput-maximizing velocity
probability mass function. Simulation and analysis cross-validate each
other; the ``vanetsim`` command line drives both from scenario JSON files.
"""

from .analysis import (
    AnalyticReport,
    analytic_report,
    expected_download_time,
    expected_encounters,
    expected_packets,
    expected_throughput,
    expected_throughput_class,
    expected_throughput_continuous,
    mean_cars_in_segment,
)
from .encounters import (
    MonteCarloEstimate,
    TripResult,
    infostation_download,
    monte_carlo_throughput,
    simulate_download_time,
    simulate_download_times,
    simulate_trip,
)
from .errors import (
    InternalInconsistencyError,
    InvalidParameterError,
    NoProgressError,
    NumericalError,
    SchemaError,
)
from .fountain import (
    DecoderState,
    EncodingVector,
    FileSpec,
    LtScheme,
    NotYetDecodable,
    Packet,
    SolitonParams,
    UniformScheme,
    encode,
    encode_batch,
    packets_needed,
    robust_soliton_pmf,
    sample_uniform_vector,
    sample_uniform_vectors,
    span_probability,
    vector_batch_sampler,
)
from .pmf_opt import (
    PmfSolution,
    objective,
    optimize_pmf,
    probabilities_decrease_with_speed,
    reduced_hessian,
)
from .traffic import (
    ContinuousVelocityDist,
    DiscreteVelocityDist,
    Scenario,
    VelocityClass,
    mean_inverse_speed,
    scenario_from_dict,
)

__version__ = "0.1.0"
