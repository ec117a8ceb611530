"""Numerical simulator for heralded single-photon sources.

Computes the heralded idler density matrix and the figures of merit of a
filtered, time-windowed heralding measurement: pair probability, click and
detection efficiencies, heralding efficiency, and production rates.
"""
from .herald import (
    HeraldedState,
    MetricsReport,
    absolute_rate,
    collapsed_wavefunctions,
    heralding_efficiency,
    idler_density_matrix,
    practical_rate,
    t_min,
)
from .jsa import (
    JsaField,
    SourceParams,
    jsa_amplitude,
    jsa_norm,
    pair_probability,
    sample_jsa,
    separable_jsa,
)
from .numerics import (
    EigenDecomposition,
    FrequencyGrid,
    build_grid,
    hermitian_eigen,
    rms_time_width,
    sinc,
)
from .povm import (
    DetectionModeSet,
    DetectorParams,
    detection_modes,
    povm_weights,
)
from .scenarios import (
    ConfigError,
    Scenario,
    StageError,
    SweepSpec,
    evaluate_pipeline,
    load_scenario,
    preset,
    run_scenario,
    run_sweep,
)
from .units import (
    PhysicalSource,
    fiber_mu_coefficients,
    pump_bandwidth_to_sigma,
    wavelength_band_to_angular_bandwidth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
