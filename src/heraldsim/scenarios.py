"""Scenario configuration, the end-to-end evaluation pipeline, parameter
sweeps, paper-figure presets, and tabular output."""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .herald import (
    PULSE_LENGTH_FACTOR,
    HeraldedState,
    MetricsReport,
    absolute_rate,
    collapsed_wavefunctions,
    idler_density_matrix,
    practical_rate,
    t_min,
)
from .jsa import JsaField, SourceParams, jsa_norm, pair_probability, sample_jsa
from .numerics import abs_squared, build_grid, legendre_tail, rms_time_width
from .povm import (
    DetectionModeSet,
    DetectorParams,
    detection_modes,
    legendre_terms,
    povm_weights,
)
from .units import (
    PhysicalSource,
    fiber_mu_coefficients,
    pump_bandwidth_to_sigma,
    wavelength_band_to_angular_bandwidth,
)

DEFAULT_N_SIGNAL = 256
DEFAULT_N_IDLER = 384
DEFAULT_M_MODES = 12
# the most times run_scenario doubles both grids
MAX_REFINEMENTS = 3
# A level is resolved when the top n // 8 Legendre degrees of its joint
# amplitude fields hold at most this share tau of their weight
# (legendre_tail); its signal grid already has n_s >= N, the terms of each
# mode's expansion.  The n-node Gauss rule integrates exactly the products of
# the fields' parts of degree < n: |field|^2 (the norm), phi_m times the field
# with phi_m of degree < n_s (the collapse), and the idler products that build
# rho.  The degrees >= n, which the rule aliases onto lower ones, enter only
# in products, so the errors go as tau^2, not tau.  Measured against
# 1024/1536, |dH| and |dD_s| / D_s stayed below tau^2 in all six cases tried
# (fig3 at 32/32 to 64/64, fig5-180ps at 64/96 and 128/192, fig1 at 128/192):
# fig3 at 64/64 has tau = 3.6e-5, and both errors are about 3e-15.  The bound
# thus stands for errors near 1e-12.  It sits 40x above the largest tail of a
# resolved preset field (2.4e-8, the fiber presets' full-support fields) and
# 1e4x below that of an unresolved level (1.9e-2: sigma = 1, mu_s = 200,
# mu_i = 0, B = 4 pi at 360/384, resolved only at 1024/1536).
CHOP_TOL = 1e-6

CSV_COLUMNS = (
    "name", "sigma", "mu_s", "mu_i", "B", "T", "c",
    "P_pair", "P_s", "D_s", "H", "T_min", "R_abs", "practical_rate",
)
SWEEP_COLUMNS = ("T", "c", "H", "D_s", "T_min", "R_abs")
# modes per table written by dump_mode_tables
DUMP_MODES = 6


class ConfigError(ValueError):
    """Invalid scenario configuration (CLI exit code 1)."""


class StageError(RuntimeError):
    """Numerical failure inside the pipeline, tagged with the failing stage
    (CLI exit code 2)."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Tag any exception raised inside the block as a failure of stage ``name``."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - tagged and re-raised
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class SweepSpec:
    """``count`` evenly spaced windows T from ``start`` to ``stop``."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (0 < self.start <= self.stop and math.isfinite(self.stop)):
            raise ConfigError("sweep bounds must be finite, positive and ordered")
        if self.count < 1:
            raise ConfigError("sweep needs at least one point")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = "scenario"
    source: SourceParams
    detector: DetectorParams
    n_signal: int = DEFAULT_N_SIGNAL
    n_idler: int = DEFAULT_N_IDLER
    m_modes: Optional[int] = None  # None: choose from c
    pair_probability: Optional[float] = None  # calibrates kappa when set
    external_efficiency: Optional[float] = None
    sweep: Optional[SweepSpec] = None
    output_format: str = "csv"
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.n_signal < 8 or self.n_idler < 8:
            raise ConfigError("grid sizes must be at least 8")
        if self.m_modes is not None and self.m_modes < 1:
            raise ConfigError("modes must be >= 1")
        if self.pair_probability is not None and not (0.0 < self.pair_probability < 1.0):
            raise ConfigError("pair_probability must be in (0, 1)")
        if self.external_efficiency is not None and not (0.0 < self.external_efficiency <= 1.0):
            raise ConfigError("external_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class PipelineResult:
    """Metrics plus the intermediates needed for dumps and diagnostics."""

    report: MetricsReport
    modes: DetectionModeSet
    state: HeraldedState
    n_signal: int
    n_idler: int


def support_half_widths(source: SourceParams, B: float) -> tuple[float, float]:
    """Half-extents of the full-support signal and idler grids.  Along each
    axis: the Gaussian envelope plus the first several sinc lobes, capped at
    40 sigma, and at least the filter band plus the pump envelope, so the norm
    denominator does not undercount band content."""
    sigma = source.sigma
    eps = 0.01 / sigma
    return tuple(max(min(6.0 * sigma + 2.0 * np.pi / max(abs(mu), eps), 40.0 * sigma),
                     0.5 * B + 2.0 * sigma)
                 for mu in (source.mu_s, source.mu_i))


def auto_mode_count(c: float) -> int:
    """Retain enough detection modes to cover the eigenvalue plunge at ~2c/pi."""
    return max(DEFAULT_M_MODES, math.ceil(2.0 * c / np.pi) + 10)


@dataclass(frozen=True)
class SourceSamples:
    """The part of a pipeline evaluation that does not depend on the window T:
    the joint amplitude on the filter band, its norm over the full support, the
    filtered-signal pulse length tau_sig that T_min reads, and the larger
    Legendre tail of the full-support and band fields.

    tau_sig is PULSE_LENGTH_FACTOR times the RMS time width of the band
    marginal sqrt(integral |jsa_band|^2 dw_i).  ``sample_source`` holds one
    of these per refinement step of the last source, so the windows over one
    source that share a signal grid share them.
    """

    jsa_band: JsaField  # band grid x idler grid
    norm_full: float
    tau_sig: float
    tail: float

    @property
    def resolved(self) -> bool:
        """Whether this grid level certifies itself (``CHOP_TOL``)."""
        return self.tail <= CHOP_TOL


@lru_cache(maxsize=1)
def _source_levels(source: SourceParams, B: float) -> dict[int, SourceSamples]:
    """The grid levels {n_i: SourceSamples} that ``sample_source`` holds for
    the last (source, B) it was called with.  The idler grid n_i fixes the
    refinement step of a run and does not depend on the window, so at most
    MAX_REFINEMENTS + 1 levels are held: one band field of n_s x n_i
    amplitudes per step, with its norm, tail and tau_sig.  A call for another
    pair drops them before ``sample_source`` samples its own, so the fields of
    two sources are never held together."""
    return {}


def sample_source(source: SourceParams, B: float, n_s: int, n_i: int) -> SourceSamples:
    """Sample the joint amplitude for a filter band B on n_s x n_i grids, or
    return the level held for the last (source, B) at this n_i when it has
    this n_s (``_source_levels``).  A held level of another n_s, which a
    window of another N meets, is dropped before the new one is sampled, so
    the new level replaces it instead of adding to the held ones.

    The full-support field is reduced to its norm and its Legendre tail before
    the band is sampled, so only the band field is kept.
    """
    levels = _source_levels(source, B)
    if n_i in levels and levels[n_i].jsa_band.grid_s.n == n_s:
        return levels[n_i]
    levels.pop(n_i, None)
    w_s, w_i = support_half_widths(source, B)
    grid_s_full = build_grid(-w_s, w_s, n_s)
    grid_i = build_grid(-w_i, w_i, n_i)
    full = sample_jsa(source, grid_s_full, grid_i)
    norm_full = jsa_norm(full)
    tail_full = legendre_tail(full.values)
    del full
    jsa_band = sample_jsa(source, build_grid(-0.5 * B, 0.5 * B, n_s), grid_i)
    marginal = np.sqrt(abs_squared(jsa_band.values) @ grid_i.weights)
    tau_sig = PULSE_LENGTH_FACTOR * rms_time_width(jsa_band.grid_s, marginal)
    tail = max(tail_full, legendre_tail(jsa_band.values))
    samples = levels[n_i] = SourceSamples(jsa_band=jsa_band, norm_full=norm_full,
                                          tau_sig=tau_sig, tail=tail)
    return samples


def _sample_level(source: SourceParams, detector: DetectorParams, n_signal: int,
                  n_idler: int, m_modes: Optional[int]) -> tuple[int, SourceSamples]:
    """The mode count M and the source samples of one grid level.  M is
    ``m_modes``, or ``auto_mode_count(c)`` when it is None; the signal grid
    has max(n_signal, N) nodes, N = ``legendre_terms(c, M)`` the terms of each
    detection mode's expansion, so it integrates the modes' products
    exactly."""
    m = m_modes if m_modes is not None else auto_mode_count(detector.c)
    n_s = max(n_signal, legendre_terms(detector.c, m))
    with _stage("jsa"):
        return m, sample_source(source, detector.B, n_s, n_idler)


def evaluate_pipeline(
    source: SourceParams,
    detector: DetectorParams,
    n_signal: int = DEFAULT_N_SIGNAL,
    n_idler: int = DEFAULT_N_IDLER,
    m_modes: Optional[int] = None,
    pair_probability_target: Optional[float] = None,
    external_efficiency: Optional[float] = None,
) -> PipelineResult:
    """Run the full chain grids -> JSA -> modes -> collapse -> rho -> metrics
    on one grid level.

    The source is sampled first (``_sample_level``, which sizes the signal
    grid to the modes' expansion); the detection modes are then evaluated
    on the same band grid, which ``build_grid`` shares.  Only the modes, and
    the stages after them, depend on the window T, and the modes only through
    c and N.
    """
    m, samples = _sample_level(source, detector, n_signal, n_idler, m_modes)
    jsa_band, norm_full = samples.jsa_band, samples.norm_full
    grid_i = jsa_band.grid_i
    n_s = jsa_band.grid_s.n

    with _stage("detection-modes"):
        modes = detection_modes(detector, n_grid=n_s, m_modes=m)

    with _stage("collapse"):
        # a calibrated scenario fixes P_pair itself, whatever kappa gives
        p_pair = (pair_probability_target if pair_probability_target is not None
                  else pair_probability(source.kappa, norm_full))
        collapsed = collapsed_wavefunctions(jsa_band, modes)
        weights = povm_weights(modes, detector.eta)

    with _stage("density-matrix"):
        state = idler_density_matrix(collapsed, weights, grid_i)
        d_s = state.click_weight / (2.0 * np.pi * norm_full)
        p_s = p_pair * d_s
        h = float(state.lam[0])

    with _stage("metrics"):
        tmin = t_min(detector, source, samples.tau_sig, (grid_i, state.leading_mode))
        r_abs = absolute_rate(d_s, tmin)
        practical = None
        if external_efficiency is not None:
            practical = practical_rate(r_abs, p_pair, external_efficiency)

    report = MetricsReport(p_pair=p_pair, p_s=p_s, d_s=d_s, h=h, t_min=tmin, r_abs=r_abs,
                           resolved=samples.resolved, practical_rate=practical)
    return PipelineResult(report=report, modes=modes, state=state, n_signal=n_s,
                          n_idler=n_idler)


def run_scenario(s: Scenario, refine: bool = True) -> PipelineResult:
    """Evaluate a scenario on the first grid level that is resolved.

    The levels double both grids.  Whether a level is resolved depends only
    on its source samples: its joint amplitude fields leave at most CHOP_TOL
    of their weight in their top Legendre degrees (``SourceSamples.resolved``).
    So the levels are sampled, at most MAX_REFINEMENTS doublings, until one
    is resolved, and only that level is evaluated; when none is, the finest
    is evaluated, with ``report.resolved`` False.  With ``refine`` False the
    first level is evaluated, resolved or not."""
    for level in range(MAX_REFINEMENTS + 1 if refine else 1):
        n_s, n_i = s.n_signal * 2**level, s.n_idler * 2**level
        if _sample_level(s.source, s.detector, n_s, n_i, s.m_modes)[1].resolved:
            break
    return evaluate_pipeline(s.source, s.detector, n_signal=n_s, n_idler=n_i,
                             m_modes=s.m_modes, pair_probability_target=s.pair_probability,
                             external_efficiency=s.external_efficiency)


def run_sweep(s: Scenario) -> list[tuple[float, float, MetricsReport]]:
    """Evaluate the scenario at each sweep point; rows ascend in T.

    The source does not depend on T, and ``sample_source`` holds the last
    source's levels, one per refinement step, so the source is sampled, and
    tau_sig read, once per grid level for all the windows that share a signal
    grid.  A window whose N exceeds n_signal has a grid of its own, and its
    level replaces the last window's.  The band's Legendre rows depend on T
    only through N, and ``povm`` caches them per N and grid level.
    """
    if s.sweep is None:
        raise ConfigError("scenario has no sweep definition")
    rows = []
    for t_value in s.sweep.values():
        detector = replace(s.detector, T=float(t_value))
        result = run_scenario(replace(s, detector=detector, sweep=None))
        rows.append((float(t_value), detector.c, result.report))
    return rows


# ---------------------------------------------------------------------------
# configuration files: flat key = value text, or a JSON object with same keys
# ---------------------------------------------------------------------------

_DIRECT_KEYS = {"sigma", "mu_s", "mu_i", "B"}
_PHYSICAL_KEYS = {f.name for f in fields(PhysicalSource)}
_OPTIONAL_KEYS = {
    "name", "T", "eta", "kappa", "phase", "grid_signal", "grid_idler", "modes",
    "pair_probability", "external_efficiency", "sweep", "output_format",
    "output_path",
}


def parse_config_text(text: str) -> dict:
    """Parse a flat ``key = value`` config (or a JSON object) into a dict."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from config keys, whether a preset, a config file or a
    CLI flag gave them: the one place that turns a setting's raw value into a
    typed, checked value.  A key left out is not passed on, so its default is
    the one on the dataclass field that it sets."""
    unknown = set(data) - _DIRECT_KEYS - _PHYSICAL_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def number(value, what):
        try:
            if isinstance(value, bool):  # float(True) would read it as 1.0
                raise TypeError
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what}: expected a number, got {value!r}") from exc

    def integer(value, what):
        value = number(value, what)
        if not value.is_integer():  # also rejects nan and inf
            raise ConfigError(f"{what}: expected an integer, got {value!r}")
        return int(value)

    def switch(value, what):
        word = str(value).strip().lower()
        if word not in ("on", "off", "true", "false"):
            raise ConfigError(f"{what}: expected on or off, got {value!r}")
        return word in ("on", "true")

    def text(value, what):
        if not isinstance(value, str):
            raise ConfigError(f"{what}: expected a string, got {value!r}")
        return value

    def label(value, what):
        if any(ch in text(value, what) for ch in ",\r\n"):
            raise ConfigError(f"{what}: a comma or line break would split the "
                              f"CSV report row, got {value!r}")
        return value

    def sweep_spec(value, what):
        parts = value.split() if isinstance(value, str) else value
        if not isinstance(parts, list) or len(parts) != 4:
            raise ConfigError(f"{what}: expected '<param> <start> <stop> "
                              f"<count>', got {value!r}")
        if parts[0] != "T":
            raise ConfigError(f"only sweeps over T are supported, got {parts[0]!r}")
        start, stop, count = parts[1:]
        return SweepSpec(number(start, f"sweep start in {what}"),
                         number(stop, f"sweep stop in {what}"),
                         integer(count, f"sweep count in {what}"))

    def read(reader, *keys, **renamed):
        """{field: the value of its key, read} for each key the config holds;
        a key in ``keys`` sets the field of its own name, and ``renamed``
        maps a field to the key that sets it."""
        renamed.update(zip(keys, keys))
        return {f: reader(data[k], f"key {k!r}") for f, k in renamed.items() if k in data}

    has_direct = bool(_DIRECT_KEYS & set(data))
    if has_direct == bool(_PHYSICAL_KEYS & set(data)):
        raise ConfigError("exactly one of the direct (sigma/mu_s/mu_i/B) or "
                          "physical (pump/fiber) source descriptions must be given")
    missing = (_DIRECT_KEYS if has_direct else _PHYSICAL_KEYS) - set(data)
    if missing:
        raise ConfigError(f"missing {'direct' if has_direct else 'physical'}-source "
                          f"keys: {sorted(missing)}")
    if "T" not in data:
        raise ConfigError("missing measurement window key 'T'")

    try:
        if has_direct:
            shape = read(number, "sigma", "mu_s", "mu_i", "B")
            band = shape.pop("B")
        else:
            # laboratory units to model parameters in SI units
            ps = PhysicalSource(**read(number, *sorted(_PHYSICAL_KEYS)))
            band = wavelength_band_to_angular_bandwidth(ps.signal_center_wavelength_nm,
                                                        ps.filter_bandwidth_nm)
            mu_s, mu_i = fiber_mu_coefficients(ps)
            shape = {"sigma": pump_bandwidth_to_sigma(ps.pump_bandwidth_fwhm_nm,
                                                      ps.pump_wavelength_nm),
                     "mu_s": mu_s, "mu_i": mu_i}
        source = SourceParams(**shape, **read(number, "kappa"),
                              **read(switch, include_group_delay_phase="phase"))
        detector = DetectorParams(B=band, **read(number, "T", "eta"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return Scenario(
        source=source, detector=detector, **read(label, "name"),
        **read(integer, n_signal="grid_signal", n_idler="grid_idler", m_modes="modes"),
        **read(number, "pair_probability", "external_efficiency"),
        **read(sweep_spec, "sweep"), **read(text, "output_format", "output_path"))


def read_config(path: str | Path) -> dict:
    """The keys of a config file, for ``scenario_from_dict``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# presets for the worked examples
# ---------------------------------------------------------------------------

# Assumed dispersion of the 500-m cooled standard single-mode fiber pumped at
# 1305.0 nm.  The experiment publishes no beta2/beta3.  Pumping sits near the
# (cooled) zero-dispersion wavelength, so beta2 is the small residual balancing
# the nonlinear phase at the +-1.5 nm phase-matching detunings, and beta3 comes
# from the standard SMF dispersion slope ~0.087 ps^3/km.  Both leave the
# group-delay coefficients |mu| << 1/sigma; the published heralding
# efficiencies (0.434 at T = 180 ps, 0.990 at T = 9 ps) follow from the
# resulting anti-correlated joint spectrum.  The time-bandwidth parameters
# c = 7.0 / 0.35 do not depend on these assumptions at all.
_FIBER = {
    "pump_wavelength_nm": 1305.0,
    "pump_bandwidth_fwhm_nm": 0.03,
    "signal_center_wavelength_nm": 1306.5,
    "filter_bandwidth_nm": 0.14,
    "fiber_length_m": 500.0,
    "beta2": 5.7e-28,  # s^2/m
    "beta3": 8.7e-41,  # s^3/m
    "pair_probability": 0.14,
    "external_efficiency": 0.05,
}
_FIG3 = {"sigma": 1.0, "mu_s": 2.0, "mu_i": -1.0, "B": 2.0 * np.pi, "T": 0.5}

# the config keys of each worked example (natural units sigma = 1 for
# fig1/fig3/fig4; SI units for the fiber presets)
PRESETS = {
    "fig1": {"sigma": 1.0, "mu_s": 20.0, "mu_i": 0.0, "B": 4.0 * np.pi, "T": 40.0},
    "fig3": _FIG3,
    "fig4": {**_FIG3, "sweep": "T 0.1 4.0 17"},
    "fig5-180ps": {**_FIBER, "T": 180e-12},
    "fig5-9ps": {**_FIBER, "T": 9e-12},
    # wide-pump, weak-pulse variant; the quoted near-unity heralding
    # efficiency requires the single-mode (short) window
    "fig5-wideband": {**_FIBER, "pump_bandwidth_fwhm_nm": 0.12,
                      "pair_probability": 0.015, "T": 9e-12},
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> Scenario:
    """The named worked example, built from its config keys in ``PRESETS``."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return scenario_from_dict({"name": name, **PRESETS[name]})


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(x: Optional[float | str]) -> str:
    """A CSV cell: a number to 9 significant digits, a name as it is, None empty."""
    return "" if x is None else x if isinstance(x, str) else f"{x:.9g}"


def _json_value(x: Optional[float | str]):
    """A value as the JSON writer gives it: the number its CSV cell prints."""
    return x if x is None or isinstance(x, str) else float(_fmt(x))


def _report_values(s: Scenario, report: MetricsReport) -> tuple:
    """The report row, in CSV_COLUMNS order."""
    return (s.name, s.source.sigma, s.source.mu_s, s.source.mu_i,
            s.detector.B, s.detector.T, s.detector.c,
            report.p_pair, report.p_s, report.d_s, report.h, report.t_min,
            report.r_abs, report.practical_rate)


def _sweep_values(row: tuple[float, float, MetricsReport]) -> tuple:
    """A sweep row, in SWEEP_COLUMNS order."""
    t_value, c, report = row
    return (t_value, c, report.h, report.d_s, report.t_min, report.r_abs)


def format_report_csv(s: Scenario, report: MetricsReport) -> str:
    values = _report_values(s, report)
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(map(_fmt, values)) + "\n"


def format_report_json(s: Scenario, report: MetricsReport) -> str:
    payload = dict(zip(CSV_COLUMNS, map(_json_value, _report_values(s, report))))
    return json.dumps(payload, indent=2) + "\n"


def format_sweep_csv(rows: list[tuple[float, float, MetricsReport]]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(map(_fmt, _sweep_values(row))) for row in rows]
    return "\n".join(lines) + "\n"


def format_sweep_json(rows: list[tuple[float, float, MetricsReport]]) -> str:
    payload = [dict(zip(SWEEP_COLUMNS, map(_json_value, _sweep_values(row))))
               for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _write_table(path: Path, header: str, columns: list[np.ndarray]) -> None:
    """A CSV file of equal-length columns, each value written as by ``_fmt``:
    one ``%`` operation formats the whole table, "%.9g" giving the text of
    f"{v:.9g}" for every float."""
    table = np.column_stack(columns)
    n_rows, n_cols = table.shape
    row = ",".join(["%.9g"] * n_cols)
    template = "\n".join([header.replace("%", "%%")] + [row] * n_rows) + "\n"
    path.write_text(template % tuple(table.ravel().tolist()))


def dump_mode_tables(result: PipelineResult, directory: str | Path) -> None:
    """Write (omega, phi_m) and (omega_i, eigenmode_n) sample tables of the
    first DUMP_MODES modes for external plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    phi = result.modes.modes[:DUMP_MODES]
    header = "omega," + ",".join(f"phi_{m}" for m in range(len(phi)))
    _write_table(directory / "detection_modes.csv", header,
                 [result.modes.grid_s.nodes, *phi])

    e = result.state.eigenmodes[:, :DUMP_MODES]
    header = "omega_i," + ",".join(
        f"mode_{n}_re,mode_{n}_im" for n in range(e.shape[1]))
    _write_table(directory / "idler_modes.csv", header,
                 [result.state.grid_i.nodes, *(p for col in e.T for p in (col.real, col.imag))])
