"""Scenario configuration, the end-to-end evaluation pipeline, parameter
sweeps, paper-figure presets, and tabular output."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .herald import (
    MetricsReport,
    absolute_rate,
    collapsed_wavefunctions,
    heralding_efficiency,
    idler_density_matrix,
    practical_rate,
    t_min,
)
from .jsa import SourceParams, jsa_norm, pair_probability, sample_jsa
from .numerics import build_grid
from .povm import DetectorParams, detection_modes, povm_weights
from .units import (
    PhysicalSource,
    fiber_mu_coefficients,
    pump_bandwidth_to_sigma,
    wavelength_band_to_angular_bandwidth,
)

DEFAULT_N_SIGNAL = 256
DEFAULT_N_IDLER = 384
DEFAULT_M_MODES = 12
MAX_REFINEMENTS = 2
# refinement thresholds: half the tightest regression tolerances on H and D_s
H_STABILITY = 0.0025
DS_STABILITY = 0.005

CSV_COLUMNS = (
    "name", "sigma", "mu_s", "mu_i", "B", "T", "c",
    "P_pair", "P_s", "D_s", "H", "T_min", "R_abs", "practical_rate",
)
SWEEP_COLUMNS = ("T", "c", "H", "D_s", "T_min", "R_abs")


class ConfigError(ValueError):
    """Invalid scenario configuration (CLI exit code 1)."""


class StageError(RuntimeError):
    """Numerical failure inside the pipeline, tagged with the failing stage
    (CLI exit code 2)."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.param != "T":
            raise ConfigError(f"only sweeps over T are supported, got {self.param!r}")
        if not (0 < self.start <= self.stop):
            raise ConfigError("sweep bounds must be positive and ordered")
        if self.count < 1:
            raise ConfigError("sweep needs at least one point")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class Scenario:
    name: str
    source: SourceParams
    detector: DetectorParams
    physical: Optional[PhysicalSource] = None
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
    modes: "object"
    state: "object"
    norm_full: float
    kappa_eff: float
    n_signal: int
    n_idler: int


def support_half_width(sigma: float, mu: float) -> float:
    """Half-extent of an integration grid along one frequency axis: Gaussian
    envelope plus the first several sinc lobes, capped at 40 sigma."""
    eps = 0.01 / sigma
    return min(6.0 * sigma + 2.0 * np.pi / max(abs(mu), eps), 40.0 * sigma)


def auto_mode_count(c: float) -> int:
    """Retain enough detection modes to cover the eigenvalue plunge at ~2c/pi."""
    return max(DEFAULT_M_MODES, math.ceil(2.0 * c / np.pi) + 10)


def evaluate_pipeline(
    source: SourceParams,
    detector: DetectorParams,
    n_signal: int = DEFAULT_N_SIGNAL,
    n_idler: int = DEFAULT_N_IDLER,
    m_modes: Optional[int] = None,
    pair_probability_target: Optional[float] = None,
    external_efficiency: Optional[float] = None,
) -> PipelineResult:
    """Run the full chain grids -> JSA -> modes -> collapse -> rho -> metrics."""
    m = m_modes if m_modes is not None else auto_mode_count(detector.c)
    n_s = max(n_signal, 4 * m)

    try:
        modes = detection_modes(detector, n_grid=n_s, m_modes=m)
    except Exception as exc:  # noqa: BLE001 - tagged and re-raised
        raise StageError("detection-modes", exc) from exc

    try:
        # the full-support grids must cover at least the filter band plus the
        # pump envelope, or the norm denominator can undercount band content
        band_floor = 0.5 * detector.B + 2.0 * source.sigma
        w_s = max(support_half_width(source.sigma, source.mu_s), band_floor)
        w_i = max(support_half_width(source.sigma, source.mu_i), band_floor)
        grid_s_full = build_grid(-w_s, w_s, n_s)
        grid_i = build_grid(-w_i, w_i, n_idler)
        jsa_full = sample_jsa(source, grid_s_full, grid_i)
        jsa_band = sample_jsa(source, modes.grid_s, grid_i)
        norm_full = jsa_norm(jsa_full)
    except StageError:
        raise
    except Exception as exc:
        raise StageError("jsa", exc) from exc

    try:
        if pair_probability_target is not None:
            p = pair_probability_target
            kappa_eff = math.sqrt(p / ((1.0 - p) * 4.0 * np.pi**2 * norm_full))
        else:
            kappa_eff = source.kappa
        p_pair = pair_probability(kappa_eff, norm_full)

        collapsed = collapsed_wavefunctions(jsa_band, modes)
        weights = povm_weights(modes, detector.eta)
        mode_norms = np.abs(collapsed) ** 2 @ grid_i.weights
        d_s = float(weights @ mode_norms) / (2.0 * np.pi * norm_full)
        p_s = p_pair * d_s
    except Exception as exc:
        raise StageError("collapse", exc) from exc

    try:
        state = idler_density_matrix(collapsed, weights, grid_i)
        h = heralding_efficiency(state)
    except Exception as exc:
        raise StageError("density-matrix", exc) from exc

    try:
        marginal = np.sqrt(np.abs(jsa_band.values) ** 2 @ grid_i.weights)
        tmin = t_min(detector, source, (modes.grid_s, marginal),
                     (grid_i, state.eigenmodes[:, 0]))
        r_abs = absolute_rate(d_s, tmin)
        practical = None
        if external_efficiency is not None:
            practical = practical_rate(r_abs, p_pair, external_efficiency)
    except Exception as exc:
        raise StageError("metrics", exc) from exc

    report = MetricsReport(p_pair=p_pair, p_s=p_s, d_s=d_s, h=h,
                           t_min=tmin, r_abs=r_abs, practical_rate=practical)
    return PipelineResult(report=report, modes=modes, state=state,
                          norm_full=norm_full, kappa_eff=kappa_eff,
                          n_signal=n_s, n_idler=n_idler)


def run_scenario(s: Scenario, refine: bool = True) -> PipelineResult:
    """Evaluate a scenario; grid sizes are doubled automatically until the key
    metrics (H, D_s) are stable under a further doubling."""
    n_s, n_i = s.n_signal, s.n_idler

    def run(ns, ni):
        return evaluate_pipeline(
            s.source, s.detector, n_signal=ns, n_idler=ni, m_modes=s.m_modes,
            pair_probability_target=s.pair_probability,
            external_efficiency=s.external_efficiency)

    result = run(n_s, n_i)
    if not refine:
        return result
    for _ in range(MAX_REFINEMENTS + 1):
        finer = run(2 * n_s, 2 * n_i)
        if (abs(finer.report.h - result.report.h) <= H_STABILITY
                and abs(finer.report.d_s - result.report.d_s) <= DS_STABILITY):
            return result
        result = finer
        n_s, n_i = 2 * n_s, 2 * n_i
    return result


def run_sweep(s: Scenario, refine: bool = True) -> list[tuple[float, float, MetricsReport]]:
    """Evaluate the scenario at each sweep point; rows ascend in T."""
    if s.sweep is None:
        raise ConfigError("scenario has no sweep definition")
    rows = []
    for t_value in s.sweep.values():
        detector = replace(s.detector, T=float(t_value))
        point = replace(s, detector=detector, sweep=None)
        result = run_scenario(point, refine=refine)
        rows.append((float(t_value), detector.c, result.report))
    return rows


# ---------------------------------------------------------------------------
# configuration files: flat key = value text, or a JSON object with same keys
# ---------------------------------------------------------------------------

_DIRECT_KEYS = {"sigma", "mu_s", "mu_i", "B"}
_PHYSICAL_KEYS = {
    "pump_wavelength_nm", "pump_bandwidth_fwhm_nm", "signal_center_wavelength_nm",
    "filter_bandwidth_nm", "fiber_length_m", "beta2", "beta3",
}
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
    """Build a Scenario from parsed config keys, validating exclusivity of the
    direct and physical source descriptions."""
    data = dict(data)
    unknown = set(data) - _DIRECT_KEYS - _PHYSICAL_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def fget(key, default=None):
        if key not in data:
            return default
        try:
            return float(data[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key!r}: expected a number, got {data[key]!r}") from exc

    def iget(key, default=None):
        value = fget(key, default)
        return value if value is None else int(value)

    has_direct = bool(_DIRECT_KEYS & set(data))
    has_physical = bool(_PHYSICAL_KEYS & set(data))
    if has_direct == has_physical:
        raise ConfigError("exactly one of the direct (sigma/mu_s/mu_i/B) or "
                          "physical (pump/fiber) source descriptions must be given")

    phase_raw = str(data.get("phase", "off")).strip().lower()
    if phase_raw not in ("on", "off", "true", "false"):
        raise ConfigError(f"phase must be on/off, got {data['phase']!r}")
    phase = phase_raw in ("on", "true")

    if "T" not in data:
        raise ConfigError("missing measurement window key 'T'")
    eta = fget("eta", 1.0)
    kappa = fget("kappa", 0.1)

    physical = None
    try:
        if has_direct:
            missing = _DIRECT_KEYS - set(data)
            if missing:
                raise ConfigError(f"missing direct-source keys: {sorted(missing)}")
            source = SourceParams(sigma=fget("sigma"), mu_s=fget("mu_s"),
                                  mu_i=fget("mu_i"), kappa=kappa,
                                  include_group_delay_phase=phase)
            detector = DetectorParams(B=fget("B"), T=fget("T"), eta=eta)
        else:
            missing = _PHYSICAL_KEYS - set(data)
            if missing:
                raise ConfigError(f"missing physical-source keys: {sorted(missing)}")
            physical = PhysicalSource(
                pump_wavelength_nm=fget("pump_wavelength_nm"),
                pump_bandwidth_fwhm_nm=fget("pump_bandwidth_fwhm_nm"),
                signal_center_wavelength_nm=fget("signal_center_wavelength_nm"),
                filter_bandwidth_nm=fget("filter_bandwidth_nm"),
                fiber_length_m=fget("fiber_length_m"),
                beta2=fget("beta2"), beta3=fget("beta3"), kappa=kappa)
            source, detector = resolve_physical(physical, T=fget("T"), eta=eta,
                                                phase=phase)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = None
    if "sweep" in data:
        raw = data["sweep"]
        parts = raw.split() if isinstance(raw, str) else list(raw)
        if len(parts) != 4:
            raise ConfigError("sweep must be '<param> <start> <stop> <count>'")
        try:
            sweep = SweepSpec(param=str(parts[0]), start=float(parts[1]),
                              stop=float(parts[2]), count=int(float(parts[3])))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sweep spec {raw!r}") from exc

    return Scenario(
        name=str(data.get("name", "scenario")),
        source=source,
        detector=detector,
        physical=physical,
        n_signal=iget("grid_signal", DEFAULT_N_SIGNAL),
        n_idler=iget("grid_idler", DEFAULT_N_IDLER),
        m_modes=iget("modes"),
        pair_probability=fget("pair_probability"),
        external_efficiency=fget("external_efficiency"),
        sweep=sweep,
        output_format=str(data.get("output_format", "csv")),
        output_path=data.get("output_path"),
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_dict(parse_config_text(text))


def scenario_to_config(s: Scenario) -> str:
    """Serialize a scenario back to the flat key = value format."""
    lines = [f"name = {s.name}"]
    if s.physical is not None:
        ps = s.physical
        lines += [
            f"pump_wavelength_nm = {float(ps.pump_wavelength_nm)!r}",
            f"pump_bandwidth_fwhm_nm = {float(ps.pump_bandwidth_fwhm_nm)!r}",
            f"signal_center_wavelength_nm = {float(ps.signal_center_wavelength_nm)!r}",
            f"filter_bandwidth_nm = {float(ps.filter_bandwidth_nm)!r}",
            f"fiber_length_m = {float(ps.fiber_length_m)!r}",
            f"beta2 = {float(ps.beta2)!r}",
            f"beta3 = {float(ps.beta3)!r}",
        ]
    else:
        lines += [
            f"sigma = {float(s.source.sigma)!r}",
            f"mu_s = {float(s.source.mu_s)!r}",
            f"mu_i = {float(s.source.mu_i)!r}",
            f"B = {float(s.detector.B)!r}",
        ]
    lines += [
        f"T = {float(s.detector.T)!r}",
        f"eta = {float(s.detector.eta)!r}",
        f"kappa = {float(s.source.kappa)!r}",
        f"phase = {'on' if s.source.include_group_delay_phase else 'off'}",
        f"grid_signal = {s.n_signal}",
        f"grid_idler = {s.n_idler}",
    ]
    if s.m_modes is not None:
        lines.append(f"modes = {s.m_modes}")
    if s.pair_probability is not None:
        lines.append(f"pair_probability = {float(s.pair_probability)!r}")
    if s.external_efficiency is not None:
        lines.append(f"external_efficiency = {float(s.external_efficiency)!r}")
    if s.sweep is not None:
        sw = s.sweep
        lines.append(f"sweep = {sw.param} {float(sw.start)!r} {float(sw.stop)!r} {sw.count}")
    lines.append(f"output_format = {s.output_format}")
    if s.output_path is not None:
        lines.append(f"output_path = {s.output_path}")
    return "\n".join(lines) + "\n"


def resolve_physical(ps: PhysicalSource, T: float, eta: float = 1.0,
                     phase: bool = False) -> tuple[SourceParams, DetectorParams]:
    """Convert a laboratory description to model parameters in SI units."""
    sigma = pump_bandwidth_to_sigma(ps.pump_bandwidth_fwhm_nm, ps.pump_wavelength_nm)
    band = wavelength_band_to_angular_bandwidth(ps.signal_center_wavelength_nm,
                                                ps.filter_bandwidth_nm)
    mu_s, mu_i = fiber_mu_coefficients(ps)
    source = SourceParams(sigma=sigma, mu_s=mu_s, mu_i=mu_i, kappa=ps.kappa,
                          include_group_delay_phase=phase)
    detector = DetectorParams(B=band, T=T, eta=eta)
    return source, detector


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
FIBER_BETA2 = 5.7e-28  # s^2/m
FIBER_BETA3 = 8.7e-41  # s^3/m

_FIBER_COMMON = dict(
    pump_wavelength_nm=1305.0,
    pump_bandwidth_fwhm_nm=0.03,
    signal_center_wavelength_nm=1306.5,
    filter_bandwidth_nm=0.14,
    fiber_length_m=500.0,
    beta2=FIBER_BETA2,
    beta3=FIBER_BETA3,
)

PRESET_NAMES = ("fig1", "fig3", "fig4", "fig5-180ps", "fig5-9ps", "fig5-wideband")


def preset(name: str) -> Scenario:
    """Named scenarios matching the worked examples (natural units sigma = 1
    for fig1/fig3/fig4; SI units for the fiber presets)."""
    if name == "fig1":
        return Scenario(
            name=name,
            source=SourceParams(sigma=1.0, mu_s=20.0, mu_i=0.0, kappa=0.1),
            detector=DetectorParams(B=4.0 * np.pi, T=40.0),
        )
    if name == "fig3":
        return Scenario(
            name=name,
            source=SourceParams(sigma=1.0, mu_s=2.0, mu_i=-1.0, kappa=0.1),
            detector=DetectorParams(B=2.0 * np.pi, T=0.5),
        )
    if name == "fig4":
        base = preset("fig3")
        return replace(base, name=name, sweep=SweepSpec("T", 0.1, 4.0, 17))
    if name in ("fig5-180ps", "fig5-9ps", "fig5-wideband"):
        common = dict(_FIBER_COMMON)
        t_window = 180e-12
        p_pair = 0.14
        if name == "fig5-9ps":
            t_window = 9e-12
        if name == "fig5-wideband":
            # wide-pump, weak-pulse variant; the quoted near-unity heralding
            # efficiency requires the single-mode (short) window
            common["pump_bandwidth_fwhm_nm"] = 0.12
            p_pair = 0.015
            t_window = 9e-12
        physical = PhysicalSource(**common)
        source, detector = resolve_physical(physical, T=t_window)
        return Scenario(
            name=name, source=source, detector=detector, physical=physical,
            pair_probability=p_pair, external_efficiency=0.05,
        )
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.9g}"


def report_row(s: Scenario, report: MetricsReport) -> list[str]:
    return [
        s.name,
        _fmt(s.source.sigma), _fmt(s.source.mu_s), _fmt(s.source.mu_i),
        _fmt(s.detector.B), _fmt(s.detector.T), _fmt(s.detector.c),
        _fmt(report.p_pair), _fmt(report.p_s), _fmt(report.d_s),
        _fmt(report.h), _fmt(report.t_min), _fmt(report.r_abs),
        _fmt(report.practical_rate),
    ]


def format_report_csv(s: Scenario, report: MetricsReport) -> str:
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(report_row(s, report)) + "\n"


def format_report_json(s: Scenario, report: MetricsReport) -> str:
    payload = dict(zip(CSV_COLUMNS, report_row(s, report)))
    payload = {k: (v if k == "name" else (None if v == "" else float(v)))
               for k, v in payload.items()}
    return json.dumps(payload, indent=2) + "\n"


def format_sweep_csv(rows: list[tuple[float, float, MetricsReport]]) -> str:
    out = [",".join(SWEEP_COLUMNS)]
    for t_value, c, report in rows:
        out.append(",".join(_fmt(v) for v in
                            (t_value, c, report.h, report.d_s, report.t_min,
                             report.r_abs)))
    return "\n".join(out) + "\n"


def format_sweep_json(rows: list[tuple[float, float, MetricsReport]]) -> str:
    payload = [
        {k: float(_fmt(v)) for k, v in
         zip(SWEEP_COLUMNS, (t_value, c, report.h, report.d_s, report.t_min,
                             report.r_abs))}
        for t_value, c, report in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def dump_mode_tables(result: PipelineResult, directory: str | Path,
                     max_modes: int = 6) -> None:
    """Write (omega, phi_m) and (omega_i, eigenmode_n) sample tables for
    external plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    modes = result.modes
    k = min(max_modes, modes.modes.shape[0])
    header = "omega," + ",".join(f"phi_{m}" for m in range(k))
    lines = [header]
    for j, w in enumerate(modes.grid_s.nodes):
        lines.append(",".join([_fmt(w)] + [_fmt(modes.modes[m, j]) for m in range(k)]))
    (directory / "detection_modes.csv").write_text("\n".join(lines) + "\n")

    state = result.state
    k = min(max_modes, state.eigenmodes.shape[1])
    header = "omega_i," + ",".join(
        f"mode_{n}_re,mode_{n}_im" for n in range(k))
    lines = [header]
    for j, w in enumerate(state.grid_i.nodes):
        cells = [_fmt(w)]
        for n in range(k):
            cells += [_fmt(state.eigenmodes[j, n].real),
                      _fmt(state.eigenmodes[j, n].imag)]
        lines.append(",".join(cells))
    (directory / "idler_modes.csv").write_text("\n".join(lines) + "\n")
