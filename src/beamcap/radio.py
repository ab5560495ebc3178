"""Antenna directivity, propagation, coverage radius, and beam geometry.

All powers are linear milliwatts internally; dBm only at the interfaces.
Angles are radians; the half-power beamwidth ``theta`` bounds the deviation
angle at which the directional gain reaches zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


def dbm_to_mw(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """Link-budget parameters shared by every device.

    p_tx_dbm:     transmit power [dBm]
    n_thr_dbm:    receiver sensitivity, doubling as the admission threshold [dBm]
    theta:        half-power beamwidth [rad]; gain rolls off linearly to zero at theta
    kappa:        path-loss exponent
    c_const:      propagation constant of the path-loss law C * d^kappa
    bandwidth_hz: channel bandwidth for rate estimates
    snr_max_db:   SNR cap imposed by the highest modulation and coding scheme
    """

    p_tx_dbm: float
    n_thr_dbm: float
    theta: float
    kappa: float
    c_const: float
    bandwidth_hz: float = 2.16e9
    snr_max_db: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= math.pi:
            raise ValueError(f"theta must be in (0, pi], got {self.theta}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.c_const <= 0:
            raise ValueError(f"c_const must be positive, got {self.c_const}")
        if self.p_tx_dbm <= self.n_thr_dbm:
            raise ValueError(
                "p_tx_dbm must exceed n_thr_dbm (coverage radius degenerates): "
                f"{self.p_tx_dbm} <= {self.n_thr_dbm}"
            )
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if not math.isfinite(self.snr_max_db):
            raise ValueError(f"snr_max_db must be finite, got {self.snr_max_db}")

    @property
    def p_tx_mw(self) -> float:
        return dbm_to_mw(self.p_tx_dbm)

    @property
    def n_thr_mw(self) -> float:
        return dbm_to_mw(self.n_thr_dbm)


class AntennaVariant(Enum):
    ANALYTIC = "analytic"
    TABLE = "table"


@dataclass(frozen=True, eq=False)
class AntennaModel:
    """Directional gain model: analytic cone or a sampled pattern table.

    The analytic variant composes the maximum directivity with the linear
    roll-off factor.  The table variant interpolates measured (angle, gain)
    samples linearly in dB and clamps beyond the last sampled angle.
    """

    variant: AntennaVariant = AntennaVariant.ANALYTIC
    angles: np.ndarray | None = None      # radians, ascending, starting at 0
    gains_dbi: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant is AntennaVariant.ANALYTIC:
            if self.angles is not None or self.gains_dbi is not None:
                raise ValueError("analytic antenna takes no pattern table")
            return
        if self.angles is None or self.gains_dbi is None:
            raise ValueError("table antenna requires angle and gain samples")
        ang = np.asarray(self.angles, dtype=float)
        g = np.asarray(self.gains_dbi, dtype=float)
        if ang.ndim != 1 or ang.shape != g.shape or ang.size < 2:
            raise ValueError("pattern table needs matching 1-D angle/gain samples")
        if ang[0] != 0.0:
            raise ValueError(f"pattern table must start at angle 0, got {ang[0]}")
        if np.any(np.diff(ang) <= 0):
            raise ValueError("pattern table angles must be strictly increasing")
        if ang[-1] > math.pi + 1e-12:
            raise ValueError("pattern table angles must not exceed pi")
        if not np.all(np.isfinite(g)):
            raise ValueError("pattern table gains must be finite")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "gains_dbi", g)

    @classmethod
    def analytic(cls) -> "AntennaModel":
        return cls(AntennaVariant.ANALYTIC)

    @classmethod
    def from_table(cls, samples) -> "AntennaModel":
        """Build from an iterable of (angle_rad, gain_dbi) pairs."""
        arr = np.asarray(list(samples), dtype=float)
        return cls(AntennaVariant.TABLE, arr[:, 0].copy(), arr[:, 1].copy())

    @classmethod
    def from_pattern_file(cls, path) -> "AntennaModel":
        """Read a comma-separated pattern file with header angle_deg,gain_dbi."""
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != "angle_deg,gain_dbi":
            raise ValueError(f"{path}: expected header 'angle_deg,gain_dbi'")
        samples = []
        for i, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{i}: expected 'angle_deg,gain_dbi' row")
            try:
                samples.append((math.radians(float(parts[0])), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{i}: {exc}") from None
        return cls.from_table(samples)

    def gain_linear(self, alpha, radio: RadioParams):
        """Composite directional gain at deviation angle(s) alpha, linear scale."""
        if self.variant is AntennaVariant.ANALYTIC:
            d0 = max_directivity(radio.theta)
            return d0 * np.maximum(1.0 - np.asarray(alpha) / radio.theta, 0.0)
        g_db = np.interp(np.asarray(alpha), self.angles, self.gains_dbi)
        return 10.0 ** (g_db / 10.0)

    def peak_gain_linear(self, radio: RadioParams) -> float:
        """Largest gain at any angle; a table's largest sample may exceed D0."""
        if self.variant is AntennaVariant.ANALYTIC:
            return max_directivity(radio.theta)
        return float(10.0 ** (self.gains_dbi.max() / 10.0))


def max_directivity(theta: float) -> float:
    """Peak directivity of a beam with half-power beamwidth theta."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError(f"theta must be in (0, 2*pi), got {theta}")
    return 2.0 / (1.0 - math.cos(theta / 2.0))


def _wrap_angle(x):
    """Fold angles into [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def received_power_mw(dx, dy, bore, radio: RadioParams, antenna: AntennaModel):
    """Power [mW] at omnidirectional receivers over transmitter-to-receiver
    vectors (dx, dy) from transmitters with boresight bore; inf where d == 0.

    The directional transmitter contributes the composite gain; the
    receiving end has unit gain.
    """
    dist = np.hypot(dx, dy)
    alpha = np.abs(_wrap_angle(np.arctan2(dy, dx) - bore))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(dist > 0.0, radio.p_tx_mw * gain / (radio.c_const * dist ** radio.kappa), np.inf)


def coverage_radius(params: RadioParams) -> float:
    """Boresight distance at which the received power equals the sensitivity."""
    d0 = max_directivity(params.theta)
    return (params.p_tx_mw * d0 / (params.n_thr_mw * params.c_const)) ** (1.0 / params.kappa)


def beam_area(r: float, theta: float, kappa: float) -> float:
    """Area enclosed by the beam coverage border."""
    return r * r * kappa * theta / (2.0 + kappa)


def pair_coverage_area(r: float, theta: float, kappa: float) -> float:
    """Footprint of one pair: two beams, overlap disregarded."""
    return 2.0 * beam_area(r, theta, kappa)
