"""Antenna directivity, propagation, coverage radius, and beam geometry.

All powers are linear milliwatts internally; dBm only at the interfaces.
Angles are radians; the half-power beamwidth ``theta`` bounds the deviation
angle at which the directional gain reaches zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path


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
            raise ValueError(f"p_tx_dbm, n_thr_dbm must satisfy p_tx_dbm > n_thr_dbm (coverage "
                             f"radius degenerates), got {self.p_tx_dbm} <= {self.n_thr_dbm}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        try:   # link_rate's linear cap
            cap = 10.0 ** (self.snr_max_db / 10.0)
        except OverflowError:
            cap = math.inf
        if not cap < math.inf:
            raise ValueError(f"snr_max_db must be finite with a finite linear cap "
                             f"10^(snr_max_db/10), got {self.snr_max_db}")
        try:   # p_tx_mw, D0 or the root may overflow or divide by zero
            r = coverage_radius(self)
        except (OverflowError, ZeroDivisionError):
            r = math.inf
        if not 0.0 < r < math.inf:
            raise ValueError(f"p_tx_dbm, n_thr_dbm, theta, kappa, c_const give coverage radius {r}")

    @property
    def p_tx_mw(self) -> float:
        return dbm_to_mw(self.p_tx_dbm)

    @property
    def n_thr_mw(self) -> float:
        return dbm_to_mw(self.n_thr_dbm)


@dataclass(frozen=True)
class AntennaModel:
    """Directional gain model: analytic cone or a sampled pattern table.

    With no samples (angles is None), the cone: maximum directivity times the linear roll-off.
    With both sequences, a table: linear in dB between samples, clamped beyond the last angle.
    """

    angles: tuple[float, ...] | None = None      # radians, ascending, starting at 0
    gains_dbi: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.angles is None and self.gains_dbi is None:
            return
        if self.angles is None or self.gains_dbi is None:
            raise ValueError("table antenna requires angle and gain samples")
        ang, g = tuple(map(float, self.angles)), tuple(map(float, self.gains_dbi))
        if len(ang) != len(g) or len(ang) < 2:
            raise ValueError("pattern table needs matching 1-D angle/gain samples")
        if ang[0] != 0.0:
            raise ValueError(f"pattern table must start at angle 0, got {ang[0]}")
        if not all(a < b for a, b in zip(ang, ang[1:])):   # a NaN angle fails here too
            raise ValueError("pattern table angles must be strictly increasing")
        if ang[-1] > math.pi + 1e-12:
            raise ValueError("pattern table angles must not exceed pi")
        if not all(map(math.isfinite, g)):
            raise ValueError("pattern table gains must be finite")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "gains_dbi", g)

    @classmethod
    def from_pattern_file(cls, path) -> "AntennaModel":
        """Read a comma-separated pattern file with header angle_deg,gain_dbi, after any UTF-8 BOM."""
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
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
        return cls(tuple(a for a, _ in samples), tuple(g for _, g in samples))

    def gain_law(self, radio: RadioParams):
        """The composite directional gain, linear, as a scalar function of the deviation angle.

        A table interpolates in dB as np.interp does: slope*(alpha - x_j) + y_j
        between samples, a sample's own gain on it, the last gain past the end.
        """
        if self.angles is None:   # D0 * max(1 - alpha/theta, 0), bit for bit
            d0, theta = max_directivity(radio.theta), radio.theta
            return lambda alpha: d0 * (1.0 - alpha / theta) if alpha < theta else 0.0
        xp, fp = self.angles, self.gains_dbi
        end = len(xp) - 1
        slopes = [(fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) for j in range(end)]

        def table(alpha: float) -> float:
            j = bisect_right(xp, alpha) - 1      # xp[j] <= alpha < xp[j + 1]
            if j < 0 or j == end or alpha == xp[j]:
                g = fp[max(j, 0)]
            else:
                g = slopes[j] * (alpha - xp[j]) + fp[j]
            return 10.0 ** (g / 10.0)

        return table

    def peak_gain_linear(self, radio: RadioParams) -> float:
        """Largest gain at any angle; a table's largest sample may exceed D0."""
        if self.angles is None:
            return max_directivity(radio.theta)
        return 10.0 ** (max(self.gains_dbi) / 10.0)   # OverflowError, not inf

    def reach(self, radio: RadioParams) -> float:
        """(p_tx*G/(N_thr*C))^(1/kappa), the boresight range at the peak gain G: no
        transmitter of this antenna delivers the threshold farther."""
        return (radio.p_tx_mw * self.peak_gain_linear(radio)
                / (radio.n_thr_mw * radio.c_const)) ** (1.0 / radio.kappa)


def max_directivity(theta: float) -> float:
    """Peak directivity of a beam with half-power beamwidth theta."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError(f"theta must be in (0, 2*pi), got {theta}")
    return 2.0 / (1.0 - math.cos(theta / 2.0))


def deviation_angle(dx: float, dy: float, bore: float) -> float:
    """Angle in [0, pi] between the vector (dx, dy) and the boresight bore, wrapped as
    abs((x + pi) % 2pi - pi); the admission scan computes it the same way."""
    return abs((math.atan2(dy, dx) - bore + math.pi) % (2.0 * math.pi) - math.pi)


def power_kernel(radio: RadioParams, antenna: AntennaModel):
    """Received power [mW] as a function of (dx, dy, alpha): the transmitter-to-receiver
    vector and its deviation angle from the transmitter's boresight.

    p_tx * gain / (C * d^kappa) in that order, the directional transmitter
    contributing the composite gain and the omnidirectional receiver unit
    gain.  The edge values are numpy's: inf at d = 0, and where d^kappa (or
    C times it) underflows under a positive gain; NaN there under zero gain;
    0 where d^kappa or C times it overflows.
    """
    p_tx, c, kappa, gain = radio.p_tx_mw, radio.c_const, radio.kappa, antenna.gain_law(radio)
    hypot, inf = math.hypot, math.inf

    def power(dx: float, dy: float, alpha: float) -> float:
        dist = hypot(dx, dy)
        num = p_tx * gain(alpha)
        try:
            den = c * dist ** kappa
        except OverflowError:
            den = inf
        if den == 0.0:
            return inf if num > 0.0 or dist == 0.0 else math.nan
        return num / den

    return power


def received_power_mw(dx: float, dy: float, bore: float, radio: RadioParams,
                      antenna: AntennaModel) -> float:
    """Power [mW] at an omnidirectional receiver (dx, dy) from a transmitter with
    boresight bore: the one definition of received power."""
    return power_kernel(radio, antenna)(dx, dy, deviation_angle(dx, dy, bore))


def coverage_radius(params: RadioParams) -> float:
    """Boresight distance at which the received power equals the sensitivity: the
    analytic cone's reach."""
    return AntennaModel().reach(params)


def beam_area(r: float, theta: float, kappa: float) -> float:
    """Area enclosed by the beam coverage border."""
    return r * r * kappa * theta / (2.0 + kappa)

