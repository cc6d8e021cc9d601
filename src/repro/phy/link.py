"""Link budget: path loss, shadowing, noise, sensitivity, antennas.

Replaces the paper's physical testbed links (2.1 km x 1.6 km urban area,
SNRs spanning roughly -15..+5 dB) with a deterministic, seeded
log-distance model.  The model is the substrate for reach-ability
(``r_ijl`` in the CP problem), ADR decisions, and the Figure 6/7
experiments.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .lora import (
    DataRate,
    DR_TO_SF,
    SNR_THRESHOLD_DB,
    SpreadingFactor,
)

__all__ = [
    "Position",
    "PathLossModel",
    "LogDistancePathLoss",
    "noise_floor_dbm",
    "snr_db",
    "sensitivity_dbm",
    "max_range_m",
    "DistanceTier",
    "DEFAULT_TIERS",
    "tier_for_distance",
    "DirectionalAntenna",
    "THERMAL_NOISE_DBM_HZ",
    "DEFAULT_NOISE_FIGURE_DB",
]

THERMAL_NOISE_DBM_HZ = -174.0
DEFAULT_NOISE_FIGURE_DB = 6.0


class _DrawText:
    """Text derived from a :class:`Position`'s fields.

    Declared on a plain (non-dataclass) base so the attribute is a typed
    instance attribute but not a dataclass field: equality, hashing,
    ``repr`` and :func:`dataclasses.asdict` see only ``x`` and ``y``.
    """

    draw_text: str  #: ``f"{x + 0.0:.3f},{y + 0.0:.3f}"``, what a draw hashes.


@dataclass(frozen=True)
class Position(_DrawText):
    """A 2-D coordinate in meters.

    ``draw_text`` is formatted once, at construction (and again by
    :func:`dataclasses.replace`): every link draw of the position
    hashes it.  Adding ``0.0`` turns ``-0.0`` into ``0.0`` and leaves
    every other coordinate as it is, so equal positions format alike.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "draw_text", f"{self.x + 0.0:.3f},{self.y + 0.0:.3f}"
        )

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Position") -> float:
        """Bearing toward another position in degrees [0, 360)."""
        angle = math.degrees(math.atan2(other.y - self.y, other.x - self.x))
        angle %= 360.0
        # A tiny negative angle can fold to exactly 360.0 in floats.
        return 0.0 if angle >= 360.0 else angle


def noise_floor_dbm(
    bandwidth_hz: float, noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB
) -> float:
    """Receiver noise floor ``-174 + 10 log10(BW) + NF`` in dBm."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def snr_db(
    rssi_dbm: float,
    bandwidth_hz: float = 125_000.0,
    noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB,
) -> float:
    """SNR of a received signal given its RSSI."""
    return rssi_dbm - noise_floor_dbm(bandwidth_hz, noise_figure_db)


def sensitivity_dbm(
    sf: SpreadingFactor,
    bandwidth_hz: float = 125_000.0,
    noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB,
) -> float:
    """Receiver sensitivity: the RSSI at the demodulation SNR threshold.

    LoRa radios decode below the noise floor (the paper cites -148 dBm),
    which is why directional antennas alone cannot suppress contention
    (section 4.2.3 / Figure 7).
    """
    return noise_floor_dbm(bandwidth_hz, noise_figure_db) + SNR_THRESHOLD_DB[sf]


class PathLossModel:
    """Interface: deterministic path loss between two positions."""

    def path_loss_db(self, a: Position, b: Position) -> float:
        raise NotImplementedError

    def rssi_dbm(
        self,
        tx_power_dbm: float,
        a: Position,
        b: Position,
        tx_gain_db: float = 0.0,
        rx_gain_db: float = 0.0,
    ) -> float:
        """Received power over the link ``a -> b``."""
        return (
            tx_power_dbm + tx_gain_db + rx_gain_db - self.path_loss_db(a, b)
        )


def _uniform(text: str) -> float:
    """A stable uniform(0,1) draw: the first 8 bytes of ``text``'s sha256."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss with lognormal shadowing.

    ``PL(d) = PL(d0) + 10 n log10(d / d0) + X_sigma``, where ``X_sigma``
    is a zero-mean Gaussian draw that is deterministic per link (derived
    from the endpoint coordinates and ``seed``), so repeated queries give
    identical links — matching a static urban deployment.

    Defaults are calibrated to the paper's urban testbed: with a 14 dBm
    transmitter, link SNRs land in the measured -15..+5 dB range at
    0.3-1 km, and the DR5 (SF7 / 8 dBm) communication range is ~450 m.
    """

    pl0_db: float = 105.6
    d0_m: float = 40.0
    exponent: float = 2.85
    sigma_db: float = 6.0
    seed: int = 0

    def path_loss_db(self, a: Position, b: Position) -> float:
        """Deterministic path loss for the link ``a <-> b``."""
        d = max(a.distance_to(b), 1.0)
        mean = self.pl0_db + 10.0 * self.exponent * math.log10(d / self.d0_m)
        if self.sigma_db <= 0:
            return mean
        # Shadowing must be symmetric and reproducible without storing
        # state, so both uniforms hash the order-normalized endpoints
        # (the order ``sorted`` gives their coordinate tuples).
        if (b.x, b.y) < (a.x, a.y):
            a, b = b, a
        body = f"{a.draw_text}|{b.draw_text}"
        # Box-Muller using two deterministic uniforms.
        u1 = max(_uniform(f"{self.seed}:{body}"), 1e-12)
        u2 = _uniform(f"{self.seed + 1}:{body}")
        gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + self.sigma_db * gauss


def max_range_m(
    model: LogDistancePathLoss,
    tx_power_dbm: float,
    sf: SpreadingFactor,
    bandwidth_hz: float = 125_000.0,
) -> float:
    """Mean communication range (ignoring shadowing) at a given SF.

    Solves the mean log-distance equation for the distance at which RSSI
    hits the SF's sensitivity.  Higher SFs reach farther — the basis of
    the paper's distance-tier (ADR/TPC) model.
    """
    budget_db = tx_power_dbm - sensitivity_dbm(sf, bandwidth_hz)
    exp = (budget_db - model.pl0_db) / (10.0 * model.exponent)
    return model.d0_m * (10.0 ** exp)


@dataclass(frozen=True)
class DistanceTier:
    """A discrete communication-range level (the CP problem's ``DR`` set).

    The paper simplifies ADR and transmit-power control into discrete
    transmission distances; each tier maps to a (data rate, TX power)
    pair via a mapping table (section 4.3.1).
    """

    index: int
    dr: DataRate
    tx_power_dbm: float
    nominal_range_m: float

    @property
    def sf(self) -> SpreadingFactor:
        """Spreading factor of the tier's data rate."""
        return DR_TO_SF[self.dr]


# Default mapping table: shorter tiers use faster data rates and lower
# power; the longest tier uses SF12 at full power.  Nominal ranges are
# mean ranges under the default LogDistancePathLoss at the tier's power.
DEFAULT_TIERS: Tuple[DistanceTier, ...] = (
    DistanceTier(0, DataRate.DR5, 8.0, 450.0),
    DistanceTier(1, DataRate.DR4, 10.0, 645.0),
    DistanceTier(2, DataRate.DR3, 12.0, 925.0),
    DistanceTier(3, DataRate.DR2, 14.0, 1_330.0),
    DistanceTier(4, DataRate.DR1, 14.0, 1_630.0),
    DistanceTier(5, DataRate.DR0, 14.0, 2_000.0),
)


def tier_for_distance(
    distance_m: float, tiers: Sequence[DistanceTier] = DEFAULT_TIERS
) -> Optional[DistanceTier]:
    """The cheapest tier whose nominal range covers ``distance_m``.

    Returns ``None`` when the distance exceeds every tier (node out of
    reach even at DR0 / full power).
    """
    for tier in sorted(tiers, key=lambda t: t.nominal_range_m):
        if distance_m <= tier.nominal_range_m:
            return tier
    return None


@dataclass(frozen=True)
class DirectionalAntenna:
    """A sectorized antenna pattern (Figure 7 study).

    Models the RAKwireless 12 dBi panel: full gain inside the half-power
    beamwidth, then a attenuation ramp of 14..40 dB off-boresight — large
    in absolute terms, yet not enough to push LoRa packets below the
    sensitivity floor, which is why Strategy 6 fails.
    """

    boresight_deg: float = 0.0
    beamwidth_deg: float = 60.0
    peak_gain_db: float = 12.0
    min_rejection_db: float = 14.0
    max_rejection_db: float = 40.0

    def gain_db(self, bearing_deg: float) -> float:
        """Antenna gain toward ``bearing_deg`` (degrees)."""
        off = abs((bearing_deg - self.boresight_deg + 180.0) % 360.0 - 180.0)
        half = self.beamwidth_deg / 2.0
        if off <= half:
            return self.peak_gain_db
        # Linear rejection ramp from the beam edge to the back lobe.
        frac = min((off - half) / (180.0 - half), 1.0)
        rejection = self.min_rejection_db + frac * (
            self.max_rejection_db - self.min_rejection_db
        )
        return self.peak_gain_db - rejection
