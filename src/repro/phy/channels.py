"""Frequency channels, channel grids, and LoRaWAN channel plans.

A *channel* is a (center frequency, bandwidth) pair.  A *grid* is the set
of standard channel positions inside a spectrum block (200 kHz raster for
125 kHz uplink channels, as in US915/AS923).  A *channel plan* is the
subset of (usually eight) channels a gateway or a network operates on —
the object that AlphaWAN's planners optimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "Channel",
    "ChannelGrid",
    "ChannelPlan",
    "overlap_ratio",
    "overlap_hz",
    "spectrum_span_hz",
    "bucket_reach",
    "standard_plans",
    "INDEX_BUCKET_HZ",
    "GRID_SPACING_HZ",
    "CHANNEL_BANDWIDTH_HZ",
    "PLAN_SIZE",
]

GRID_SPACING_HZ = 200_000
CHANNEL_BANDWIDTH_HZ = 125_000
PLAN_SIZE = 8  # channels per standard LoRaWAN plan (Figure 19)


class _Edges:
    """Passband edges derived from a :class:`Channel`'s fields.

    Declared on a plain (non-dataclass) base so the attributes are typed
    instance attributes but not dataclass fields: equality, hashing,
    ordering, ``repr`` and :func:`dataclasses.fields` see only the
    centre and the bandwidth.
    """

    low_hz: float  #: Lower passband edge.
    high_hz: float  #: Upper passband edge.


@dataclass(frozen=True, order=True)
class Channel(_Edges):
    """A radio channel described by its center frequency and bandwidth.

    ``low_hz`` and ``high_hz`` are computed once, at construction (and
    again by :func:`dataclasses.replace`): the reception kernels read
    them for every candidate interferer.
    """

    center_hz: float
    bandwidth_hz: float = CHANNEL_BANDWIDTH_HZ

    def __post_init__(self) -> None:
        if self.center_hz <= 0:
            raise ValueError(f"center frequency must be positive: {self.center_hz}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth_hz}")
        half = self.bandwidth_hz / 2.0
        object.__setattr__(self, "low_hz", self.center_hz - half)
        object.__setattr__(self, "high_hz", self.center_hz + half)

    def offset_hz(self, other: "Channel") -> float:
        """Absolute center-frequency offset to another channel."""
        return abs(self.center_hz - other.center_hz)

    def shifted(self, delta_hz: float) -> "Channel":
        """Return a copy of this channel shifted by ``delta_hz``."""
        return Channel(self.center_hz + delta_hz, self.bandwidth_hz)


def spectrum_span_hz(channels: Iterable[Channel]) -> float:
    """Width from the lowest passband edge to the highest (0 when empty).

    With mixed bandwidths the outermost edges need not belong to the
    channels with the outermost centres, so every edge is compared.
    """
    chans = list(channels)
    if not chans:
        return 0.0
    return max(c.high_hz for c in chans) - min(c.low_hz for c in chans)


def overlap_hz(a: Channel, b: Channel) -> float:
    """Width of the spectral intersection of two channels in Hz."""
    return max(0.0, min(a.high_hz, b.high_hz) - max(a.low_hz, b.low_hz))


def overlap_ratio(a: Channel, b: Channel) -> float:
    """Fraction of the narrower channel's bandwidth covered by the other.

    1.0 means perfectly aligned (for equal bandwidths), 0.0 means fully
    disjoint.  The paper expresses inter-network *frequency misalignment*
    as ``1 - overlap_ratio``.
    """
    return overlap_hz(a, b) / min(a.bandwidth_hz, b.bandwidth_hz)


# Width of the frequency buckets that the interference and collision
# indexes file packets under, by channel centre.
INDEX_BUCKET_HZ = 200_000.0


def bucket_reach(widest_hz: float) -> int:
    """Buckets a frequency-index lookup scans on each side of its own.

    Two passbands overlap only when their centres are closer than the
    wider bandwidth.  With ``widest_hz`` the widest bandwidth in the
    index, overlapping centres are at most ``widest_hz //
    INDEX_BUCKET_HZ + 1`` buckets apart: one for 125 kHz channels, two
    for 250 kHz and three for 500 kHz.
    """
    return int(widest_hz // INDEX_BUCKET_HZ) + 1


@dataclass(frozen=True)
class ChannelGrid:
    """The raster of standard channel positions within a spectrum block.

    Mirrors the paper's Figure 19: channels are numbered CH0 upward from
    the lowest frequency on a fixed spacing, and each consecutive group of
    :data:`PLAN_SIZE` channels forms one standard channel plan.
    """

    start_hz: float
    width_hz: float
    spacing_hz: float = GRID_SPACING_HZ
    bandwidth_hz: float = CHANNEL_BANDWIDTH_HZ

    def __post_init__(self) -> None:
        if self.width_hz < self.spacing_hz:
            raise ValueError(
                f"grid width {self.width_hz} Hz cannot hold a single "
                f"{self.spacing_hz} Hz slot"
            )

    @property
    def num_channels(self) -> int:
        """Total channels the block can hold."""
        return int(self.width_hz // self.spacing_hz)

    def channel(self, index: int) -> Channel:
        """The channel at grid ``index`` (0-based from the lowest frequency)."""
        if not 0 <= index < self.num_channels:
            raise IndexError(
                f"channel index {index} out of range 0..{self.num_channels - 1}"
            )
        center = self.start_hz + self.spacing_hz / 2.0 + index * self.spacing_hz
        return Channel(center, self.bandwidth_hz)

    def channels(self) -> List[Channel]:
        """All channels in the grid, lowest frequency first."""
        return [self.channel(i) for i in range(self.num_channels)]

    def index_of(self, channel: Channel, tolerance_hz: float = 1.0) -> int:
        """Grid index of an (aligned) channel; raises if off-grid."""
        rel = channel.center_hz - self.start_hz - self.spacing_hz / 2.0
        index = round(rel / self.spacing_hz)
        if 0 <= index < self.num_channels:
            expected = self.channel(index)
            if abs(expected.center_hz - channel.center_hz) <= tolerance_hz:
                return index
        raise ValueError(f"channel {channel} is not on grid {self}")

    def subgrid(self, num_channels: int, start_index: int = 0) -> "ChannelGrid":
        """A contiguous sub-block starting at ``start_index``."""
        if start_index + num_channels > self.num_channels:
            raise ValueError("subgrid exceeds parent grid")
        return ChannelGrid(
            start_hz=self.start_hz + start_index * self.spacing_hz,
            width_hz=num_channels * self.spacing_hz,
            spacing_hz=self.spacing_hz,
            bandwidth_hz=self.bandwidth_hz,
        )

    def shifted(self, delta_hz: float) -> "ChannelGrid":
        """The whole grid translated in frequency by ``delta_hz``."""
        return ChannelGrid(
            start_hz=self.start_hz + delta_hz,
            width_hz=self.width_hz,
            spacing_hz=self.spacing_hz,
            bandwidth_hz=self.bandwidth_hz,
        )


@dataclass(frozen=True)
class ChannelPlan:
    """An ordered set of channels a gateway or a network operates on."""

    name: str
    channels: Tuple[Channel, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "channels", tuple(sorted(self.channels))
        )

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self.channels)

    def __contains__(self, channel: Channel) -> bool:
        return channel in self.channels

    @property
    def span_hz(self) -> float:
        """Frequency span from the lowest to the highest channel edge."""
        return spectrum_span_hz(self.channels)

    def best_match(self, channel: Channel) -> Tuple[Channel, float]:
        """The plan channel with the highest overlap to ``channel``.

        Returns:
            ``(plan_channel, overlap)`` where overlap is the
            :func:`overlap_ratio`; ``overlap == 0`` if disjoint everywhere.
        """
        if not self.channels:
            raise ValueError(f"channel plan {self.name!r} is empty")
        best = max(self.channels, key=lambda c: overlap_ratio(c, channel))
        return best, overlap_ratio(best, channel)

    def shifted(self, delta_hz: float, name: str = "") -> "ChannelPlan":
        """The plan translated in frequency by ``delta_hz``."""
        return ChannelPlan(
            name=name or f"{self.name}+{delta_hz / 1e3:g}kHz",
            channels=tuple(c.shifted(delta_hz) for c in self.channels),
        )

    @classmethod
    def from_grid(
        cls, grid: ChannelGrid, indices: Iterable[int], name: str = "plan"
    ) -> "ChannelPlan":
        """Build a plan from grid channel indices."""
        return cls(name=name, channels=tuple(grid.channel(i) for i in indices))


def standard_plans(grid: ChannelGrid, plan_size: int = PLAN_SIZE) -> List[ChannelPlan]:
    """Split a grid into consecutive standard channel plans (Figure 19).

    Plan #1 holds CH0..CH7, plan #2 holds CH8..CH15, and so on.  Operators
    in today's LoRaWANs pick one of these to configure every gateway —
    the homogeneous configuration whose decoder contention the paper
    diagnoses.
    """
    plans = []
    for start in range(0, grid.num_channels - plan_size + 1, plan_size):
        indices = range(start, start + plan_size)
        plans.append(
            ChannelPlan.from_grid(
                grid, indices, name=f"std-{start // plan_size + 1}"
            )
        )
    if not plans:
        # A narrow grid still yields one (short) plan.
        plans.append(
            ChannelPlan.from_grid(
                grid, range(grid.num_channels), name="std-1"
            )
        )
    return plans
