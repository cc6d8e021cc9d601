"""The radio medium of one simulated run, shared by all its gateways.

Every gateway of a run hears the same transmissions over the same
static link budget, so the work that depends only on the run is done
once, not once per gateway:

* **RSSI rows.**  A gateways x devices path-loss matrix; each
  gateway's RSSI of every packet is its row gathered by the packets'
  devices.  A gateway hears the packets of its row at or above its
  cutoff.
* **Arrival order and channel ids.**  One stable sort of the run's
  packets, restricted to what each gateway hears, and one numbering
  of the run's distinct packet channels.
* **Interference index.**  One
  :func:`~repro.gateway.gateway._build_time_index` over the run's
  transmissions.  Its rows carry no RSSI; each gateway reads it
  through its own RSSI row, skipping what it does not hear.

:meth:`Medium.hearing` hands a gateway all of this as its
:class:`~repro.gateway.gateway.Hearing`.  The matrix and the run-level
parts are filled on the first call.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..gateway.gateway import (
    Gateway,
    Hearing,
    _build_time_index,
    _run_order,
    _TimeIndex,
)
from ..node.device import EndDevice
from ..phy.channels import Channel
from ..phy.link import Position, noise_floor_dbm
from ..types import Transmission
from .topology import LinkBudget

__all__ = ["Medium", "PRUNE_MARGIN_DB"]

# Signals weaker than this margin below the noise floor are dropped from
# a gateway's observation set entirely: they can neither be detected
# (LoRa demodulates down to ~-23 dB SNR) nor contribute measurable
# interference energy.
PRUNE_MARGIN_DB = 30.0

# (path loss, gateways x devices; each packet's device column; each
# packet's transmit power).
_Links = Tuple[np.ndarray, np.ndarray, np.ndarray]
# (arrival order, channel ids, distinct channels, interference index).
_Run = Tuple[np.ndarray, List[int], List[Channel], _TimeIndex]


class Medium:
    """What the gateways of one run receive.

    Args:
        link: The link budget.
        devices: The transmitting end devices by ``(network_id,
            node_id)``.
        gateways: The listening gateways, one RSSI row each (ids must be
            unique).
        transmissions: The run's packets.  Positions in this sequence
            index the RSSI rows and the interference index.
    """

    def __init__(
        self,
        link: LinkBudget,
        devices: Mapping[Tuple[int, int], EndDevice],
        gateways: Sequence[Gateway],
        transmissions: Sequence[Transmission],
    ) -> None:
        self.link = link
        self.devices = devices
        self.gateways = list(gateways)
        self.transmissions = transmissions
        self._rows = {gw.gateway_id: i for i, gw in enumerate(self.gateways)}
        self._links: Optional[_Links] = None
        self._run: Optional[_Run] = None

    def _fill_links(self) -> _Links:
        """The path-loss matrix, one draw per (device, gateway) link.

        Raises:
            KeyError: for a transmission from an unknown device.
        """
        column: Dict[Tuple[int, int], int] = {}
        positions: List[Position] = []
        columns: List[int] = []
        for tx in self.transmissions:
            key = (tx.network_id, tx.node_id)
            col = column.get(key)
            if col is None:
                device = self.devices.get(key)
                if device is None:
                    raise KeyError(
                        f"transmission from unknown device "
                        f"net={tx.network_id} node={tx.node_id}"
                    )
                col = column[key] = len(positions)
                positions.append(device.position)
            columns.append(col)
        path_loss_db = self.link.path_loss_db
        loss = np.array(
            [
                [path_loss_db(pos, gw.position) for pos in positions]
                for gw in self.gateways
            ],
            dtype=np.float64,
        ).reshape(len(self.gateways), len(positions))
        power = np.array(
            [tx.tx_power_dbm for tx in self.transmissions], dtype=np.float64
        )
        return loss, np.array(columns, dtype=np.intp), power

    def rssi_dbm(self, gateway: Gateway) -> np.ndarray:
        """Every packet's RSSI at ``gateway``, in run order.

        Each (device, gateway) path loss comes from
        :meth:`LinkBudget.path_loss_db` with the device first, as
        :meth:`LinkBudget.rssi_dbm` asks for it, so the cached seeded
        draws are the same.  An entry is then ``tx_power_dbm + 0.0 -
        loss`` evaluated left to right in float64, which is the
        expression ``rssi_dbm`` evaluates in Python floats: each
        operation is one correctly rounded IEEE operation either way,
        so the entries equal ``rssi_dbm`` bit for bit.

        Raises:
            KeyError: for a transmission from an unknown device.
        """
        if self._links is None:
            self._links = self._fill_links()
        loss, columns, power = self._links
        return power + 0.0 - loss[self._rows[gateway.gateway_id], columns]

    def hearing(self, gateway: Gateway) -> Hearing:
        """``gateway``'s view of the run: it hears the packets at or above
        ``noise_floor_dbm(125 kHz, NF) - PRUNE_MARGIN_DB``.

        Raises:
            KeyError: for a transmission from an unknown device.
        """
        row = self.rssi_dbm(gateway)
        if self._run is None:
            txs = self.transmissions
            run_order, channel_ids, channels = _run_order(txs)
            self._run = (
                np.array(run_order, dtype=np.intp), channel_ids, channels,
                _build_time_index(txs),
            )
        order, channel_ids, channels, index = self._run
        heard = row >= (
            noise_floor_dbm(125_000.0, gateway.noise_figure_db) - PRUNE_MARGIN_DB
        )
        rssi: List[Optional[float]] = row.tolist()
        for p in np.flatnonzero(~heard).tolist():
            rssi[p] = None
        return Hearing(
            self.transmissions, rssi, order[heard[order]].tolist(),
            channel_ids, channels, index,
        )
