"""COTS gateway model: detection, FCFS dispatch, finite decoder pool."""

from __future__ import annotations

from .decoder import DecoderLease, DecoderPool
from .detector import Detection, detect, match_rx_channel
from .dispatcher import DispatchResult, FcfsDispatcher
from .gateway import Gateway, GatewayReception, Hearing, Outcome
from .models import (
    COTS_CATALOG,
    DEFAULT_MODEL_NAME,
    GatewayModel,
    NUM_ORTHOGONAL_DRS,
    get_model,
)

__all__ = [
    "DecoderLease", "DecoderPool",
    "Detection", "detect", "match_rx_channel",
    "DispatchResult", "FcfsDispatcher",
    "Gateway", "GatewayReception", "Hearing", "Outcome",
    "COTS_CATALOG", "DEFAULT_MODEL_NAME", "GatewayModel",
    "NUM_ORTHOGONAL_DRS", "get_model",
]
