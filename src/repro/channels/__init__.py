"""Inter-router channels: plain wires, iDEAL-style channel buffers, MFACs.

* :mod:`repro.channels.mfac` — the channel datapath model, covering all
  four MFAC functions (transmission, link storage, re-transmission buffer,
  relaxed timing) plus the plain-wire and iDEAL configurations used by the
  baselines.
* :mod:`repro.channels.controller` — the MFAC function-select controller.
* :mod:`repro.channels.flow_control` — the 1-bit congestion signal and
  credit bookkeeping of the congestion control block.
"""

from repro.channels.controller import MfacController
from repro.channels.flow_control import CongestionControlBlock
from repro.channels.mfac import Channel, ChannelFunction, ChannelGeometryError

__all__ = [
    "Channel",
    "ChannelFunction",
    "ChannelGeometryError",
    "CongestionControlBlock",
    "MfacController",
]
