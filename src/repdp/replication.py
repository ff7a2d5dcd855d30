"""Replica synchronization: wire format, update triggers, replica stores.

Update packets carry a chain of fixed 208-bit headers. The chain is
linked through the 16-bit protocol-type field: the reserved ethertype
0x88B5 announces another header follows, any other value ends the chain
and names the payload protocol. The simulator sends one header per
frame; only `encode_update` and `decode_update` build and parse longer
chains. Origin timestamps and write counts ride as simulator metadata,
never as wire bits, so the encoded form stays exactly 208 bits per
header.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

from .compiler import RightShift, run_steps
from .errors import FieldOverflow, InvalidParameter, TruncatedHeader

UPDATE_ETHTYPE = 0x88B5
IPV4_ETHTYPE = 0x0800

_HEADER_FMT = ">IIIIQH"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)
HEADER_BITS = HEADER_BYTES * 8

# Ethernet minimum frame; update packets pad to this on the wire.
MIN_FRAME_BITS = 512

_U32 = 2**32
_U64 = 2**64
_U16 = 2**16


class UpdateHeader(NamedTuple):
    """One state update on the wire: four u32 ids, a u64 value, a u16 type."""

    src_sw_id: int
    dst_sw_id: int
    state_id: int
    replica_id: int
    state_value: int
    l3_protocol_type: int = IPV4_ETHTYPE


def encode_update(headers, inner_type: int = IPV4_ETHTYPE) -> bytes:
    """Encode a header chain; length is exactly 26 bytes per header.

    The protocol-type fields are rewritten to the chain structure: every
    header but the last carries UPDATE_ETHTYPE, the last carries
    `inner_type`. Out-of-range field values raise FieldOverflow.
    """
    hs = list(headers)
    if not hs:
        raise FieldOverflow("empty header list")
    if not 0 <= inner_type < _U16 or inner_type == UPDATE_ETHTYPE:
        raise FieldOverflow(f"inner_type {inner_type:#x} invalid")
    out = bytearray()
    last = len(hs) - 1
    for i, h in enumerate(hs):
        for name, val, bound in (
            ("src_sw_id", h.src_sw_id, _U32),
            ("dst_sw_id", h.dst_sw_id, _U32),
            ("state_id", h.state_id, _U32),
            ("replica_id", h.replica_id, _U32),
            ("state_value", h.state_value, _U64),
        ):
            if not 0 <= val < bound:
                raise FieldOverflow(f"header {i}: {name}={val} out of range")
        l3 = UPDATE_ETHTYPE if i < last else inner_type
        out += struct.pack(
            _HEADER_FMT,
            h.src_sw_id,
            h.dst_sw_id,
            h.state_id,
            h.replica_id,
            h.state_value,
            l3,
        )
    return bytes(out)


def decode_update(data: bytes) -> tuple[tuple[UpdateHeader, ...], int]:
    """Parse a header chain; returns (headers, residual payload type).

    Follows the chain until the first non-reserved protocol type; bytes
    beyond the chain are payload and ignored. A chain cut mid-header
    raises TruncatedHeader.
    """
    headers = []
    offset = 0
    while True:
        if len(data) - offset < HEADER_BYTES:
            raise TruncatedHeader(
                f"need {HEADER_BYTES} bytes at offset {offset}, have {len(data) - offset}"
            )
        fields = struct.unpack_from(_HEADER_FMT, data, offset)
        offset += HEADER_BYTES
        h = UpdateHeader(*fields)
        headers.append(h)
        if h.l3_protocol_type != UPDATE_ETHTYPE:
            return tuple(headers), h.l3_protocol_type


def update_frame_bits(n_headers: int) -> int:
    """Wire size of an update packet, padded to the minimum frame."""
    return max(MIN_FRAME_BITS, n_headers * HEADER_BITS)


class UpdateTrigger:
    """Traffic-driven update emission for one origin state.

    Checked once per data packet at the very end of ingress processing.
    Time mode emits when t_clk >= t' + tau and then advances t'; packet
    mode emits every `packet_period` observed packets. `due` is the
    first time the next packet can emit at: t' + tau in time mode, -1
    before the first emission and always in packet mode, so a caller
    that skips `should_emit` before `due` skips only calls that return
    False.
    """

    __slots__ = ("mode", "tau_ns", "packet_period", "t_prime_ns", "pkt_count", "due")

    def __init__(self, mode: str, tau_ns: int | None = None, packet_period: int | None = None):
        if mode == "time":
            if tau_ns is None or tau_ns < 0:
                raise InvalidParameter(f"time trigger needs tau_ns >= 0, got {tau_ns}")
        elif mode == "packet":
            if packet_period is None or packet_period < 1:
                raise InvalidParameter(
                    f"packet trigger needs packet_period >= 1, got {packet_period}")
        else:
            raise InvalidParameter(f"unknown trigger mode {mode!r}")
        self.mode = mode
        self.tau_ns = tau_ns
        self.packet_period = packet_period
        # Before any emission every packet qualifies in time mode.
        self.t_prime_ns = None
        self.pkt_count = 0
        self.due = -1

    def should_emit(self, t_clk_ns: int) -> bool:
        """Advance the trigger by one observed packet; True means emit now."""
        if self.mode == "time":
            if self.t_prime_ns is None or t_clk_ns >= self.t_prime_ns + self.tau_ns:
                self.t_prime_ns = t_clk_ns
                self.due = t_clk_ns + self.tau_ns
                return True
            return False
        self.pkt_count += 1
        if self.pkt_count >= self.packet_period:
            self.pkt_count = 0
            return True
        return False


# A hosted state's origin when this switch writes it.
LOCAL = -1


class ReplicaStore:
    """Per-switch replicated state: one register per wire state and per
    step output of the compiled program, keyed by register number.

    `n_states` is the application's state count, so its wire ids (and
    their registers) are 0..n_states-1. Per wire id the store keeps the
    state's origin (LOCAL, the origin switch's id, or None when the
    state is not hosted here), the origin timestamp of the value held
    (-1 before the first), the local write count and the width.
    `configure_state` declares every state this switch replicates; the
    one whose origin is this switch is written locally (via an
    estimator object or write_local), the rest receive gossip through
    apply_update from their single origin. A state not hosted here
    reads 0. A stored value re-runs at once the steps it feeds,
    `readers[sid]`, so the registers stay current. A live source's
    reading only changes when one of its buckets closes, at a multiple
    of its `delta_ns`, so the registers hold for every time before
    `fresh_until`, the end of the tick they were last read in, a tick
    being the gcd of the live sources' deltas: only a read at or past
    it reads the live sources and runs every step again.
    """

    def __init__(self, steps, n_states: int):
        self.steps = steps
        # Each register's value: 0 until written or received, and for
        # good for a state not hosted here; evaluation writes the live
        # estimators' readings and each step's output.
        self.regs = [0] * (n_states + len(steps))
        self.origin: list[int | None] = [None] * n_states
        self.origin_ts = [-1] * n_states
        self.writes = [0] * n_states
        # A register's width as replica memory counts it: a hosted
        # state's own, 32 for every other register.
        self.widths = [32] * len(self.regs)
        # The live value source of each estimator-backed local state.
        self.live: dict[int, object] = {}
        # The gcd of the live sources' delta_ns; 0 while there are none.
        self._tick = 0
        # The registers hold for every time before this one.
        self.fresh_until = -1
        # Per state, the steps it feeds, directly or through other
        # steps, in step order.
        self.readers = []
        for sid in range(n_states):
            fed, mine = {sid}, []
            for step in steps:
                if not fed.isdisjoint(step[2]):
                    mine.append(step)
                    fed.add(step[0])
            self.readers.append(tuple(mine))

    def configure_state(self, sid: int, width_bits: int, origin_sw_id: int | None = None):
        """Host state `sid` here: written locally when `origin_sw_id` is
        None, otherwise fed by that switch."""
        self.origin[sid] = LOCAL if origin_sw_id is None else origin_sw_id
        self.widths[sid] = width_bits

    def attach_local(self, sid: int, value_source):
        """Bind a live value source (e.g. a rate estimator) to a local
        state. Its reading may change only at multiples of its
        `delta_ns`."""
        self.live[sid] = value_source
        self._tick = math.gcd(self._tick, value_source.delta_ns)
        self.fresh_until = -1

    def _store(self, sid: int, value: int):
        """Hold `value` in state `sid` and re-run the steps it feeds."""
        regs = self.regs
        regs[sid] = value
        for out, fn, operands in self.readers[sid]:
            regs[out] = fn([regs[x] for x in operands])

    def write_local(self, sid: int, value: int):
        self._store(sid, int(value))
        self.writes[sid] += 1

    def local_value(self, sid: int, t_ns: int) -> int:
        src = self.live.get(sid)
        return self.regs[sid] if src is None else src.read(t_ns)

    def apply_update(self, header: UpdateHeader, origin_ts_ns: int) -> tuple[str, int | None]:
        """Reconcile one header; the newest origin timestamp wins.

        Returns (status, replaced_ts): status is "applied" (replaced_ts
        is the previous timestamp, -1 on first fill), "stale" for an
        out-of-order or duplicate timestamp, "local" when this switch
        is the origin, "transit" when the state is known but not hosted
        here, or "unknown" when the id names no state of the application
        or the header comes from a switch other than the state's origin.
        """
        sid = header.state_id
        if not 0 <= sid < len(self.origin):
            return "unknown", None
        origin = self.origin[sid]
        if header.src_sw_id != origin:
            if origin is None:
                return "transit", None
            return ("local" if origin == LOCAL else "unknown"), None
        prev_ts = self.origin_ts[sid]
        if origin_ts_ns <= prev_ts:
            return "stale", None
        self.origin_ts[sid] = origin_ts_ns
        self._store(sid, header.state_value)
        return "applied", prev_ts

    def tick_end(self, t_ns: int) -> int | float:
        """The end of the tick that holds t_ns: no live reading can
        differ between t_ns and any later time before it. Without live
        sources the tick never ends."""
        tick = self._tick
        return t_ns - t_ns % tick + tick if tick else math.inf

    def read_global(self, reg: int, t_ns: int) -> int:
        """Register `reg` (a reduction output or a state) at time t_ns,
        from local and remote values. Time only moves forward, so the
        live sources are read and the steps run once per tick; a caller
        may read `regs[reg]` itself while t_ns < `fresh_until`."""
        regs = self.regs
        if t_ns >= self.fresh_until:
            for sid, src in self.live.items():
                regs[sid] = src.read(t_ns)
            run_steps(self.steps, regs)
            self.fresh_until = self.tick_end(t_ns)
        return regs[reg]

    def replica_memory_bits(self) -> int:
        """Register bits held for replication: hosted state slots + one
        aggregate register per reduction step, as wide as its widest
        input (a hosted state's width; 32 for any other input). A shift
        reads the register of the sum it follows, so a lowered mean
        holds one register."""
        widths = self.widths
        bits = sum(w for w, origin in zip(widths, self.origin) if origin is not None)
        for _, fn, operands in self.steps:
            if not isinstance(fn, RightShift):
                bits += max(widths[x] for x in operands)
        return bits
