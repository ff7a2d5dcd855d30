"""Replica synchronization: wire format, update triggers, replica stores.

Update packets carry a chain of fixed 208-bit headers. The chain is
linked through the 16-bit protocol-type field: the reserved ethertype
0x88B5 announces another header follows, any other value ends the chain
and names the payload protocol. Origin timestamps and write counts ride
as simulator metadata, never as wire bits, so the encoded form stays
exactly 208 bits per header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .compiler import apply_reduction
from .errors import FieldOverflow, InvalidParameter, TruncatedHeader
from .model import ReductionKind

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


@dataclass(frozen=True)
class UpdateHeader:
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
    mode emits every `packet_period` observed packets.
    """

    __slots__ = ("mode", "tau_ns", "packet_period", "t_prime_ns", "pkt_count")

    def __init__(self, mode: str, tau_ns: int | None = None, packet_period: int | None = None):
        if mode == "time":
            if tau_ns is None or tau_ns < 0:
                raise InvalidParameter(f"time trigger needs tau_ns >= 0, got {tau_ns}")
        elif mode == "packet":
            if packet_period is None or packet_period < 1:
                raise InvalidParameter(
                    f"packet trigger needs packet_period >= 1, got {packet_period}")
        else:
            raise ValueError(f"unknown trigger mode {mode!r}")
        self.mode = mode
        self.tau_ns = tau_ns
        self.packet_period = packet_period
        # Before any emission every packet qualifies in time mode.
        self.t_prime_ns = None
        self.pkt_count = 0

    def should_emit(self, t_clk_ns: int) -> bool:
        """Advance the trigger by one observed packet; True means emit now."""
        if self.mode == "time":
            if self.t_prime_ns is None or t_clk_ns >= self.t_prime_ns + self.tau_ns:
                self.t_prime_ns = t_clk_ns
                return True
            return False
        self.pkt_count += 1
        if self.pkt_count >= self.packet_period:
            self.pkt_count = 0
            return True
        return False


@dataclass
class RemoteSlot:
    value: int = 0
    origin_ts_ns: int = -1
    origin_writes: int = 0
    present: bool = False


class ReplicaStore:
    """Per-switch replicated state: local values, remote slots, reductions.

    `configure_state` declares every state this switch replicates; the
    one whose origin is this switch is written locally (via an estimator
    object or set_local), the rest receive gossip through apply_update.
    Reduction outputs are recomputed lazily against a version counter
    bumped on every mutation.
    """

    def __init__(self, switch: str):
        self.switch = switch
        self.local_values: dict[str, object] = {}
        self.local_writes: dict[str, int] = {}
        self.local_write_ts: dict[str, int] = {}
        self.remote: dict[tuple[int, int], RemoteSlot] = {}
        self.remote_by_state: dict[str, list[tuple[int, int]]] = {}
        self.hosted: dict[int, str] = {}
        self.widths: dict[str, int] = {}
        self.reductions: dict[str, tuple[ReductionKind, tuple[str, ...]]] = {}
        self.known_ids: frozenset[int] = frozenset()
        self.unknown_state_drops = 0
        self.stale_drops = 0
        self.version = 0
        self._cache: dict[str, tuple[int, int, int]] = {}

    def configure_state(
        self,
        name: str,
        state_id: int,
        width_bits: int,
        owned: bool,
        origin_sw_ids: tuple[int, ...] = (),
    ):
        """Host a state here; non-owned origins get remote slots."""
        self.hosted[state_id] = name
        self.widths[name] = width_bits
        if owned:
            self.local_values[name] = 0
            self.local_writes[name] = 0
            self.local_write_ts[name] = -1
        else:
            keys = []
            for origin in origin_sw_ids:
                key = (state_id, origin)
                self.remote[key] = RemoteSlot()
                keys.append(key)
            self.remote_by_state[name] = keys

    def configure_reduction(self, output: str, kind: ReductionKind, inputs: tuple[str, ...]):
        self.reductions[output] = (kind, inputs)

    def set_known_ids(self, ids):
        self.known_ids = frozenset(ids)

    def attach_local(self, name: str, value_source):
        """Bind a live value source (e.g. a rate estimator) to a local state."""
        self.local_values[name] = value_source

    def write_local(self, name: str, value: int, t_ns: int):
        self.local_values[name] = int(value)
        self.note_write(name, t_ns)

    def note_write(self, name: str, t_ns: int):
        self.local_writes[name] += 1
        self.local_write_ts[name] = t_ns
        self.version += 1

    def local_value(self, name: str, t_ns: int) -> int:
        src = self.local_values[name]
        if isinstance(src, int):
            return src
        return src.read(t_ns)

    def value_of(self, name: str, t_ns: int) -> int:
        if name in self.local_values:
            return self.local_value(name, t_ns)
        total_keys = self.remote_by_state.get(name)
        if not total_keys:
            return 0
        # A state has one writing origin; its slot holds the latest value.
        slot = self.remote[total_keys[0]]
        return slot.value if slot.present else 0

    def apply_update(
        self, header: UpdateHeader, origin_ts_ns: int, origin_writes: int = 0
    ) -> tuple[str, int | None]:
        """Reconcile one header; last writer (per origin) wins.

        Returns (status, replaced_ts): status is "applied" (replaced_ts
        is the previous slot timestamp, -1 on first fill), "stale" for
        an out-of-order or duplicate timestamp, "local" when this switch
        is the origin, "transit" when the state is known but not hosted
        here, or "unknown" (counted) when the id is outside the
        registry.
        """
        sid = header.state_id
        if sid not in self.hosted:
            if sid in self.known_ids:
                return "transit", None
            self.unknown_state_drops += 1
            return "unknown", None
        name = self.hosted[sid]
        if name in self.local_values:
            return "local", None
        key = (sid, header.src_sw_id)
        slot = self.remote.get(key)
        if slot is None:
            self.unknown_state_drops += 1
            return "unknown", None
        if slot.present and origin_ts_ns <= slot.origin_ts_ns:
            self.stale_drops += 1
            return "stale", None
        prev_ts = slot.origin_ts_ns if slot.present else -1
        slot.value = header.state_value
        slot.origin_ts_ns = origin_ts_ns
        slot.origin_writes = origin_writes
        slot.present = True
        self.version += 1
        return "applied", prev_ts

    def read_global(self, output: str, t_ns: int) -> int:
        """Reduction over local and remote slot values, cached per
        (version, time) so repeated reads within one event are free."""
        cached = self._cache.get(output)
        if cached is not None and cached[0] == self.version and cached[1] == t_ns:
            return cached[2]
        value = self._eval(output, t_ns)
        self._cache[output] = (self.version, t_ns, value)
        return value

    def _eval(self, name: str, t_ns: int) -> int:
        red = self.reductions.get(name)
        if red is None:
            return self.value_of(name, t_ns)
        kind, inputs = red
        return apply_reduction(kind, [self._eval(i, t_ns) for i in inputs])

    def replica_memory_bits(self) -> int:
        """Register bits held for replication: state slots + one aggregate
        register per reduction output."""
        bits = 0
        for sid, name in self.hosted.items():
            bits += self.widths[name]
        for output, (kind, inputs) in self.reductions.items():
            widths = [self.widths.get(i, 32) for i in inputs]
            bits += max(widths) if widths else 32
        return bits


def flood_ports(tree_ports, ingress_port: str | None) -> tuple[str, ...]:
    """Tree egress set: every tree port except the one the packet came in on."""
    return tuple(p for p in tree_ports if p != ingress_port)
