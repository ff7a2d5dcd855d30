"""Update header wire format: layout, chaining, round-trips."""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdp import (
    FieldOverflow,
    Simulator,
    TruncatedHeader,
    UpdateHeader,
    build_simulation,
    decode_update,
    encode_update,
    parse_scenario,
    update_frame_bits,
)
from repdp.replication import HEADER_BITS, HEADER_BYTES, IPV4_ETHTYPE, UPDATE_ETHTYPE


def oracle_encode(headers, inner_type):
    """Independent byte layout: four 32-bit ids, one 64-bit value, one
    16-bit next-protocol tag, big-endian; every header but the last
    chains with the update ethertype."""
    out = b""
    for i, h in enumerate(headers):
        nxt = UPDATE_ETHTYPE if i + 1 < len(headers) else inner_type
        out += struct.pack(
            ">IIIIQH",
            h.src_sw_id, h.dst_sw_id, h.state_id, h.replica_id, h.state_value, nxt,
        )
    return out


def test_header_is_208_bits():
    assert HEADER_BYTES == 26
    assert HEADER_BITS == 208


def test_golden_single_header():
    h = UpdateHeader(src_sw_id=1, dst_sw_id=2, state_id=3, replica_id=4,
                     state_value=0x1122334455667788)
    data = encode_update([h], inner_type=0x0800)
    assert data.hex() == (
        "00000001" "00000002" "00000003" "00000004"
        "1122334455667788" "0800"
    )


def test_golden_nested_stack():
    headers = [
        UpdateHeader(src_sw_id=0xA, dst_sw_id=0, state_id=1, replica_id=0,
                     state_value=7),
        UpdateHeader(src_sw_id=0xB, dst_sw_id=0, state_id=2, replica_id=1,
                     state_value=0xFFFFFFFFFFFFFFFF),
    ]
    data = encode_update(headers, inner_type=0x0800)
    # First header chains to the next with the update ethertype.
    assert data.hex() == (
        "0000000a" "00000000" "00000001" "00000000" "0000000000000007" "88b5"
        "0000000b" "00000000" "00000002" "00000001" "ffffffffffffffff" "0800"
    )


header_st = st.builds(
    UpdateHeader,
    src_sw_id=st.integers(0, 2**32 - 1),
    dst_sw_id=st.integers(0, 2**32 - 1),
    state_id=st.integers(0, 2**32 - 1),
    replica_id=st.integers(0, 2**32 - 1),
    state_value=st.integers(0, 2**64 - 1),
)


@given(st.lists(header_st, min_size=1, max_size=6),
       st.sampled_from([0x0800, 0x86DD, 0x0806]))
def test_roundtrip_matches_oracle(headers, inner):
    data = encode_update(headers, inner_type=inner)
    assert data == oracle_encode(headers, inner)
    assert len(data) * 8 == HEADER_BITS * len(headers)
    decoded, residual = decode_update(data)
    assert residual == inner
    for orig, back in zip(headers, decoded):
        assert (back.src_sw_id, back.dst_sw_id, back.state_id,
                back.replica_id, back.state_value) == (
            orig.src_sw_id, orig.dst_sw_id, orig.state_id,
            orig.replica_id, orig.state_value)


@settings(max_examples=30)
@given(st.lists(header_st, min_size=1, max_size=4), st.binary(min_size=0, max_size=40))
def test_trailing_payload_is_ignored(headers, payload):
    data = encode_update(headers, inner_type=0x0800) + payload
    decoded, residual = decode_update(data)
    assert len(decoded) == len(headers)
    assert residual == 0x0800


def test_truncated_chain_raises():
    headers = [UpdateHeader(1, 0, 1, 0, 5), UpdateHeader(2, 0, 2, 1, 6)]
    data = encode_update(headers, inner_type=0x0800)
    with pytest.raises(TruncatedHeader):
        decode_update(data[: HEADER_BYTES + 10])
    with pytest.raises(TruncatedHeader):
        decode_update(data[:5])
    with pytest.raises(TruncatedHeader):
        decode_update(b"")


def test_field_overflow_rejected():
    with pytest.raises(FieldOverflow):
        encode_update([UpdateHeader(2**32, 0, 0, 0, 0)])
    with pytest.raises(FieldOverflow):
        encode_update([UpdateHeader(0, 0, 0, 0, 2**64)])
    with pytest.raises(FieldOverflow):
        encode_update([UpdateHeader(0, 0, 0, 0, -1)])
    with pytest.raises(FieldOverflow):
        encode_update([])
    # The inner protocol tag may not claim another chained header.
    with pytest.raises(FieldOverflow):
        encode_update([UpdateHeader(0, 0, 0, 0, 0)], inner_type=UPDATE_ETHTYPE)


def test_chain_tags_rewritten_regardless_of_input():
    # Whatever l3 tags the caller left on the headers, the encoder owns
    # the chain: update ethertype between headers, inner type last.
    headers = [
        UpdateHeader(1, 0, 1, 0, 5, l3_protocol_type=0x1234),
        UpdateHeader(2, 0, 2, 1, 6, l3_protocol_type=UPDATE_ETHTYPE),
    ]
    data = encode_update(headers, inner_type=IPV4_ETHTYPE)
    decoded, residual = decode_update(data)
    assert decoded[0].l3_protocol_type == UPDATE_ETHTYPE
    assert decoded[1].l3_protocol_type == IPV4_ETHTYPE
    assert residual == IPV4_ETHTYPE


def test_minimum_frame_padding_is_separate():
    # Encoded bytes stay exactly 208 bits per header; only the simulated
    # frame pads up to the Ethernet minimum.
    assert update_frame_bits(1) == 512
    assert update_frame_bits(2) == 512
    assert update_frame_bits(3) == 624
    assert len(encode_update([UpdateHeader(1, 0, 1, 0, 5)])) * 8 == 208


def test_thousand_random_stacks_roundtrip():
    import random

    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        k = rng.randint(1, 5)
        headers = [
            UpdateHeader(
                src_sw_id=rng.randrange(2**32),
                dst_sw_id=rng.randrange(2**32),
                state_id=rng.randrange(2**32),
                replica_id=rng.randrange(2**32),
                state_value=rng.randrange(2**64),
            )
            for _ in range(k)
        ]
        inner = rng.choice([0x0800, 0x86DD])
        data = encode_update(headers, inner_type=inner)
        assert len(data) * 8 == 208 * k
        decoded, residual = decode_update(data)
        assert residual == inner
        assert [(h.src_sw_id, h.state_id, h.state_value) for h in decoded] == [
            (h.src_sw_id, h.state_id, h.state_value) for h in headers
        ]


@pytest.mark.parametrize("scenario, replicas", [
    ("fig8_ratelimit.scn", None),
    ("fig7_ddos_c2.scn", 2),
    ("fig7_ddos_c2.scn", 4),
], ids=["fig8", "fig7-c2", "fig7-c4"])
def test_simulated_update_frames_round_trip_the_wire(monkeypatch, scenario, replicas):
    # Every header a switch receives in the first 5 s of a shipped
    # scenario encodes to one 26-byte header and decodes back to itself,
    # and each update frame a link admits is charged exactly one minimum
    # frame.
    received = 0
    sent = 0
    on_update = Simulator._on_update
    send = Simulator._send

    def wire_checked(self, sw, link, pkt, t):
        nonlocal received
        data = encode_update([pkt.header])
        assert len(data) == HEADER_BYTES
        assert decode_update(data) == ((pkt.header,), IPV4_ETHTYPE)
        received += 1
        return on_update(self, sw, link, pkt, t)

    def counted_send(self, ld, pkt, t):
        nonlocal sent
        arr = send(self, ld, pkt, t)
        sent += pkt.is_update and arr is not None
        return arr

    monkeypatch.setattr(Simulator, "_on_update", wire_checked)
    monkeypatch.setattr(Simulator, "_send", counted_send)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scenarios", scenario)
    log = build_simulation(parse_scenario(path), replicas=replicas, t_end_s=5.0).sim.run_until()
    assert log.updates_emitted > 0 and received > 0
    assert sum(map(sum, log.repl_bits)) == update_frame_bits(1) * sent
