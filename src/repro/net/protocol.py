"""Wire framing: the length-prefixed binary protocol both ends speak.

A frame is::

    frame := u32 body_length | u32 crc32(body) | body
    body  := u8 opcode | payload (UTF-8 JSON)

— the same little-endian length+CRC discipline as the WAL's record
framing, so a torn frame (a connection killed mid-write) is detected
the same way a torn log tail is: the length prefix doesn't frame, or
the CRC fails.  A client never treats a torn response as an
acknowledgement; it surfaces :class:`TornFrameError` and the caller
knows only that the command's fate is undecided (exactly a crashed
server's contract).

Parameters for ``COM_STMT_EXECUTE`` travel as typed JSON values inside
the payload — the "binary protocol" of the paper's prepared-statement
contrast.  They are bound into the statement *after* the server's
charset decode step, so connection-charset quirks (GBK escape-eating,
U+02BC folding) never touch them; only ``COM_QUERY`` text goes through
:func:`repro.sqldb.charset.decode_query`.
"""

import json
import struct
import zlib

from repro import faults as faults_mod

#: frame header: little-endian u32 body length + u32 CRC32(body)
HEADER = struct.Struct("<II")

#: sanity bound on one frame body (larger is framing damage)
MAX_FRAME_BYTES = 16 * 1024 * 1024

# -- opcodes: client -> server ------------------------------------------------

HANDSHAKE = 0x01
COM_QUERY = 0x03
COM_STMT_PREPARE = 0x04
COM_STMT_EXECUTE = 0x05
COM_STMT_CLOSE = 0x06
COM_PING = 0x07
COM_QUIT = 0x08

# -- opcodes: server -> client ------------------------------------------------

HANDSHAKE_OK = 0x02
OK = 0x10
ERR = 0x11
RESULTSET = 0x12
STMT_PREPARE_OK = 0x13
PONG = 0x14

#: human-readable opcode names (error messages and tests)
OPCODE_NAMES = {
    HANDSHAKE: "HANDSHAKE",
    HANDSHAKE_OK: "HANDSHAKE_OK",
    COM_QUERY: "COM_QUERY",
    COM_STMT_PREPARE: "COM_STMT_PREPARE",
    COM_STMT_EXECUTE: "COM_STMT_EXECUTE",
    COM_STMT_CLOSE: "COM_STMT_CLOSE",
    COM_PING: "COM_PING",
    COM_QUIT: "COM_QUIT",
    OK: "OK",
    ERR: "ERR",
    RESULTSET: "RESULTSET",
    STMT_PREPARE_OK: "STMT_PREPARE_OK",
    PONG: "PONG",
}


#: one encoder for every frame: ``json.dumps`` with these arguments
#: builds a fresh one per call
_encode_json = json.JSONEncoder(separators=(",", ":"),
                                ensure_ascii=False).encode


class NetProtocolError(Exception):
    """A malformed or unexpected frame."""


class TornFrameError(NetProtocolError):
    """The peer died mid-frame: a partial header/body, or a CRC that
    doesn't cover what arrived.  Whatever the frame would have said —
    including an acknowledgement — must be treated as never said."""


def encode_frame(opcode, payload):
    """Serialize one frame to bytes.

    The ``net.frame`` fault site fires here (both directions encode
    through this function), modelling serialization blowing up mid
    conversation."""
    if faults_mod.ACTIVE is not None:
        faults_mod.fire("net.frame")
    body = bytes([opcode]) + _encode_json(payload).encode("utf-8")
    return HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def unpack_header(header_bytes):
    """``(body_length, crc)`` from the 8 header bytes."""
    if len(header_bytes) != HEADER.size:
        raise TornFrameError(
            "frame header torn: got %d of %d bytes"
            % (len(header_bytes), HEADER.size)
        )
    length, crc = HEADER.unpack(header_bytes)
    if length > MAX_FRAME_BYTES:
        raise NetProtocolError(
            "frame length %d exceeds the %d-byte bound (framing damage)"
            % (length, MAX_FRAME_BYTES)
        )
    return length, crc


def decode_body(body, crc):
    """``(opcode, payload)`` from a frame body, verifying the CRC."""
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise TornFrameError(
            "frame body fails its checksum (torn or corrupt frame)"
        )
    if not body:
        raise NetProtocolError("empty frame body")
    opcode = body[0]
    try:
        payload = json.loads(body[1:].decode("utf-8")) if len(body) > 1 \
            else {}
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetProtocolError("frame payload is not valid JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise NetProtocolError("frame payload must be a JSON object")
    return opcode, payload
