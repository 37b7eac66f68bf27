"""Fuzzed HTTP framing: arbitrary bytes into the connection handler.

Each example feeds one byte string, then end-of-stream, to
:meth:`AssessmentServer._handle_connection` of an in-process server and
reads what it wrote back.  Every input must end in a closed connection
whose output is zero or more complete HTTP/1.1 responses (status line,
then ``Content-Length`` or chunked framing) with nothing left over —
never an exception, a callback error on the event loop, a half-written
response or a hang.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.serve import AssessmentServer, ServeConfig

#: No input may keep the handler busy longer than this.
HANG_BOUND_S = 10.0

_REQUEST_LINES = st.one_of(
    st.sampled_from([
        b"GET /healthz HTTP/1.1", b"GET /readyz HTTP/1.0",
        b"GET /metrics?format=prometheus HTTP/1.1", b"GET /nowhere HTTP/1.1",
        b"POST /v1/assess HTTP/1.1", b"POST /v1/sweep HTTP/1.1",
        b"POST /v1/bands HTTP/1.1", b"DELETE /v1/assess HTTP/1.1",
        b"GET", b" ", b"\xff\xfe /healthz HTTP/1.1",
    ]),
    st.binary(max_size=40))

_HEADERS = st.builds(
    lambda name, value: name + b":" + value,
    st.sampled_from([b"Content-Length", b"content-length", b"Connection",
                     b"Accept", b"Host", b"X-Any", b""]),
    st.one_of(st.sampled_from([b" 0", b" 2", b" -1", b" 99999999", b" x",
                               b" close", b" keep-alive", b" text/plain"]),
              st.binary(max_size=12)))

_BODIES = st.one_of(
    st.sampled_from([b"", b"{}", b'{"fleet": "doe-like"}', b"[1,",
                     b'{"fleet": "nope"}', b"\xff\xfe"]),
    st.binary(max_size=32))


@st.composite
def _request(draw) -> bytes:
    """A request-shaped byte string, framed right or wrong."""
    line = draw(_REQUEST_LINES)
    headers = draw(st.lists(_HEADERS, max_size=3))
    body = draw(_BODIES)
    if draw(st.booleans()):
        headers.append(b"Content-Length: %d" % len(body))
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    return eol.join([line, *headers, b""]) + eol + body


_INPUTS = st.one_of(
    st.binary(max_size=256),
    st.lists(_request(), min_size=1, max_size=3).map(b"".join),
    st.tuples(_request(), st.binary(max_size=48)).map(b"".join))


class _Sink:
    """The writer half of a connection, recording what was written."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def _responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split ``data`` into complete responses; fail on any leftover."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {head[:80]!r}"
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and len(status) == 3 \
            and status.isdigit(), status_line
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(": ")
            assert sep, f"malformed header line {line!r}"
            headers[name.lower()] = value
        if headers.get("transfer-encoding") == "chunked":
            body = bytearray()
            while True:
                size_line, sep, rest = rest.partition(b"\r\n")
                assert sep, "unterminated chunk size"
                size = int(size_line, 16)
                assert rest[size:size + 2] == b"\r\n", "bad chunk framing"
                body += rest[:size]
                rest = rest[size + 2:]
                if size == 0:
                    break
        else:
            length = int(headers["content-length"])
            body, rest = rest[:length], rest[length:]
            assert len(body) == length, "truncated body"
        responses.append((int(status), headers, bytes(body)))
        data = rest
    return responses


async def _feed(data: bytes) -> tuple[_Sink, list[dict]]:
    loop = asyncio.get_running_loop()
    loop_errors: list[dict] = []
    loop.set_exception_handler(lambda _, context: loop_errors.append(context))
    server = AssessmentServer(ServeConfig(port=0, keepalive_idle_s=1.0,
                                          stream_threshold_bytes=256))
    await server.start()
    try:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        sink = _Sink()
        async with asyncio.timeout(HANG_BOUND_S):
            await server._handle_connection(reader, sink)
    finally:
        await server.stop()
    return sink, loop_errors


@settings(max_examples=200, deadline=None)
@given(_INPUTS)
def test_any_bytes_get_whole_responses_then_a_clean_close(data):
    sink, loop_errors = asyncio.run(_feed(data))
    assert loop_errors == []
    assert sink.closed
    responses = _responses(bytes(sink.data))
    for index, (status, headers, body) in enumerate(responses):
        assert headers["connection"] in ("close", "keep-alive")
        if headers["connection"] == "close":
            assert index == len(responses) - 1, "response after close"
        if status >= 400:
            assert json.loads(body)["error"]["code"]
