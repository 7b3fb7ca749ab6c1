"""wire.read_reply against http.client.HTTPResponse on replies built from a
small grammar: an optional interim head, a status line, repeated
Content-Length, Transfer-Encoding and Connection fields, a chunked or raw
body, and bytes after it. The two must read the same status and body and
leave the same bytes for a next reply, or both refuse the reply, unless
the reply falls under a deviation that wire's module docstring lists;
there wire must do what that deviation says. That list is the allowlist."""

from __future__ import annotations

import http.client
import io
import re

from hypothesis import example, given, settings, strategies as st

from comdb import wire

REFUSED = "refused"

# Each deviation the expectation below relies on, as wire's docstring words it.
DEVIATIONS = {
    "interim": "It skips a 1xx interim reply but 101 and reads the reply that follows",
    "101": "refuses a 101 Switching Protocols",
    "no-body": "A 204 or 304 reply has no body, even a chunked one",
    "coding": "It refuses a Transfer-Encoding other than one chunked",
    "length": "a Content-Length that is not digits or holds unequal values",
    "cut": "a reply whose stream ends inside a line or a field section",
    "length-list": "It reads a list of equal Content-Length values as one",
}


class _Reader(io.BufferedReader):
    """A reader that notes whether a line it returned ended with the stream
    rather than with LF, and that stays open for what is left after a reply."""

    cut = False

    def readline(self, size=-1):
        line = super().readline(size)
        self.cut |= not line.endswith(b"\n")
        return line

    def close(self):
        pass


class _FakeSocket:
    def __init__(self, data: bytes):
        self.reader = _Reader(io.BytesIO(data))

    def makefile(self, mode, *args, **kwargs):
        return self.reader


def stdlib(data: bytes):
    """(status, body, the bytes left for a next reply) as http.client reads
    data, or REFUSED, and whether it took the end of the stream for the end
    of a line or a section."""
    sock = _FakeSocket(data)
    response = http.client.HTTPResponse(sock, method="POST")
    try:
        response.begin()
        body = response.read()
        return (response.status, body, sock.reader.read()), sock.reader.cut
    except (http.client.HTTPException, ValueError):
        return REFUSED, sock.reader.cut
    finally:
        response.close()


def wire_reads(data: bytes):
    """(status, body, the bytes left for a next reply) as wire.read_reply
    reads data, or REFUSED."""
    reader = io.BufferedReader(io.BytesIO(data))
    try:
        status, _, body, _ = wire.read_reply(reader)
    except (ValueError, OSError):
        return REFUSED
    return status, body, reader.read()


# --- the grammar ---

_CONTENT = st.lists(st.sampled_from([b"hi", b"{}", b"0", b"a", b"F", b"\r\n", b";", b"\xff"]),
                    max_size=8).map(b"".join)
_VALUES = {
    "Content-Length": ["{n}", "{n}, {n}", "{n}, 7", "{more}", "{less}", "+{n}", "x"],
    "Transfer-Encoding": ["chunked", "Chunked", "gzip", "gzip, chunked", "chunked, chunked",
                          "identity"],
    "Connection": ["close", "keep-alive", "Keep-Alive, close", "upgrade"],
}
_FIELDS = st.lists(st.tuples(st.sampled_from(sorted(_VALUES)), st.integers(0, 6),
                             st.booleans()), max_size=5)
_AFTER = st.sampled_from([b"", b"hi", b"0\r\n\r\n",
                          b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"])


@st.composite
def _chunked(draw, content: bytes) -> bytes:
    cuts = sorted(draw(st.sets(st.integers(1, max(len(content) - 1, 1)), max_size=3)))
    upper, extension = draw(st.booleans()), draw(st.sampled_from([b"", b";x=1", b" ;y"]))
    out = b""
    for start, end in zip([0, *cuts], [*cuts, len(content)]):
        if piece := content[start:end]:
            size = b"%X" % len(piece) if upper else b"%x" % len(piece)
            out += size + extension + b"\r\n" + piece + b"\r\n"
    trailer = draw(st.sampled_from([b"", b"X-T: 1\r\n", b"X-T: 1\r\nX-U: 2\r\n"]))
    return out + b"0" + extension + b"\r\n" + trailer + b"\r\n"


@st.composite
def replies(draw) -> dict:
    content = draw(_CONTENT)
    body = draw(_chunked(content)) if draw(st.booleans()) else content
    n = len(body)
    fields = []
    for name, choice, lower in draw(_FIELDS):
        values = _VALUES[name]
        value = values[choice % len(values)].format(n=n, more=n + 1, less=max(n - 1, 0))
        fields.append((name.lower() if lower else name, value))
    return {
        "interim": draw(st.one_of(st.none(), st.sampled_from([100, 101, 102, 103]))),
        "version": draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/1.2", "HTTP/2.0"])),
        "status": draw(st.sampled_from(["200", "204", "304", "404", "099"])),
        "reason": draw(st.sampled_from([" OK", ""])),
        "fields": fields,
        "body": body,
        "after": draw(_AFTER),
    }


def encode(reply: dict) -> bytes:
    interim = (b"" if reply["interim"] is None
               else b"HTTP/1.1 %d Info\r\nX-Hint: a\r\n\r\n" % reply["interim"])
    head = f"{reply['version']} {reply['status']}{reply['reason']}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in reply["fields"])
    return interim + head.encode("ascii") + b"\r\n" + reply["body"] + reply["after"]


# --- the allowlist ---

def _values(reply: dict, name: str) -> list[str]:
    return [value for field, value in reply["fields"] if field.lower() == name.lower()]


def expected(reply: dict):
    """What wire must read from reply, and the deviation that says so (None
    where it must read what http.client reads)."""
    if reply["interim"] == 101:
        return REFUSED, "101"
    if reply["interim"] in (102, 103):
        return expected(dict(reply, interim=None))[0], "interim"
    codings, lengths = _values(reply, "Transfer-Encoding"), _values(reply, "Content-Length")
    if reply["status"] in ("204", "304"):
        plain = [(name, value) for name, value in reply["fields"]
                 if name.lower() != "transfer-encoding"]
        return stdlib(encode(dict(reply, fields=plain)))[0], "no-body" if codings else None
    agreed, cut = stdlib(encode(reply))
    if agreed == REFUSED:
        return REFUSED, None
    if cut:
        return REFUSED, "cut"
    if codings:
        return (agreed, None) if len(codings) == 1 and codings[0].lower() == "chunked" else (
            REFUSED, "coding")
    if lengths:
        numbers = [value.strip() for line in lengths for value in line.split(",")]
        if not all(re.fullmatch("[0-9]+", number) for number in numbers) or len(
                set(map(int, numbers))) > 1:
            return REFUSED, "length"
        if any("," in line for line in lengths):
            one = [(field, value) for field, value in reply["fields"]
                   if field.lower() != "content-length"] + [("Content-Length", numbers[0])]
            return stdlib(encode(dict(reply, fields=one)))[0], "length-list"
    return agreed, None


def _flat(text: str) -> str:
    return " ".join(text.split())


def test_the_allowlist_is_the_docstring_list():
    doc = _flat(wire.__doc__)
    assert [key for key, phrase in DEVIATIONS.items() if phrase not in doc] == []


def _reply(status="200", fields=(), body=b"hi", interim=None, after=b"") -> dict:
    return {"interim": interim, "version": "HTTP/1.1", "status": status, "reason": " OK",
            "fields": list(fields), "body": body, "after": after}


@settings(max_examples=400, deadline=None)
@example(_reply(interim=103, fields=[("Content-Length", "2")]))
@example(_reply(interim=101, fields=[("Content-Length", "2")]))
@example(_reply(status="204", fields=[("Transfer-Encoding", "chunked")],
                body=b"2\r\nhi\r\n0\r\n\r\n"))
@example(_reply(fields=[("Transfer-Encoding", "gzip"), ("Content-Length", "2")]))
@example(_reply(fields=[("Transfer-Encoding", "chunked"), ("Transfer-Encoding", "chunked")],
                body=b"2\r\nhi\r\n0\r\n\r\n"))
@example(_reply(fields=[("Content-Length", "2"), ("Content-Length", "1")]))
@example(_reply(fields=[("Transfer-Encoding", "chunked")], body=b"0\r\nX-T: 1\r\n"))
@example(_reply(fields=[("Content-Length", "+2")]))
@example(_reply(fields=[("Content-Length", "2, 2")], after=b"!!"))
@given(replies())
def test_wire_reads_a_reply_as_http_client_does(reply):
    want, deviation = expected(reply)
    assert wire_reads(encode(reply)) == want, (deviation, encode(reply))
