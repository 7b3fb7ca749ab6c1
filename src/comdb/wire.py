"""HTTP/1.1 for live runs: POSTs on kept-alive plain or TLS sockets.

A request's body comes encoded (comdb.llm encodes each arm's JSON once).
An exchange writes the request head and body in one sendall and reads one
reply with http.client's bounds: a status line, then at most 100 header
lines of at most 65 536 bytes each; repeated lines of one field are
joined with ", " (RFC 9110 §5.3). The body is taken by chunked coding if
Transfer-Encoding is "chunked" (the trailer section is read and dropped),
else by Content-Length, else up to the end of the stream.

Its only deliberate deviations from http.client follow the RFCs where
http.client guesses. It skips a 1xx interim reply but 101 and reads the
reply that follows (http.client reads a 1xx but 100 as the final reply,
with no body), and refuses a 101 Switching Protocols, which comdb never
asks for. A 204 or 304 reply has no body, even a chunked one. It refuses a
Transfer-Encoding other than one chunked, a Content-Length that is not
digits or holds unequal values, a chunk size that is not hex digits, a
length above sys.maxsize, and a reply whose stream ends inside a line or
a field section. It reads a list of equal Content-Length values as one.

A connection carries the next request too (RFC 9112 §9.3) when its reply
was HTTP/1.1, did not say Connection: close, and was framed by
Content-Length or chunked coding without Content-Length (RFC 9112 §6.3),
or had no body. Any error closes it. A server may close or reset a
connection while it is idle; a request sent on such a connection fails
before the first byte of its reply, and it is then sent once more on a
new connection. A timeout, or a failure after that first byte, is not
resent. After each request the socket sets TCP_QUICKACK, where the
platform has it, so that the reply head is acknowledged at once: a server
that writes the head and the body in two sends would otherwise hold the
body back (Nagle, RFC 896) until the delayed ACK (RFC 1122 §4.2.3.2),
~40 ms later on Linux.

llm imports this module on first live use, so that `import comdb.cli`,
offline commands and --mock runs never load it. It imports ssl only for
an https endpoint or proxy, and urllib.request (which brings http.client
and email) only where a proxy may be set (see _proxy).
"""

from __future__ import annotations

import base64
import os
import re
import socket
import sys
import threading
from urllib.parse import unquote, urlsplit

from .errors import Timeout, TransportError

MAX_LINE = 65536
MAX_HEADERS = 100
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;.*)?\r?\n")  # RFC 9112 §7.1


def _line(reader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ValueError(f"{what} longer than {MAX_LINE} bytes")
    return line


def _fields(reader) -> dict:
    """The fields of a header or trailer section, up to its blank line,
    under their lower-cased names."""
    headers, readline = {}, reader.readline
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE + 1)  # _line's check, inline: this runs per field
        if len(line) > MAX_LINE:
            raise ValueError(f"header line longer than {MAX_LINE} bytes")
        if line == b"\r\n" or line == b"\n":
            return headers
        if not line:
            raise ValueError("incomplete read: the stream ended inside a header section")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if colon:
            name, value = name.strip().lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ValueError(f"more than {MAX_HEADERS} header lines")


def read_head(reader) -> tuple[str, int, str, dict]:
    """The version, status code, reason and header fields of one reply head."""
    line = _line(reader, "status line")
    if not line:
        raise ConnectionResetError("remote end closed connection without response")
    version, status, reason = (line.decode("iso-8859-1").split(None, 2) + ["", ""])[:3]
    if not (version.startswith("HTTP/1.") and status.isascii() and status.isdigit()
            and 100 <= int(status) <= 999):
        raise ValueError(f"bad status line {line!r}")
    return version, int(status), reason.strip(), _fields(reader)


def _exactly(reader, n: int) -> bytes:
    if n > sys.maxsize:  # more than any read can ask for
        raise ValueError(f"length {n} is too large")
    data = reader.read(min(n, 1 << 20))
    if len(data) < n:
        # In pieces: a length the stream does not hold allocates only what it sent.
        data = bytearray(data)
        while len(data) < n and (piece := reader.read(min(n - len(data), 1 << 20))):
            data += piece
        if len(data) < n:
            raise ValueError(f"incomplete read: {len(data)} of {n} bytes")
    return bytes(data)


def _chunked(reader) -> bytes:
    chunks = []
    while True:
        line = _line(reader, "chunk size line")
        match = _CHUNK_SIZE.fullmatch(line)
        if match is None:
            raise ValueError(f"invalid literal for a chunk size: {line!r}")
        size = int(match[1], 16)
        if not size:
            break
        chunks.append(_exactly(reader, size))
        _exactly(reader, 2)  # the CRLF after the chunk data
    _fields(reader)  # the trailer section, so that the next reply starts clean
    return b"".join(chunks)


def read_reply(reader) -> tuple[int, dict, bytes, bool]:
    """One reply from a buffered binary reader: (status, headers, body, keep),
    keep saying whether the connection may carry another request."""
    version, status, _, headers = read_head(reader)
    while 100 <= status < 200:  # interim replies (RFC 9110 §15.2)
        if status == 101:
            raise ValueError("unrequested 101 Switching Protocols")
        version, status, _, headers = read_head(reader)
    connection = headers.get("connection")
    keep = version == "HTTP/1.1" and (connection is None or "close" not in [
        token.strip() for token in connection.lower().split(",")])
    if status in (204, 304):  # no body, whatever the headers say (RFC 9112 §6.3)
        return status, headers, b"", keep
    coding = headers.get("transfer-encoding")
    field = headers.get("content-length")
    if coding is not None:  # it overrides Content-Length (RFC 9112 §6.3)
        if coding.lower() != "chunked":
            raise ValueError(f"unsupported Transfer-Encoding {coding!r}")
        return status, headers, _chunked(reader), keep and field is None
    if field is None:  # the body ends with the stream
        return status, headers, reader.read(), False
    if not (field.isascii() and field.isdigit()):  # a list, else refused
        values = {value.strip() for value in field.split(",")}
        if not all(v.isascii() and v.isdigit() for v in values) or len(set(map(int, values))) > 1:
            raise ValueError(f"bad Content-Length {field!r}")
        field = values.pop()
    return status, headers, _exactly(reader, int(field)), keep


def _host_port(netloc: str, default_port: int) -> tuple[str, int]:
    """Host and port of host[:port], as http.client parses them: an empty
    port is the default, IPv6 brackets are removed."""
    host, colon, port = netloc.rpartition(":")
    if not colon or "]" in port:
        host, port = netloc, ""
    if port and not (port.isascii() and port.isdigit()):
        raise ValueError(f"nonnumeric port: '{port}'")
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    return host, int(port) if port else default_port


def _head(start_line: str, fields: dict) -> bytes:
    for name, value in fields.items():
        if "\r" in value or "\n" in value:
            # The value is not shown: it may be a credential.
            raise ValueError(f"header {name} contains CR or LF")
    return (start_line + "\r\n").encode("ascii") + "".join(
        f"{name}: {value}\r\n" for name, value in fields.items()).encode("latin-1") + b"\r\n"


class _Connection:
    """A socket and the one reader over it, kept for the socket's whole
    life so that bytes it has read ahead are never lost."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock):
        self.sock, self.reader = sock, sock.makefile("rb")

    def send(self, request: bytes):
        self.sock.sendall(request)
        if _QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)

    def close(self):
        self.reader.close()
        self.sock.close()


def _proxy(scheme: str, netloc: str) -> str | None:
    """getproxies()[scheme] unless proxy_bypass(netloc), as urllib.request
    answers, or None. Where proxies come only from the environment (not on
    macOS or Windows) and no <scheme>_proxy, in any case, has a value, the
    answer is None without loading urllib.request."""
    if sys.platform != "darwin" and os.name != "nt" and not any(
            value and name.lower() == scheme + "_proxy" for name, value in os.environ.items()):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    return proxy if proxy and not urllib.request.proxy_bypass(netloc) else None


class HttpTransport:
    """The default transport for endpoint_url: called as (url, data,
    headers, timeout), it POSTs data, the encoded JSON body, and returns
    (status, headers, body text) for any HTTP reply, error statuses
    included, so that ApiError can carry the body. The request is the one
    urllib.request sends, byte for byte, User-Agent included, except that
    it does not ask for Connection: close. The head of the last request is
    kept for the next one of the same length, URL and header fields.

    Idle connections wait on a stack guarded by a lock: a request takes
    the most recently used one, or opens a new one, and puts it back once
    a reply has ended in a way that lets the connection carry another
    (see the module docstring). So concurrent callers never share a
    connection, and n of them open at most n. close() closes the idle
    ones; the transport stays usable.

    The proxy is chosen here, once per transport (see _proxy): http_proxy or
    https_proxy by the endpoint's scheme, unless no_proxy lists its host.
    Through a proxy, an http endpoint is asked for by its absolute URL, and an
    https one through a CONNECT tunnel, set up once per connection; credentials
    in the proxy URL go out as Basic Proxy-Authorization. TLS, to an https
    endpoint or proxy, uses one ssl.create_default_context() per transport,
    with ALPN http/1.1. Timeouts raise Timeout; connection, TLS and protocol
    failures raise TransportError.
    """

    def __init__(self, endpoint_url: str):
        scheme, netloc = urlsplit(endpoint_url)[:2]
        address, tunnel, absolute, extra = netloc, None, False, {}
        secure = scheme == "https"
        proxy = _proxy(scheme, netloc)
        if proxy:
            parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address = unquote(parts.netloc.rpartition("@")[2])
            if parts.username and parts.password:
                credentials = f"{unquote(parts.username)}:{unquote(parts.password)}"
                extra["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    credentials.encode()).decode("ascii")
            if secure:
                tunnel, extra = extra, {}
            else:
                absolute, secure = True, parts.scheme == "https"
        self._context = None
        if secure:
            import ssl

            self._context = ssl.create_default_context()
            self._context.set_alpn_protocols(["http/1.1"])
        self._netloc, self._address, self._secure = netloc, address, secure
        self._tunnel, self._absolute, self._extra = tunnel, absolute, extra
        self._user_agent = "Python-urllib/%d.%d" % sys.version_info[:2]
        self._last_head: tuple = (None, None, None, b"")
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()

    def __call__(self, url, data, headers, timeout):
        try:
            # The repetitions of an arm send one head, so the last is kept.
            last = self._last_head
            if last[0] != len(data) or last[1] != url or last[2] != headers:
                path, query = urlsplit(url)[2:4]
                target = url if self._absolute else path + ("?" + query if query else "")
                # urllib's order: its own headers, then the caller's.
                fields = {"Accept-Encoding": "identity", "Content-Length": str(len(data)),
                          "Host": self._netloc, "User-Agent": self._user_agent, **headers,
                          **self._extra}
                last = self._last_head = (len(data), url, dict(headers),
                                          _head(f"POST {target} HTTP/1.1", fields))
            status, reply_headers, body = self._exchange(last[3] + data, timeout)
        except TimeoutError as exc:
            raise Timeout(timeout) from exc
        except (OSError, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        return status, reply_headers, body.decode("utf-8", "replace")

    def close(self):
        with self._lock:
            idle, self._idle = self._idle, []
        for con in idle:
            con.close()

    def _connect(self, timeout: float) -> _Connection:
        host, port = _host_port(self._address, 443 if self._secure else 80)
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                # From here on the peer, TLS server name included, is the endpoint.
                host, port = _host_port(self._netloc, 443)
                authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                sock.sendall(_head(f"CONNECT {authority} HTTP/1.0", self._tunnel))
                with sock.makefile("rb") as reader:
                    _, status, reason, _ = read_head(reader)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} {reason}")
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=host)
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise

    def _exchange(self, request: bytes, timeout: float):
        with self._lock:
            con = self._idle.pop() if self._idle else None
        keep = False
        try:
            if con is not None:
                if con.sock.gettimeout() != timeout:  # each set is a system call
                    con.sock.settimeout(timeout)
                try:
                    con.send(request)
                    stale = not con.reader.peek(1)
                except TimeoutError:
                    raise
                except OSError:
                    stale = True
                if stale:
                    # Closed or reset by the server before any reply byte:
                    # the request goes once more, on a new connection.
                    con.close()
                    con = None
            if con is None:
                con = self._connect(timeout)
                con.send(request)
            status, headers, body, keep = read_reply(con.reader)
        finally:
            if con is not None:
                if keep:
                    with self._lock:
                        self._idle.append(con)
                else:
                    con.close()
        return status, headers, body
