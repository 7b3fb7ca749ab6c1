"""HTTP/1.1 for live runs: one POST per connection, on a plain or TLS socket.

An exchange writes the request head and body in one sendall (Connection:
close) and reads one reply with http.client's bounds: a status line, then
at most 100 header lines of at most 65 536 bytes each. A 100 Continue head
is skipped; the body is taken by chunked coding, by Content-Length, or up
to the end of the stream.

llm imports this module on first live use, so that `import comdb`,
offline commands and --mock runs never load it, ssl or urllib.request.
"""

from __future__ import annotations

import base64
import json
import socket
import ssl
import urllib.request
from urllib.parse import unquote, urlsplit

from .errors import Timeout, TransportError

MAX_LINE = 65536
MAX_HEADERS = 100


class Headers(dict):
    """Reply header fields under their lower-cased names, the first of
    each name kept; get() takes a name in any case."""

    __slots__ = ()

    def get(self, name, default=None):
        return dict.get(self, name.lower(), default)


def _line(reader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ValueError(f"{what} longer than {MAX_LINE} bytes")
    return line


def read_head(reader) -> tuple[int, str, Headers]:
    """The status code, reason and header fields of one reply head."""
    line = _line(reader, "status line")
    if not line:
        raise ConnectionResetError("remote end closed connection without response")
    version, status, reason = (line.decode("iso-8859-1").split(None, 2) + ["", ""])[:3]
    if not (version.startswith("HTTP/1.") and status.isascii() and status.isdigit()
            and 100 <= int(status) <= 999):
        raise ValueError(f"bad status line {line!r}")
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = _line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            return int(status), reason.strip(), headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if colon:
            headers.setdefault(name.strip().lower(), value.strip())
    raise ValueError(f"more than {MAX_HEADERS} header lines")


def _exactly(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) < n:
        raise ValueError(f"incomplete read: {len(data)} of {n} bytes")
    return data


def _chunked(reader) -> bytes:
    chunks = []
    while True:
        size = int(_line(reader, "chunk size line").partition(b";")[0], 16)
        if size < 0:
            raise ValueError(f"negative chunk size {size}")
        if not size:
            break
        chunks.append(_exactly(reader, size))
        _exactly(reader, 2)  # the CRLF after the chunk data
    return b"".join(chunks)  # the trailer, if any, is left unread with the connection


def read_reply(reader) -> tuple[int, Headers, bytes]:
    """One reply from a buffered binary reader: (status, headers, body)."""
    status, _, headers = read_head(reader)
    while status == 100:
        status, _, headers = read_head(reader)
    if (headers.get("transfer-encoding") or "").lower() == "chunked":
        return status, headers, _chunked(reader)
    try:
        length = int(headers.get("content-length"))
    except (TypeError, ValueError):  # absent or malformed: read to the end
        length = -1
    return status, headers, reader.read() if length < 0 else _exactly(reader, length)


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


def http_transport(endpoint_url: str):
    """The default transport for endpoint_url: a function that POSTs payload
    as JSON over a new connection (Connection: close) and returns (status,
    headers, body text) for any HTTP reply, error statuses included, so
    that ApiError can carry the body. The request is the one urllib.request
    sends, byte for byte, User-Agent included.

    The proxy is chosen here, once per client: http_proxy or https_proxy by
    the endpoint's scheme (or the platform's proxy settings), unless
    no_proxy lists its host. Through a proxy, an http endpoint is asked for
    by its absolute URL, and an https one through a CONNECT tunnel;
    credentials in the proxy URL go out as Basic Proxy-Authorization. TLS,
    to an https endpoint or proxy, uses one ssl.create_default_context()
    per client, with ALPN http/1.1. Timeouts raise Timeout; connection, TLS
    and protocol failures raise TransportError.
    """
    scheme, netloc = urlsplit(endpoint_url)[:2]
    address, tunnel, absolute, extra = netloc, None, False, {}
    secure = scheme == "https"
    proxy = urllib.request.getproxies().get(scheme)
    if proxy and not urllib.request.proxy_bypass(netloc):
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
    context = None
    if secure:
        context = ssl.create_default_context()
        context.set_alpn_protocols(["http/1.1"])
    user_agent = f"Python-urllib/{urllib.request.__version__}"

    def exchange(request: bytes, timeout: float):
        host, port = _host_port(address, 443 if secure else 80)
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tunnel is not None:
                # From here on the peer, TLS server name included, is the endpoint.
                host, port = _host_port(netloc, 443)
                authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                sock.sendall(_head(f"CONNECT {authority} HTTP/1.0", tunnel))
                with sock.makefile("rb") as reader:
                    status, reason, _ = read_head(reader)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} {reason}")
            if context is not None:
                sock = context.wrap_socket(sock, server_hostname=host)
            sock.sendall(request)
            with sock.makefile("rb") as reader:
                return read_reply(reader)
        finally:
            sock.close()

    def transport(url, payload, headers, timeout):
        data = json.dumps(payload).encode("utf-8")
        path, query = urlsplit(url)[2:4]
        target = url if absolute else path + ("?" + query if query else "")
        # urllib's order: its own headers, the caller's, then Connection.
        fields = {"Accept-Encoding": "identity", "Content-Length": str(len(data)),
                  "Host": netloc, "User-Agent": user_agent, **headers, **extra,
                  "Connection": "close"}
        try:
            status, reply_headers, body = exchange(
                _head(f"POST {target} HTTP/1.1", fields) + data, timeout)
        except TimeoutError as exc:
            raise Timeout(timeout) from exc
        except (OSError, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        return status, reply_headers, body.decode("utf-8", "replace")

    return transport
