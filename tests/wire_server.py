"""Reference JSON-over-HTTP inference server used to exercise the remote client,
a forwarding HTTP proxy to put in front of it, and a server of raw response
bytes to pin the client's HTTP framing."""
from __future__ import annotations

import http.client
import json
import re
import select
import socket
import struct
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit


class RawBody:
    """Wrap pre-encoded bytes so a transform can force a non-JSON response,
    optionally with another status and extra headers."""

    def __init__(self, data: bytes, status: int = 200, headers: dict | None = None):
        self.data = data
        self.status = status
        self.headers = headers or {}


# A transform that returns this makes the server close the connection
# without answering.
HANGUP = object()


def wire_doc(backend, method: str, path: str, body: bytes) -> dict | None:
    """``backend``'s answer in the wire protocol to a request with the JSON
    ``body``: a JSON document, or None for an unknown method and path."""
    if (method, path) == ("GET", "/info"):
        info = backend.info
        return {"vocab_size": info.vocab_size, "hidden_dim": info.hidden_dim, "eou_token_id": info.eou_token_id}
    if method != "POST" or path not in ("/forward", "/forward_batch"):
        return None
    req = json.loads(body)
    if path == "/forward_batch":
        hiddens = backend.forward_candidates(req["prefix"], req["candidates"])
        return {"hidden": [[float(x) for x in h] for h in hiddens]}
    want_all = req.get("return_hidden") == "all"
    out = backend.forward(req["tokens"], want_all_hidden=want_all)
    doc = {"probs": [float(x) for x in out.probs], "hidden_last": [float(x) for x in out.hidden_last]}
    if want_all:
        doc["hidden_all"] = [[float(x) for x in h] for h in out.hidden_all]
    return doc


class BackendHTTPServer:
    """Serves a Backend over the wire protocol on an ephemeral localhost port.

    ``transform(path, doc)`` may rewrite any response document (or return a
    RawBody or HANGUP) to simulate misbehaving servers; ``delay`` sleeps
    before answering, for timeout tests. ``requests`` counts the requests
    served, by path, and ``request_headers`` holds each one's headers.

    By default the server speaks HTTP/1.0 and closes every connection after
    one response. With ``keep_alive`` it speaks HTTP/1.1 and keeps them open;
    ``connections`` counts the connections accepted, and ``drop()`` closes the
    open ones. With ``tls``, an ``ssl.SSLContext``, it serves HTTPS.
    """

    def __init__(self, backend, transform=None, delay: float = 0.0, keep_alive: bool = False, tls=None):
        self.requests: Counter = Counter()
        self.request_headers: list[dict] = []
        self.connections = 0
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._backend = backend
        self._transform = transform or (lambda path, doc: doc)
        self._delay = delay
        self._keep_alive = keep_alive
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._scheme = "http"
        if tls is not None:
            self._httpd.socket = tls.wrap_socket(self._httpd.socket, server_side=True)
            self._scheme = "https"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self._scheme}://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._shut_open_connections()
        self._httpd.server_close()

    def drop(self) -> None:
        """Close every open connection, as a server does with idle ones, and
        wait until their handlers have finished."""
        self._shut_open_connections()
        deadline = time.monotonic() + 5.0
        while self._open:
            if time.monotonic() > deadline:
                raise RuntimeError("open connections did not close")
            time.sleep(0.005)

    def _shut_open_connections(self) -> None:
        with self._lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _count(self, path: str, headers) -> None:
        with self._lock:
            self.requests[path] += 1
            self.request_headers.append(dict(headers))

    def _handler_class(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            if outer._keep_alive:
                protocol_version = "HTTP/1.1"
                # The headers and the body go out in two writes; with Nagle's
                # algorithm on, the body waits ~40 ms for the client's
                # delayed ACK on every kept-alive request.
                disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1
                    outer._open.add(self.connection)

            def handle(self):
                try:
                    super().handle()
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client hung up, as it does after a timeout

            def finish(self):
                with outer._lock:
                    outer._open.discard(self.connection)
                super().finish()

            def log_message(self, *args):
                pass

            def _respond(self, doc):
                doc = outer._transform(self.path, doc)
                if outer._delay:
                    time.sleep(outer._delay)
                if doc is HANGUP:
                    self.close_connection = True
                    return
                raw = doc if isinstance(doc, RawBody) else RawBody(json.dumps(doc).encode())
                self.send_response(raw.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw.data)))
                for name, value in raw.headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(raw.data)

            def do_GET(self):
                self._answer(b"")

            def do_POST(self):
                self._answer(self.rfile.read(int(self.headers.get("Content-Length", "0"))))

            def _answer(self, body: bytes):
                outer._count(self.path, self.headers)
                doc = wire_doc(outer._backend, self.command, self.path, body)
                if doc is None:
                    self.send_error(404)
                    return
                self._respond(doc)

        return Handler


class ForwardingProxy:
    """A plain-HTTP forward proxy on an ephemeral localhost port.

    It forwards each absolute-form request to its target and relays the
    answer, and tunnels a CONNECT request's bytes both ways. ``targets``
    holds each request's target as received, and ``proxy_authorization`` its
    Proxy-Authorization header (or None).
    """

    def __init__(self):
        self.targets: list[str] = []
        self.proxy_authorization: list[str | None] = []
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()

    def _handler_class(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _forward(self):
                outer.targets.append(self.path)
                outer.proxy_authorization.append(self.headers.get("Proxy-Authorization"))
                target = urlsplit(self.path)
                if target.scheme != "http":
                    self.send_error(400, "absolute http:// target expected")
                    return
                body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
                headers = {k: v for k, v in self.headers.items() if k.lower() != "proxy-authorization"}
                upstream = http.client.HTTPConnection(target.hostname, target.port, timeout=10)
                try:
                    upstream.request(self.command, target.path, body or None, headers)
                    response = upstream.getresponse()
                    data = response.read()
                finally:
                    upstream.close()
                self.send_response(response.status)
                self.send_header("Content-Type", response.getheader("Content-Type", "application/json"))
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = _forward

            def do_CONNECT(self):
                outer.targets.append(self.path)
                outer.proxy_authorization.append(self.headers.get("Proxy-Authorization"))
                host, _, port = self.path.rpartition(":")
                with socket.create_connection((host, int(port)), timeout=10) as upstream:
                    self.send_response(200)
                    self.end_headers()
                    peers = {self.connection: upstream, upstream: self.connection}
                    while True:
                        readable, _, _ = select.select(list(peers), [], [], 10)
                        if not readable:
                            return
                        for sock in readable:
                            data = sock.recv(65536)
                            if not data:
                                return
                            peers[sock].sendall(data)

        return Handler


class RawServer:
    """An HTTP server of raw bytes on an ephemeral localhost port, to pin a
    client's framing byte by byte.

    ``answer(method, path, body)`` returns the bytes to send for a request,
    and whether to close the connection after them: False, True, or
    ``"reset"`` to abort it with a TCP reset. ``path`` is the target's path,
    also when the target is an absolute URL. ``requests`` holds each
    request's bytes, its head and body, as received, and ``connections``
    counts the connections accepted. Each connection has its own thread.
    """

    def __init__(self, answer):
        self.requests: list[bytes] = []
        self.connections = 0
        self._answer = answer
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._open: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._acceptor = threading.Thread(target=self._accept, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._listener.getsockname()
        return f"http://{host}:{port}"

    def __enter__(self):
        self._acceptor.start()
        return self

    def __exit__(self, *exc):
        self._stopping = True
        socket.create_connection(self._listener.getsockname(), timeout=5).close()  # wakes accept()
        self._acceptor.join(timeout=10)
        self._listener.close()
        with self._lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for thread in self._threads:
            thread.join(timeout=10)
        if self._acceptor.is_alive() or any(t.is_alive() for t in self._threads):
            raise RuntimeError("raw server threads did not stop")

    def _accept(self) -> None:
        while True:
            conn, _ = self._listener.accept()
            if self._stopping:
                conn.close()
                return
            with self._lock:
                self.connections += 1
                self._open.add(conn)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(10)
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(65536)
                    if not data:
                        return
                    buf += data
                head, _, buf = buf.partition(b"\r\n\r\n")
                length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
                length = int(length[1]) if length else 0
                while len(buf) < length:
                    data = conn.recv(65536)
                    if not data:
                        return
                    buf += data
                body, buf = buf[:length], buf[length:]
                with self._lock:
                    self.requests.append(head + b"\r\n\r\n" + body)
                method, target = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ")[:2]
                data, close = self._answer(method, urlsplit(target).path, body)
                conn.sendall(data)
                if close == "reset":  # a zero linger time makes close() send a reset
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                if close:
                    return
        except OSError:
            pass  # the client hung up, or the server is stopping
        finally:
            with self._lock:
                self._open.discard(conn)
            conn.close()
