"""Reference JSON-over-HTTP inference server used to exercise the remote client."""
from __future__ import annotations

import json
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class RawBody:
    """Wrap pre-encoded bytes so a transform can force a non-JSON response."""

    def __init__(self, data: bytes):
        self.data = data


class BackendHTTPServer:
    """Serves a Backend over the wire protocol on an ephemeral localhost port.

    ``transform(path, doc)`` may rewrite any response document (or return a
    RawBody) to simulate misbehaving servers; ``delay`` sleeps before
    answering, for timeout tests. ``requests`` counts the requests served,
    by path.
    """

    def __init__(self, backend, transform=None, delay: float = 0.0):
        self.requests: Counter = Counter()
        self._lock = threading.Lock()
        self._backend = backend
        self._transform = transform or (lambda path, doc: doc)
        self._delay = delay
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

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

    def _count(self, path: str) -> None:
        with self._lock:
            self.requests[path] += 1

    def _handler_class(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _respond(self, doc):
                doc = outer._transform(self.path, doc)
                if outer._delay:
                    time.sleep(outer._delay)
                body = doc.data if isinstance(doc, RawBody) else json.dumps(doc).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                outer._count(self.path)
                if self.path != "/info":
                    self.send_error(404)
                    return
                info = outer._backend.info
                self._respond(
                    {
                        "vocab_size": info.vocab_size,
                        "hidden_dim": info.hidden_dim,
                        "eou_token_id": info.eou_token_id,
                    }
                )

            def do_POST(self):
                outer._count(self.path)
                length = int(self.headers.get("Content-Length", "0"))
                req = json.loads(self.rfile.read(length))
                if self.path == "/forward":
                    want_all = req.get("return_hidden") == "all"
                    out = outer._backend.forward(req["tokens"], want_all_hidden=want_all)
                    doc = {
                        "probs": [float(x) for x in out.probs],
                        "hidden_last": [float(x) for x in out.hidden_last],
                    }
                    if want_all:
                        doc["hidden_all"] = [[float(x) for x in h] for h in out.hidden_all]
                    self._respond(doc)
                elif self.path == "/forward_batch":
                    hiddens = outer._backend.forward_candidates(req["prefix"], req["candidates"])
                    self._respond({"hidden": [[float(x) for x in h] for h in hiddens]})
                else:
                    self.send_error(404)

        return Handler
