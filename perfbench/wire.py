"""HTTP/1.1 keep-alive wire server for the remote-ips workload.

It speaks the JSON protocol that ``ipsearch.backend.RemoteBackend`` expects
(``GET /info``, ``POST /forward``, ``POST /forward_batch``) from one server
thread. HTTP/1.1 keeps the client's single pooled connection open for the
whole run, so the benchmark times requests rather than TCP connection set-up.
The server counts its own compute time and response bytes; only the server
thread writes those counters, and the client reads them while no request is
in flight.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter


class WireServer:
    def __init__(self, backend):
        self.backend = backend
        self.requests = 0  # /forward and /forward_batch only
        self.compute_s = 0.0
        self.response_bytes = 0
        self.connections = 0
        self._httpd = HTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving. Close the client's connection first, or this waits
        for the handler's idle timeout."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("wire server thread did not stop")

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            timeout = 5  # an idle keep-alive connection is dropped after this

            def setup(self):
                super().setup()
                server.connections += 1

            def log_message(self, *args):
                pass

            def _send(self, doc, t0=None):
                body = json.dumps(doc).encode()
                if t0 is not None:
                    server.compute_s += perf_counter() - t0
                    server.response_bytes += len(body)
                    server.requests += 1
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path != "/info":
                    self.send_error(404)
                    return
                info = server.backend.info
                self._send(
                    {
                        "vocab_size": info.vocab_size,
                        "hidden_dim": info.hidden_dim,
                        "eou_token_id": info.eou_token_id,
                    }
                )

            def do_POST(self):
                req = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
                t0 = perf_counter()
                if self.path == "/forward":
                    want_all = req.get("return_hidden") == "all"
                    out = server.backend.forward(req["tokens"], want_all_hidden=want_all)
                    doc = {"probs": out.probs.tolist(), "hidden_last": out.hidden_last.tolist()}
                    if want_all:
                        doc["hidden_all"] = [h.tolist() for h in out.hidden_all]
                    self._send(doc, t0)
                elif self.path == "/forward_batch":
                    hiddens = server.backend.forward_candidates(req["prefix"], req["candidates"])
                    self._send({"hidden": [h.tolist() for h in hiddens]}, t0)
                else:
                    self.send_error(404)

        return Handler
