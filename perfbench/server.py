"""Local embed and augment endpoints for the text workload.

Speaks HTTP/1.1 with keep-alive, so a client that reuses connections can
show it, and counts the connections it accepts and the requests it serves:

    POST /embed    {"texts": [...]}          -> {"embeddings": [[...], ...]}
    POST /augment  {"text", "attribute", "values"} -> {"augmented": {value: text}}
    GET  /stats    -> {"connections", "embed", "augment"}

Embeddings are deterministic: a unit Gaussian vector seeded by the SHA-256 of
the text. Rewrites insert the value before the subject of "a photo of a ...".

    python3 perfbench/server.py --dim 64 --port 0

prints ``READY <port>`` once it accepts connections and serves until
terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

PHOTO_PREFIX = "a photo of a "


def hash_embedding(text: str, dim: int) -> list[float]:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    vec = np.random.default_rng(int.from_bytes(digest[:8], "little")).standard_normal(dim)
    return (vec / np.linalg.norm(vec)).tolist()


def rewrite(text: str, value: str) -> str:
    if text.startswith(PHOTO_PREFIX):
        return f"{PHOTO_PREFIX}{value} {text[len(PHOTO_PREFIX):]}"
    return f"{value} {text}"


class CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, dim: int):
        super().__init__(address, Handler)
        self.dim = dim
        self.lock = threading.Lock()
        self.stats = {"connections": 0, "embed": 0, "augment": 0}

    def bump(self, key: str) -> None:
        with self.lock:
            self.stats[key] += 1

    def get_request(self):
        conn = super().get_request()
        self.bump("connections")
        return conn


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: CountingServer

    def _reply(self, payload: dict, status: int = 200) -> None:
        blob = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):
        if self.path.rstrip("/") == "/stats":
            with self.server.lock:
                self._reply(dict(self.server.stats))
        else:
            self._reply({"error": "not found"}, 404)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        route = self.path.rstrip("/")
        if route == "/augment":
            self.server.bump("augment")
            self._reply({"augmented": {v: rewrite(body["text"], v) for v in body["values"]}})
        elif route == "/embed":
            self.server.bump("embed")
            self._reply({"embeddings": [hash_embedding(t, self.server.dim) for t in body["texts"]]})
        else:
            self._reply({"error": "not found"}, 404)

    def log_message(self, fmt, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    server = CountingServer(("127.0.0.1", args.port), args.dim)
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
