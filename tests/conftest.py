import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

# No shrink or explain phase: shrinking re-runs the test body on every smaller
# candidate, which for a failing evaluate property takes minutes, not seconds.
settings.register_profile(
    "bend",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
settings.load_profile("bend")


@pytest.fixture
def rng():
    return np.random.default_rng(20240531)


def hash_embedding(text: str, dim: int) -> list[float]:
    """Deterministic pseudo-embedding derived from the text digest."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    vec = np.random.default_rng(seed).standard_normal(dim)
    return (vec / np.linalg.norm(vec)).tolist()


def _make_embed_handler(dim, row):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            rows = [row or hash_embedding(text, dim) for text in body["texts"]]
            blob = json.dumps({"embeddings": rows}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def embed_stub():
    """Factory: start a deterministic hash-embedding HTTP stub for a dim.

    A given ``row`` is sent back for every text instead.
    """
    servers = []

    def start(dim: int, row: list | None = None) -> str:
        server = HTTPServer(("127.0.0.1", 0), _make_embed_handler(dim, row))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/embed"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
