import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from bend.client import EmbeddingEndpoint, embed_text
from bend.errors import (
    DimensionMismatch,
    EmptyQuery,
    MalformedResponse,
    NonFiniteValue,
    ProviderUnavailable,
)

DIM = 8


class _EmbedHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    calls = 0

    def do_POST(self):
        type(self).calls += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        texts = body["texts"]
        if self.behavior == "wrong-dim":
            rows = [[1.0] * (DIM + 2) for _ in texts]
        elif self.behavior == "nan":
            rows = [[float("nan")] * DIM for _ in texts]
        elif self.behavior == "short":
            rows = [[1.0] * DIM]
        elif self.behavior == "flaky" and type(self).calls == 1:
            self.send_response(503)
            self.end_headers()
            return
        elif self.behavior == "bad-request":
            self.send_response(400)
            self.end_headers()
            return
        else:
            # index-tagged vectors so ordering is verifiable
            rows = []
            for i, _ in enumerate(texts):
                row = [0.0] * DIM
                row[i % DIM] = float(i + 1)
                rows.append(row)
        blob = json.dumps({"embeddings": rows}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.calls = 0
    yield EmbeddingEndpoint(
        url=f"http://127.0.0.1:{server.server_port}/embed", expected_dim=DIM
    )
    server.shutdown()


class TestEmbedText:
    def test_batch_preserves_order(self, embed_server):
        _EmbedHandler.behavior = "ok"
        out = embed_text(["first", "second", "third"], embed_server)
        assert len(out) == 3
        for i, vec in enumerate(out):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
            assert int(np.argmax(np.abs(vec))) == i % DIM

    def test_dim_mismatch(self, embed_server):
        _EmbedHandler.behavior = "wrong-dim"
        with pytest.raises(DimensionMismatch):
            embed_text(["x"], embed_server)

    def test_nan_rejected(self, embed_server):
        _EmbedHandler.behavior = "nan"
        with pytest.raises(NonFiniteValue):
            embed_text(["x"], embed_server)

    def test_short_response_rejected(self, embed_server):
        _EmbedHandler.behavior = "short"
        with pytest.raises(MalformedResponse):
            embed_text(["x", "y"], embed_server)

    def test_retry_then_success(self, embed_server):
        _EmbedHandler.behavior = "flaky"
        out = embed_text(["x"], embed_server)
        assert len(out) == 1
        assert _EmbedHandler.calls == 2

    def test_client_error_not_retried(self, embed_server):
        _EmbedHandler.behavior = "bad-request"
        with pytest.raises(ProviderUnavailable) as excinfo:
            embed_text(["x"], embed_server)
        assert excinfo.value.exit_code == 4
        assert _EmbedHandler.calls == 1

    def test_unreachable(self):
        endpoint = EmbeddingEndpoint(
            url="http://127.0.0.1:1/embed", expected_dim=DIM, timeout_ms=200
        )
        with pytest.raises(ProviderUnavailable):
            embed_text(["x"], endpoint)

    def test_empty_batch_rejected(self, embed_server):
        with pytest.raises(EmptyQuery):
            embed_text([], embed_server)
