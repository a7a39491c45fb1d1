import gc
import io
import json
import threading
import urllib.parse
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError, URLError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bend import client
from bend.augment import GENDER, external_augmenter
from bend.client import EmbeddingEndpoint, embed_text
from bend.errors import (
    BendError,
    DimensionMismatch,
    EmptyQuery,
    MalformedResponse,
    NonFiniteValue,
    ProviderUnavailable,
)

DIM = 8

# Rows a misbehaving service might send, each the right length for DIM.
BAD_ROWS = {
    "ragged": [1.0, [2.0]] + [0.0] * (DIM - 2),
    "non-numeric": ["a"] * DIM,
    "numeric-strings": ["1"] * DIM,
    "booleans": [True] * DIM,
    "huge-int": [10**400] + [0.0] * (DIM - 1),
    "zero": [0.0] * DIM,
    "norm-overflow": [1e200] * DIM,
}


class _EmbedHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    calls = 0
    request_headers = None
    # Set when the test ends, so a "slow" handler stops waiting.
    release = threading.Event()

    def do_POST(self):
        type(self).calls += 1
        type(self).request_headers = self.headers
        if self.behavior == "slow":
            self.release.wait(10)
            return
        if self.behavior == "redirect":
            self.send_response(302)
            self.send_header("Location", self.path)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.behavior == "unavailable":
            self.send_response(503)
            self.end_headers()
            return
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
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.calls = 0
    _EmbedHandler.request_headers = None
    _EmbedHandler.release.clear()
    yield EmbeddingEndpoint(
        url=f"http://127.0.0.1:{server.server_port}/embed", expected_dim=DIM
    )
    _EmbedHandler.release.set()
    server.shutdown()
    server.server_close()


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

    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_malformed_row_rejected(self, embed_stub, name):
        endpoint = EmbeddingEndpoint(url=embed_stub(DIM, BAD_ROWS[name]), expected_dim=DIM)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MalformedResponse) as excinfo:
                embed_text(["x"], endpoint)
        assert excinfo.value.exit_code == 5

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

    def test_sends_json_and_bearer_token(self, embed_server):
        _EmbedHandler.behavior = "ok"
        endpoint = EmbeddingEndpoint(url=embed_server.url, expected_dim=DIM, token="s3cret")
        embed_text(["x"], endpoint)
        assert _EmbedHandler.request_headers["Authorization"] == "Bearer s3cret"
        assert _EmbedHandler.request_headers["Content-Type"] == "application/json"

    def test_timeout_retried_once(self, embed_server):
        _EmbedHandler.behavior = "slow"
        endpoint = EmbeddingEndpoint(url=embed_server.url, expected_dim=DIM, timeout_ms=200)
        with pytest.raises(ProviderUnavailable) as excinfo:
            embed_text(["x"], endpoint)
        assert excinfo.value.exit_code == 4
        assert _EmbedHandler.calls == 2

    def test_redirect_not_followed(self, embed_server):
        _EmbedHandler.behavior = "redirect"
        with pytest.raises(ProviderUnavailable) as excinfo:
            embed_text(["x"], embed_server)
        assert excinfo.value.exit_code == 4
        assert str(excinfo.value).startswith("request rejected")
        assert _EmbedHandler.calls == 1

    @pytest.mark.parametrize("behavior", ["bad-request", "unavailable"])
    def test_error_replies_leave_no_open_socket(self, embed_server, behavior):
        _EmbedHandler.behavior = behavior
        gc.collect()  # sockets other tests left behind warn here, not below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ProviderUnavailable):
                embed_text(["x"], embed_server)
            gc.collect()
        assert not [w.message for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("kind", ["file", "data", "ftp", "no-scheme", "bad-host"])
def test_only_http_endpoints_are_called(tmp_path, kind):
    # A reply both services would accept, so only the refusal makes them fail.
    reply = json.dumps(
        {"embeddings": [[1.0] * DIM], "augmented": {v: f"a {v} vet" for v in GENDER.values}}
    )
    (tmp_path / "reply.json").write_text(reply)
    url = {
        "file": (tmp_path / "reply.json").as_uri(),
        "data": "data:application/json," + urllib.parse.quote(reply),
        "ftp": "ftp://127.0.0.1:1/embed",
        "no-scheme": "localhost:1/embed",
        "bad-host": "http://[bad/embed",
    }[kind]
    with pytest.raises(ProviderUnavailable) as excinfo:
        embed_text(["x"], EmbeddingEndpoint(url=url, expected_dim=DIM))
    assert excinfo.value.exit_code == 4
    assert external_augmenter("a photo of a vet", GENDER, url).source == "template-fallback"


# -- any body a service could send ------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.just(10**400),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
numbers = st.floats() | st.integers() | st.sampled_from([0.0, 5e-324, 1e200, 10**400])
valid_rows = st.lists(st.floats(-10, 10), min_size=DIM, max_size=DIM)
odd_rows = st.lists(numbers, min_size=DIM, max_size=DIM) | st.lists(json_values, max_size=DIM + 1)
embed_bodies = st.one_of(
    st.fixed_dictionaries({"embeddings": st.lists(valid_rows, min_size=2, max_size=2)}),
    st.fixed_dictionaries(
        {"embeddings": st.lists(valid_rows | odd_rows, min_size=2, max_size=2)}
    ),
    st.fixed_dictionaries({"embeddings": st.lists(odd_rows, max_size=3) | json_values}),
    json_values,
)
augment_texts = st.text(max_size=6) | json_values
augment_bodies = st.one_of(
    st.fixed_dictionaries(
        {"augmented": st.fixed_dictionaries({"male": st.text(), "female": st.text()})}
    ),
    st.fixed_dictionaries(
        {
            "augmented": st.dictionaries(
                st.sampled_from(["male", "female", "other"]), augment_texts
            )
            | json_values
        }
    ),
    json_values,
)


@st.composite
def replies(draw, bodies):
    """(status, raw body); a None status stands for a refused connection."""
    status = draw(st.sampled_from([200, 200, 200, 200, 404, 503, None]))
    if draw(st.integers(0, 9)) == 0:
        return status, b"not json"
    return status, json.dumps(draw(bodies)).encode()


def fake_open(script):
    """A stand-in for the client's opener that plays back ``script`` in order."""
    script = iter(script)

    def open_(request, timeout=None):
        status, raw = next(script)
        if status is None:
            raise URLError(ConnectionRefusedError("connection refused"))
        if status >= 300:
            raise HTTPError(request.full_url, status, "scripted", None, io.BytesIO(raw))
        return io.BytesIO(raw)

    return open_


@given(script=st.lists(replies(embed_bodies), min_size=2, max_size=2))
def test_embed_text_returns_unit_vectors_or_bend_error(script):
    endpoint = EmbeddingEndpoint(url="http://embedder.test/embed", expected_dim=DIM)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(client, "RETRY_BACKOFF_SECONDS", 0)
        patch.setattr(client._OPENER, "open", fake_open(script))
        try:
            out = embed_text(["a", "b"], endpoint)
        except BendError as exc:
            assert exc.exit_code in (4, 5)
            return
    assert len(out) == 2
    for vec in out:
        assert vec.shape == (DIM,)
        assert np.all(np.isfinite(vec))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@given(reply=replies(augment_bodies))
def test_external_augmenter_never_raises(reply):
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(client._OPENER, "open", fake_open([reply]))
        out = external_augmenter("a photo of a vet", GENDER, "http://augmenter.test/augment")
    assert out.source in ("external", "template-fallback")
    assert set(out.per_value_texts) == set(GENDER.values)
    assert all(isinstance(t, str) and t.strip() for t in out.per_value_texts.values())


def test_body_nested_too_deep_is_malformed():
    endpoint = EmbeddingEndpoint(url="http://embedder.test/embed", expected_dim=DIM)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client._OPENER, "open", fake_open([(200, b"[" * 100_000)]))
        with pytest.raises(MalformedResponse):
            embed_text(["a"], endpoint)
