"""The package's one HTTP boundary: JSON POSTs to the embedding service and
the external augmenter.

``post_json`` holds the wire policy both share: retry transient failures a
bounded number of times, then fail fast, since online queries prefer a quick
error over a stalled pipeline. Embedding responses are validated for shape,
type, dimension and finiteness, and returned vectors are unit-normalized.
"""

from __future__ import annotations

import json
import time
import urllib.request
from dataclasses import dataclass
from http.client import HTTPException
from typing import Sequence
from urllib.error import HTTPError
from urllib.parse import urlsplit

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyQuery,
    MalformedResponse,
    NonFiniteValue,
    ProviderUnavailable,
)
from .vectors import ZERO_NORM_EPS, Vector, number_vector

RETRY_BACKOFF_SECONDS = 0.25

# http and https only: no file, data or ftp handler, and no redirect handler,
# so a 3xx reply is an HTTPError like a 4xx. ProxyHandler reads the proxy
# variables once, here. Each call opens one connection (``Connection: close``).
_OPENER = urllib.request.OpenerDirector()
for _handler in (
    urllib.request.ProxyHandler(),
    urllib.request.UnknownHandler(),
    urllib.request.HTTPHandler(),
    urllib.request.HTTPSHandler(),
    urllib.request.HTTPErrorProcessor(),
    urllib.request.HTTPDefaultErrorHandler(),
):
    _OPENER.add_handler(_handler)


@dataclass(frozen=True)
class EmbeddingEndpoint:
    url: str
    expected_dim: int
    timeout_ms: int = 5000
    token: str | None = None

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ConfigError("the embedding timeout must be positive")

    @property
    def timeout(self) -> float:
        return self.timeout_ms / 1000.0

    def headers(self) -> dict[str, str]:
        if self.token:
            return {"Authorization": f"Bearer {self.token}"}
        return {}


def post_json(
    url: str,
    payload: dict,
    timeout: float,
    headers: dict[str, str] | None = None,
    attempts: int = 1,
) -> dict:
    """POST ``payload`` as JSON and return the JSON object the service sent back.

    A URL that does not parse as http or https is refused before any I/O.
    Connection errors, timeouts and 5xx responses are retried, up to
    ``attempts`` tries in all, after ``RETRY_BACKOFF_SECONDS``; any other
    non-2xx reply, 3xx included, fails at once, since resending cannot help.
    All three end in ``ProviderUnavailable``. A body that is not a JSON object
    raises ``MalformedResponse``.
    """
    try:
        scheme = urlsplit(url).scheme
    except ValueError:  # e.g. an unclosed "[" in the host
        scheme = None
    if scheme not in ("http", "https"):
        raise ProviderUnavailable(f"service unreachable: {url!r} is not a valid http(s) URL")
    data = json.dumps(payload).encode()
    headers = {"Content-Type": "application/json", **(headers or {})}
    last_error: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(RETRY_BACKOFF_SECONDS)
        try:
            # A fresh Request per try: ProxyHandler rewrites the one it routes.
            request = urllib.request.Request(url, data, headers, method="POST")
            with _OPENER.open(request, timeout=timeout) as response:
                raw = response.read()
            break
        except HTTPError as exc:
            exc.close()
            if exc.code < 500:
                raise ProviderUnavailable(f"request rejected: {exc}") from None
            last_error = exc
        except (OSError, HTTPException, ValueError) as exc:
            last_error = exc
    else:
        raise ProviderUnavailable(f"service unreachable: {last_error}")
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError):
        raise MalformedResponse(f"{url} returned a non-JSON body") from None
    if not isinstance(body, dict):
        raise MalformedResponse(f"{url} returned JSON that is not an object")
    return body


def embed_text(texts: Sequence[str], endpoint: EmbeddingEndpoint) -> list[Vector]:
    """Embed a batch of texts; embeddings[i] corresponds to texts[i].

    Wire contract: POST ``{"texts": [...]}`` and expect
    ``{"embeddings": [[...], ...]}`` with one row per input text.
    """
    texts = list(texts)
    if not texts:
        raise EmptyQuery("no texts to embed")
    body = post_json(
        endpoint.url, {"texts": texts}, endpoint.timeout, endpoint.headers(), attempts=2
    )
    rows = body.get("embeddings")
    if not isinstance(rows, list) or len(rows) != len(texts):
        raise MalformedResponse(
            f"expected {len(texts)} embeddings, got "
            f"{len(rows) if isinstance(rows, list) else 'none'}"
        )
    out = []
    for i, row in enumerate(rows):
        arr = number_vector(row, f"embedding {i}", MalformedResponse, NonFiniteValue)
        if arr.shape[0] != endpoint.expected_dim:
            raise DimensionMismatch(
                f"embedding {i} has dimension {arr.shape}, expected "
                f"({endpoint.expected_dim},)"
            )
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
        if not ZERO_NORM_EPS < norm < np.inf:
            raise MalformedResponse(f"embedding {i} has a zero or overflowing norm")
        out.append(arr / norm)
    return out
