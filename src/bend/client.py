"""HTTP client for an external text-embedding service.

One retry with a short backoff, then fail fast: online queries prefer a
quick error over a stalled pipeline. Responses are validated for dimension
and finiteness, and returned vectors are unit-normalized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import requests

from .errors import (
    DimensionMismatch,
    EmptyQuery,
    MalformedResponse,
    NonFiniteValue,
    ProviderUnavailable,
)
from .vectors import Vector, normalize

RETRY_BACKOFF_SECONDS = 0.25


@dataclass(frozen=True)
class EmbeddingEndpoint:
    url: str
    expected_dim: int
    timeout_ms: int = 5000
    token: str | None = None

    @property
    def timeout(self) -> float:
        return self.timeout_ms / 1000.0

    def headers(self) -> dict[str, str]:
        if self.token:
            return {"Authorization": f"Bearer {self.token}"}
        return {}


def embed_text(texts: Sequence[str], endpoint: EmbeddingEndpoint) -> list[Vector]:
    """Embed a batch of texts; embeddings[i] corresponds to texts[i].

    Wire contract: POST ``{"texts": [...]}`` and expect
    ``{"embeddings": [[...], ...]}`` with one row per input text.
    """
    texts = list(texts)
    if not texts:
        raise EmptyQuery("no texts to embed")
    last_error: Exception | None = None
    for attempt in range(2):
        if attempt:
            time.sleep(RETRY_BACKOFF_SECONDS)
        try:
            response = requests.post(
                endpoint.url,
                json={"texts": texts},
                timeout=endpoint.timeout,
                headers=endpoint.headers(),
            )
            response.raise_for_status()
            break
        except requests.HTTPError as exc:
            if exc.response.status_code < 500:  # a 4xx: resending cannot help
                raise ProviderUnavailable(f"embedding request rejected: {exc}") from None
            last_error = exc
        except requests.RequestException as exc:
            last_error = exc
    else:
        raise ProviderUnavailable(f"embedding service unreachable: {last_error}")

    try:
        body = response.json()
    except ValueError:
        raise MalformedResponse("embedding service returned a non-JSON body") from None
    rows = body.get("embeddings") if isinstance(body, dict) else None
    if not isinstance(rows, list) or len(rows) != len(texts):
        raise MalformedResponse(
            f"expected {len(texts)} embeddings, got "
            f"{len(rows) if isinstance(rows, list) else 'none'}"
        )
    out = []
    for i, row in enumerate(rows):
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != endpoint.expected_dim:
            raise DimensionMismatch(
                f"embedding {i} has dimension {arr.shape}, expected "
                f"({endpoint.expected_dim},)"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"embedding {i} contains non-finite values")
        out.append(normalize(arr))
    return out
