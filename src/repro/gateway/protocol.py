"""OpenAI-style completion protocol: request parsing and response shaping.

The gateway speaks a subset of the OpenAI *completions* wire format so any
OpenAI-compatible client can drive the engine:

* ``POST /v1/completions`` with a JSON body; ``prompt`` is either a string
  (encoded with the gateway's tokenizer and folded into the model's
  vocabulary) or a list of token ids (the native currency of the synthetic
  models in this repo).
* ``stream: true`` selects server-sent events — one ``data:`` JSON chunk per
  decoded token, then a final chunk carrying ``finish_reason`` and the
  ``data: [DONE]`` sentinel.

Beyond the OpenAI subset the body accepts repo extensions: ``tier`` (quality
tier name, existence checked by the engine), ``priority`` (``"interactive"``
/ ``"best_effort"`` serving class, validated here against
:data:`~repro.serving.request.PRIORITIES`) and ``tenant`` (opaque
accounting tag, ≤ 64 chars).

Everything here is pure data shaping: no I/O, no engine access.  Validation
errors raise :class:`ProtocolError` with the HTTP status the server should
return, so malformed requests are rejected before they reach a replica.
Capacity refusals are *not* protocol errors: the server maps the engine's
:class:`~repro.serving.scheduler.QueueFullError` /
:class:`~repro.serving.scheduler.SloCapacityError` to HTTP 429 with a
``Retry-After`` header after parsing succeeds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.serving.request import PRIORITIES, FinishReason, GenerationRequest

#: SSE terminal sentinel, exactly as the OpenAI streaming API sends it.
SSE_DONE = b"data: [DONE]\n\n"

#: Upper bound a single request may ask for; guards against a client tying a
#: replica slot to one request forever.
MAX_TOKENS_LIMIT = 4096
_MAX_TOKEN_ID = int(np.iinfo(np.int64).max)

_FINISH_LABELS = {
    FinishReason.LENGTH: "length",
    FinishReason.STOP_TOKEN: "stop",
    FinishReason.CONTEXT_FULL: "context_full",
    FinishReason.CANCELLED: "cancelled",
    FinishReason.ERROR: "error",
}


class ProtocolError(ValueError):
    """A malformed API request; carries the HTTP status to respond with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def finish_reason_label(reason: Optional[FinishReason]) -> Optional[str]:
    """Wire-format string for an engine finish reason (``None`` passes through)."""
    if reason is None:
        return None
    return _FINISH_LABELS[reason]


@dataclass
class CompletionRequest:
    """One parsed ``/v1/completions`` body."""

    prompt_ids: np.ndarray
    max_tokens: int = 16
    stream: bool = False
    stop_token_id: Optional[int] = None
    seed: Optional[int] = None
    tier: Optional[str] = None
    priority: str = "interactive"
    tenant: Optional[str] = None
    model: str = "repro-million"
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_json(
        cls,
        payload: Any,
        *,
        tokenizer=None,
        vocab_size: Optional[int] = None,
    ) -> "CompletionRequest":
        """Parse and validate a decoded JSON body.

        ``tokenizer`` + ``vocab_size`` turn string prompts into folded token
        ids; token-id prompts are validated against ``vocab_size`` directly.
        """
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        prompt = payload.get("prompt")
        if prompt is None:
            raise ProtocolError("missing required field 'prompt'")
        prompt_ids = _parse_prompt(prompt, tokenizer=tokenizer, vocab_size=vocab_size)

        max_tokens = payload.get("max_tokens", 16)
        if not isinstance(max_tokens, int) or isinstance(max_tokens, bool):
            raise ProtocolError("'max_tokens' must be an integer")
        if not 1 <= max_tokens <= MAX_TOKENS_LIMIT:
            raise ProtocolError(
                f"'max_tokens' must be in [1, {MAX_TOKENS_LIMIT}], got {max_tokens}"
            )

        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError("'stream' must be a boolean")

        stop_token_id = payload.get("stop_token_id")
        if stop_token_id is not None:
            if not isinstance(stop_token_id, int) or isinstance(stop_token_id, bool):
                raise ProtocolError("'stop_token_id' must be an integer token id")

        seed = payload.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ProtocolError("'seed' must be an integer")

        tier = payload.get("tier")
        if tier is not None and (not isinstance(tier, str) or tier == ""):
            raise ProtocolError(
                "'tier' must be a non-empty string naming a quality tier "
                '(e.g. "quality", "balanced", "compact")'
            )

        priority = payload.get("priority", "interactive")
        if priority not in PRIORITIES:
            raise ProtocolError(
                f"'priority' must be one of {list(PRIORITIES)}, got {priority!r}"
            )

        tenant = payload.get("tenant")
        if tenant is not None and (
            not isinstance(tenant, str) or not 0 < len(tenant) <= 64
        ):
            raise ProtocolError(
                "'tenant' must be a non-empty string of at most 64 characters"
            )

        return cls(
            prompt_ids=prompt_ids,
            max_tokens=max_tokens,
            stream=stream,
            stop_token_id=stop_token_id,
            seed=seed,
            tier=tier,
            priority=priority,
            tenant=tenant,
            model=str(payload.get("model", "repro-million")),
        )

    def to_generation_request(self) -> GenerationRequest:
        """Engine-side request (ids are always gateway-assigned).

        ``tier`` passes through verbatim; whether the tier exists is the
        engine's call (it raises at submission, which the server maps to a
        400), so the protocol layer stays configuration-agnostic.
        ``priority`` is validated here against :data:`PRIORITIES` (unknown
        classes never reach a replica) and ``tenant`` passes through as an
        opaque accounting tag.
        """
        return GenerationRequest(
            prompt_ids=self.prompt_ids,
            max_new_tokens=self.max_tokens,
            stop_token=self.stop_token_id,
            seed=self.seed,
            tier=self.tier,
            priority=self.priority,
            tenant=self.tenant,
        )


def _parse_prompt(prompt: Any, *, tokenizer, vocab_size: Optional[int]) -> np.ndarray:
    if isinstance(prompt, str):
        if tokenizer is None:
            raise ProtocolError(
                "string prompts need a tokenizer; send a list of token ids"
            )
        if not prompt:
            raise ProtocolError("'prompt' must not be empty")
        ids = np.asarray(tokenizer.encode(prompt, add_bos=False), dtype=np.int64)
        if vocab_size is not None:
            # The synthetic zoo models have tiny vocabularies; fold the
            # tokenizer's id space into them the same way the examples do.
            ids = ids % vocab_size
        return ids
    if isinstance(prompt, (list, tuple)):
        if not prompt:
            raise ProtocolError("'prompt' must not be empty")
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in prompt):
            raise ProtocolError("'prompt' list must contain only integer token ids")
        # Range-check the Python ints first: converting one outside int64
        # raises OverflowError, which is the client's error, not the server's.
        if min(prompt) < 0:
            raise ProtocolError("'prompt' token ids must be non-negative")
        top = max(prompt)
        if vocab_size is not None and top >= vocab_size:
            raise ProtocolError(
                f"'prompt' token id {top} is outside the model "
                f"vocabulary (size {vocab_size})"
            )
        if top > _MAX_TOKEN_ID:
            raise ProtocolError(f"'prompt' token id {top} does not fit in int64")
        return np.asarray(prompt, dtype=np.int64)
    raise ProtocolError("'prompt' must be a string or a list of token ids")


# Response shaping -----------------------------------------------------------


def _decode(tokenizer, token_ids: Sequence[int]) -> str:
    if tokenizer is None:
        return ""
    return tokenizer.decode(list(token_ids))


def completion_json(
    request_id: str,
    request: CompletionRequest,
    token_ids: Sequence[int],
    finish_reason: Optional[FinishReason],
    *,
    tokenizer=None,
) -> dict:
    """Full (non-streaming) completion response body."""
    prompt_tokens = int(request.prompt_ids.size)
    completion_tokens = len(token_ids)
    return {
        "id": f"cmpl-{request_id}",
        "object": "text_completion",
        "created": int(time.time()),
        "model": request.model,
        "choices": [
            {
                "index": 0,
                "text": _decode(tokenizer, token_ids),
                "token_ids": [int(t) for t in token_ids],
                "finish_reason": finish_reason_label(finish_reason),
            }
        ],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }


def chunk_json(
    request_id: str,
    request: CompletionRequest,
    token_id: Optional[int],
    finish_reason: Optional[FinishReason],
    *,
    tokenizer=None,
) -> dict:
    """One SSE streaming chunk (one token, or the final finish marker)."""
    return {
        "id": f"cmpl-{request_id}",
        "object": "text_completion.chunk",
        "created": int(time.time()),
        "model": request.model,
        "choices": [
            {
                "index": 0,
                "text": _decode(tokenizer, [token_id]) if token_id is not None else "",
                "token_id": int(token_id) if token_id is not None else None,
                "finish_reason": finish_reason_label(finish_reason),
            }
        ],
    }


def sse_event(body: dict) -> bytes:
    """Encode one JSON object as a server-sent-events ``data:`` frame."""
    return b"data: " + json.dumps(body, separators=(",", ":")).encode() + b"\n\n"


__all__ = [
    "CompletionRequest",
    "MAX_TOKENS_LIMIT",
    "ProtocolError",
    "SSE_DONE",
    "chunk_json",
    "completion_json",
    "finish_reason_label",
    "sse_event",
]
