"""Protocol-layer tests: request parsing, response shaping, SSE framing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gateway.protocol import (
    SSE_DONE,
    CompletionRequest,
    ProtocolError,
    chunk_json,
    completion_json,
    finish_reason_label,
    sse_event,
)
from repro.models.tokenizer import ByteTokenizer
from repro.serving.request import FinishReason


class TestCompletionRequestParsing:
    def test_token_id_prompt(self):
        request = CompletionRequest.from_json(
            {"prompt": [1, 2, 3], "max_tokens": 4, "stream": True, "seed": 9},
            vocab_size=128,
        )
        np.testing.assert_array_equal(request.prompt_ids, [1, 2, 3])
        assert request.max_tokens == 4 and request.stream and request.seed == 9

    def test_string_prompt_folds_into_vocab(self):
        request = CompletionRequest.from_json(
            {"prompt": "hello"}, tokenizer=ByteTokenizer(), vocab_size=64
        )
        assert request.prompt_ids.size == 5
        assert int(request.prompt_ids.max()) < 64

    def test_defaults(self):
        request = CompletionRequest.from_json({"prompt": [5]}, vocab_size=128)
        assert request.max_tokens == 16
        assert not request.stream
        assert request.stop_token_id is None and request.seed is None

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([1, 2], "JSON object"),
            ({}, "missing required field 'prompt'"),
            ({"prompt": ""}, "not be empty"),
            ({"prompt": []}, "not be empty"),
            ({"prompt": [1.5]}, "integer token ids"),
            ({"prompt": [1, True]}, "integer token ids"),
            ({"prompt": [-1]}, "non-negative"),
            ({"prompt": [500]}, "outside the model vocabulary"),
            ({"prompt": {"bad": 1}}, "string or a list"),
            ({"prompt": [1], "max_tokens": 0}, "max_tokens"),
            ({"prompt": [1], "max_tokens": "many"}, "max_tokens"),
            ({"prompt": [1], "max_tokens": 1 << 20}, "max_tokens"),
            ({"prompt": [1], "stream": "yes"}, "'stream' must be a boolean"),
            ({"prompt": [1], "stop_token_id": "x"}, "stop_token_id"),
            ({"prompt": [1], "seed": 1.5}, "'seed' must be an integer"),
            ({"prompt": [1], "priority": "urgent"}, "'priority' must be one of"),
            ({"prompt": [1], "priority": 3}, "'priority' must be one of"),
            ({"prompt": [1], "tenant": ""}, "'tenant' must be a non-empty"),
            ({"prompt": [1], "tenant": "x" * 65}, "at most 64 characters"),
            ({"prompt": [1], "tenant": 7}, "'tenant' must be a non-empty"),
            # Ids no int64 holds: converting them raises OverflowError.
            ({"prompt": [1, 2**70]}, "outside the model vocabulary"),
            ({"prompt": [1, -(2**70)]}, "non-negative"),
        ],
    )
    def test_rejections(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            CompletionRequest.from_json(
                payload, tokenizer=ByteTokenizer(), vocab_size=128
            )

    def test_token_id_outside_int64_rejected_without_vocab(self):
        with pytest.raises(ProtocolError, match="does not fit in int64"):
            CompletionRequest.from_json({"prompt": [1, 2**70]})

    def test_string_prompt_without_tokenizer_rejected(self):
        with pytest.raises(ProtocolError, match="tokenizer"):
            CompletionRequest.from_json({"prompt": "hi"}, vocab_size=128)

    def test_to_generation_request_round_trip(self):
        request = CompletionRequest.from_json(
            {"prompt": [3, 4], "max_tokens": 7, "stop_token_id": 5}, vocab_size=128
        )
        generation = request.to_generation_request()
        assert generation.max_new_tokens == 7 and generation.stop_token == 5
        np.testing.assert_array_equal(generation.prompt_ids, [3, 4])

    def test_priority_and_tenant_pass_through(self):
        request = CompletionRequest.from_json(
            {"prompt": [1], "priority": "best_effort", "tenant": "acme"},
            vocab_size=128,
        )
        generation = request.to_generation_request()
        assert generation.priority == "best_effort"
        assert generation.tenant == "acme"

    def test_priority_defaults_to_interactive(self):
        request = CompletionRequest.from_json({"prompt": [1]}, vocab_size=128)
        assert request.priority == "interactive" and request.tenant is None


class TestResponseShaping:
    def _request(self) -> CompletionRequest:
        return CompletionRequest.from_json(
            {"prompt": [1, 2, 3], "max_tokens": 4}, vocab_size=128
        )

    def test_completion_json_usage_accounting(self):
        body = completion_json(
            "req-0000", self._request(), [7, 8], FinishReason.LENGTH,
            tokenizer=ByteTokenizer(),
        )
        assert body["id"] == "cmpl-req-0000"
        assert body["object"] == "text_completion"
        choice = body["choices"][0]
        assert choice["token_ids"] == [7, 8]
        assert choice["finish_reason"] == "length"
        assert body["usage"] == {
            "prompt_tokens": 3,
            "completion_tokens": 2,
            "total_tokens": 5,
        }

    def test_chunk_json_token_and_finish_marker(self):
        mid = chunk_json("r", self._request(), 65, None, tokenizer=ByteTokenizer())
        assert mid["object"] == "text_completion.chunk"
        assert mid["choices"][0]["token_id"] == 65
        assert mid["choices"][0]["text"] == "A"
        assert mid["choices"][0]["finish_reason"] is None
        final = chunk_json("r", self._request(), None, FinishReason.STOP_TOKEN)
        assert final["choices"][0]["token_id"] is None
        assert final["choices"][0]["finish_reason"] == "stop"

    def test_sse_event_framing(self):
        frame = sse_event({"a": 1})
        assert frame.startswith(b"data: ") and frame.endswith(b"\n\n")
        assert json.loads(frame[len(b"data: "):]) == {"a": 1}
        assert SSE_DONE == b"data: [DONE]\n\n"

    def test_finish_reason_labels_cover_every_reason(self):
        assert finish_reason_label(None) is None
        for reason in FinishReason:
            assert isinstance(finish_reason_label(reason), str)
