"""Servables: model-side adapters between requests and batched tensors.

A servable owns the two batch-boundary conversions the engine needs:
``prepare`` canonicalizes and validates one request payload at submit
time (in the caller's thread, so bad inputs fail fast and never poison
a coalesced batch), and ``execute`` turns a list of queued requests
into one ``[batch, ...]`` photonic execution and back into per-request
outputs.

Every built-in servable keeps per-request results **independent of
batch composition**: quantization scales are per-matrix (PR 2), padding
targets are fixed by the model rather than the batch, and decode
attention is per-session.  On a deterministic executor this makes a
dynamically coalesced batch bit-identical to sequential single-request
execution — the invariant
``tests/cluster/test_cluster.py::TestBitExactRouting`` pins on every
servable.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.neural.autograd import Tensor, no_grad
from repro.serving.cache import SessionCache
from repro.serving.request import InferenceRequest
from repro.workloads.llm import DecoderConfig, pad_prompts


def _require_finite(payload: np.ndarray) -> None:
    """Reject NaN/inf at submit, before it can reach a shared batch."""
    if not np.logical_and.reduce(np.isfinite(payload), axis=None):
        raise ValueError("payload has non-finite values (NaN or inf)")


class Servable(abc.ABC):
    """Interface the :class:`~repro.serving.engine.ServingEngine` drives."""

    name = "servable"

    def prepare(self, payload: Any) -> Any:
        """Validate/canonicalize one payload (runs in the submit thread)."""
        return payload

    @abc.abstractmethod
    def execute(self, requests: Sequence[InferenceRequest]) -> list[Any]:
        """Run one coalesced batch; return one output per request."""


class VisionServable(Servable):
    """Serves a :class:`~repro.neural.vision.TinyViT`-style classifier.

    Payloads are single ``[H, W]`` images; a batch stacks them into the
    ``[batch, H, W]`` tensor the model's batched forward consumes.
    """

    name = "vision"

    def __init__(self, model) -> None:
        self.model = model

    def prepare(self, payload: Any) -> np.ndarray:
        image = np.asarray(payload, dtype=float)
        expected = (self.model.image_size, self.model.image_size)
        if image.shape != expected:
            raise ValueError(f"expected one {expected} image, got {image.shape}")
        _require_finite(image)
        return image

    def execute(self, requests: Sequence[InferenceRequest]) -> list[np.ndarray]:
        stacked = np.stack([request.payload for request in requests])
        with no_grad():
            logits = self.model(stacked).data
        return [row.copy() for row in logits]


class TextServable(Servable):
    """Serves a :class:`~repro.neural.text.TinyBERT`-style classifier.

    Payloads are **ragged** 1-D token-id prompts.  The padding policy
    pads every prompt to the model's *fixed* sequence length (never to
    the batch maximum), so a request's padded form — and therefore its
    logits on a deterministic executor — does not depend on which other
    prompts it was coalesced with.
    """

    name = "text"

    def __init__(self, model, *, pad_id: int = 0) -> None:
        if not 0 <= pad_id < model.vocab_size:
            raise ValueError(
                f"pad_id {pad_id} outside vocabulary [0, {model.vocab_size})"
            )
        self.model = model
        self.pad_id = pad_id

    def prepare(self, payload: Any) -> np.ndarray:
        ids = np.asarray(payload, dtype=int)
        if ids.ndim != 1 or not 1 <= ids.shape[0] <= self.model.seq_len:
            raise ValueError(
                f"expected a 1-D prompt of 1..{self.model.seq_len} tokens, "
                f"got shape {ids.shape}"
            )
        padded, _ = pad_prompts(
            [ids], pad_id=self.pad_id, length=self.model.seq_len
        )
        return padded[0]

    def execute(self, requests: Sequence[InferenceRequest]) -> list[np.ndarray]:
        stacked = np.stack([request.payload for request in requests])
        with no_grad():
            logits = self.model(stacked).data
        return [row.copy() for row in logits]


class DecodeServable(Servable):
    """One LLM decode step over per-session KV caches (Sec. VI-B shape).

    Models one representative decoder layer the way a hybrid
    photonic-digital design (HAPA-style) splits the work: the **linear
    projections are batched photonic GEMVs** — all coalesced requests'
    token vectors run as one ``[batch, 1, dim]`` stack against shared
    ``[dim, n]`` weights, exactly the ``qkv_proj``/``out_proj``/``ffn``
    rows :func:`repro.workloads.llm.decode_trace` counts — while the
    **attention over each session's KV cache stays per-request digital**
    (each request attends over its own context length).

    Each executed step appends the request's new K/V to its session in
    the :class:`~repro.serving.cache.SessionCache`, whose byte ledger is
    defined by :func:`repro.workloads.llm.kv_cache_bytes`.  Prompt
    tokens are modelled as zero K/V state (the accounting still charges
    them); a session's functional state therefore depends only on its
    own step sequence, keeping batched decode bit-identical to
    sequential decode on a deterministic executor.

    The four projection weights are read-only once constructed, so the
    executor quantizes each of them once rather than on every step.
    """

    name = "decode"

    def __init__(
        self,
        config: DecoderConfig,
        *,
        executor=None,
        cache: SessionCache | None = None,
        seed: int = 0,
        block_size: int = 1,
        kv_capacity_bytes: int | None = None,
        kv_bits: int = 8,
    ) -> None:
        from repro.neural.photonic import PhotonicExecutor

        self.config = config
        self.executor = (
            executor if executor is not None else PhotonicExecutor.digital_reference()
        )
        if cache is not None and (block_size != 1 or kv_capacity_bytes is not None):
            raise ValueError(
                "pass paging knobs (block_size / kv_capacity_bytes) or an "
                "explicit cache, not both"
            )
        self.cache = (
            cache
            if cache is not None
            else SessionCache(
                config,
                kv_bits=kv_bits,
                block_size=block_size,
                kv_capacity_bytes=kv_capacity_bytes,
            )
        )
        if self.cache.config is None:
            self.cache.config = config
        rng = np.random.default_rng(seed)
        dim, ffn = config.dim, config.ffn_dim
        scale = 1.0 / np.sqrt(dim)
        self.w_qkv = rng.normal(0.0, scale, (dim, 3 * dim))
        self.w_out = rng.normal(0.0, scale, (dim, dim))
        self.w_ffn1 = rng.normal(0.0, scale, (dim, ffn))
        self.w_ffn2 = rng.normal(0.0, 1.0 / np.sqrt(ffn), (ffn, dim))
        # Frozen: the executor quantizes a read-only weight once and
        # reuses the grid on every step.
        for weight in (self.w_qkv, self.w_out, self.w_ffn1, self.w_ffn2):
            weight.setflags(write=False)
        self._sqrt_dim = np.sqrt(dim)

    def prepare(self, payload: Any) -> np.ndarray:
        x = np.asarray(payload, dtype=float)
        if x.shape != (self.config.dim,):
            raise ValueError(
                f"expected one [{self.config.dim}] token vector, got {x.shape}"
            )
        _require_finite(x)
        return x

    def _project(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Batched photonic ``[b, 1, k] @ [k, n]`` projection."""
        return self.executor.matmul(Tensor(x), Tensor(w), weight_operand=1).data

    def _attend(
        self,
        session_id: str,
        q: np.ndarray,
        pending: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Digital single-query attention over the session's committed
        KV state (read straight from its paged blocks) plus this batch's
        pending (uncommitted) K/V pairs."""
        dim = self.config.dim
        session = self.cache.find_session(session_id)
        if session is not None:
            keys, values = session.kv_arrays(dim, pending)
        else:
            keys = np.stack([key for key, _ in pending])
            values = np.stack([value for _, value in pending])
        # The reductions are the ufuncs ``.max()``/``.sum()`` call, minus
        # the Python layer in between.
        scores = keys @ q / self._sqrt_dim
        weights = np.exp(scores - np.maximum.reduce(scores))
        weights /= np.add.reduce(weights)
        return weights @ values

    def execute(self, requests: Sequence[InferenceRequest]) -> list[np.ndarray]:
        # Validate the whole batch before touching any session: a bad
        # batch-mate must never poison another request's KV state.
        for request in requests:
            if request.session_id is None:
                raise ValueError("decode requests need a session_id")
        # ``np.array`` of equal-shape vectors is ``np.stack`` without
        # its Python layer.
        xs = np.array([request.payload for request in requests])[:, None, :]
        # K/V pairs this batch produces, staged per session so a later
        # step of the same session attends over an earlier batch-mate's
        # state (exactly like sequential execution) while nothing is
        # committed to the cache until the whole batch succeeds.
        pending: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        with no_grad():
            qkv = self._project(xs, self.w_qkv)  # [b, 1, 3*dim]
            dim = self.config.dim
            q, k, v = qkv[..., :dim], qkv[..., dim : 2 * dim], qkv[..., 2 * dim :]
            contexts = []
            for i, request in enumerate(requests):
                staged = pending.setdefault(request.session_id, [])
                staged.append((k[i, 0], v[i, 0]))
                contexts.append(self._attend(request.session_id, q[i, 0], staged))
            ctx = np.array(contexts)[:, None, :]
            h = xs + self._project(ctx, self.w_out)
            f1 = np.maximum(self._project(h, self.w_ffn1), 0.0)
            y = h + self._project(f1, self.w_ffn2)
        # The whole batch succeeded: commit every staged K/V (lazily
        # opening sessions), so a failed batch leaves no state behind.
        self.cache.commit_kv(pending)
        return [y[i, 0].copy() for i in range(len(requests))]
