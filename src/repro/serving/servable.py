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
import numbers
import weakref
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


class _DecoderWeights:
    """The four frozen projection weights of one decoder draw."""

    __slots__ = ("arrays", "tensors", "__weakref__")

    def __init__(self, config: DecoderConfig, seed) -> None:
        rng = np.random.default_rng(seed)
        dim, ffn = config.dim, config.ffn_dim
        scale = 1.0 / np.sqrt(dim)
        self.arrays = (
            rng.normal(0.0, scale, (dim, 3 * dim)),
            rng.normal(0.0, scale, (dim, dim)),
            rng.normal(0.0, scale, (dim, ffn)),
            rng.normal(0.0, 1.0 / np.sqrt(ffn), (ffn, dim)),
        )
        # Frozen: a read-only weight is quantized once per process and
        # its grid reused on every step (see repro.neural.photonic).
        for weight in self.arrays:
            weight.setflags(write=False)
        #: The arrays as gradient-free tensors, built once rather than per step.
        self.tensors = tuple(Tensor(weight) for weight in self.arrays)


#: (config, integer seed) -> the weights every live servable built from
#: it shares; an entry dies with the last of them.
_SHARED_WEIGHTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _decoder_weights(config: DecoderConfig, seed) -> _DecoderWeights:
    """The shared weights of ``(config, seed)``; fresh unless ``seed`` is an int."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        return _DecoderWeights(config, seed)
    key = (config, int(seed))
    weights = _SHARED_WEIGHTS.get(key)
    if weights is None:
        # Concurrent misses each draw and store identical weights; the
        # later store wins and every servable's copy stays valid.
        weights = _SHARED_WEIGHTS[key] = _DecoderWeights(config, seed)
    return weights


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

    The four projection weights are drawn from ``default_rng(seed)``
    and are read-only.  Servables built from an equal ``(config, seed)``
    with an integer seed share one frozen copy of them for as long as
    any of them lives, so a fleet's replicas draw them once and every
    executor reuses one quantized grid of each (see
    :mod:`repro.neural.photonic`).  Any other seed (``None``, a
    ``Generator`` or ``SeedSequence``) draws fresh weights.
    """

    name = "decode"

    def __init__(
        self,
        config: DecoderConfig,
        *,
        executor=None,
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
        self.cache = SessionCache(
            config,
            kv_bits=kv_bits,
            block_size=block_size,
            kv_capacity_bytes=kv_capacity_bytes,
        )
        # Holding the shared weights keeps their memo entry alive.
        self._weights = _decoder_weights(config, seed)
        self.w_qkv, self.w_out, self.w_ffn1, self.w_ffn2 = self._weights.arrays
        self._sqrt_dim = np.sqrt(config.dim)

    def prepare(self, payload: Any) -> np.ndarray:
        x = np.asarray(payload, dtype=float)
        if x.shape != (self.config.dim,):
            raise ValueError(
                f"expected one [{self.config.dim}] token vector, got {x.shape}"
            )
        _require_finite(x)
        return x

    def _project(self, x: np.ndarray, w: Tensor) -> np.ndarray:
        """Batched photonic ``[b, 1, k] @ [k, n]`` projection."""
        return self.executor.matmul(Tensor(x), w, weight_operand=1).data

    def _attend(
        self,
        session_id: str,
        q: np.ndarray,
        pending: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Digital single-query attention over the session's committed
        KV state (its pages' contiguous mirror) plus this batch's
        pending (uncommitted) K/V pairs."""
        dim = self.config.dim
        session = self.cache.find_session(session_id)
        if session is not None:
            keys, values = session.kv_view(dim, pending)
        else:
            keys = np.stack([key for key, _ in pending])
            values = np.stack([value for _, value in pending])
        # The reductions are the ufuncs ``.max()``/``.sum()`` call, minus
        # the Python layer in between; the softmax runs in place.
        scores = keys @ q
        scores /= self._sqrt_dim
        scores -= np.maximum.reduce(scores)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores)
        return scores @ values

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
        w_qkv, w_out, w_ffn1, w_ffn2 = self._weights.tensors
        with no_grad():
            qkv = self._project(xs, w_qkv)  # [b, 1, 3*dim]
            dim = self.config.dim
            q, k, v = qkv[:, 0, :dim], qkv[:, 0, dim : 2 * dim], qkv[:, 0, 2 * dim :]
            contexts = []
            for request, q_i, k_i, v_i in zip(requests, q, k, v):
                staged = pending.setdefault(request.session_id, [])
                staged.append((k_i, v_i))
                contexts.append(self._attend(request.session_id, q_i, staged))
            ctx = np.array(contexts)[:, None, :]
            h = xs + self._project(ctx, w_out)
            f1 = np.maximum(self._project(h, w_ffn1), 0.0)
            y = h + self._project(f1, w_ffn2)
        # The whole batch succeeded: commit every staged K/V (lazily
        # opening sessions), so a failed batch leaves no state behind.
        self.cache.commit_kv(pending)
        return [row.copy() for row in y[:, 0]]
