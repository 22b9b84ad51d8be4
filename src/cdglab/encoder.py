"""Deterministic toy self-attention text encoder.

Turns a prompt into a fixed-length token sequence with content /
context-aggregating type tags, runs a small multi-head self-attention stack
over seeded embeddings, and exposes the per-head attention maps of any block.
All randomness comes from the seed in EncoderParams, so the same prompt
always produces the same condition embeddings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, PromptTooLongError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
_NUM_SPECIAL = 3
# the most prompt states one encoder keeps; the least recently used goes first
PROMPT_STATE_CAP = 64


class TokenType(Enum):
    CONTENT = "content"
    CTX_AGG = "ctx_agg"


@dataclass(frozen=True)
class EncoderParams:
    vocab_size: int = 256
    d_model: int = 32
    n_heads: int = 4
    n_blocks: int = 2
    seq_len: int = 16
    seed: int = 10

    def __post_init__(self):
        if min(self.d_model, self.n_heads) < 1:
            raise InvalidInputError("d_model and n_heads must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise InvalidInputError("d_model must be divisible by n_heads")
        if self.n_blocks < 1:
            raise InvalidInputError("need at least one block")
        if self.seq_len < 4:
            raise InvalidInputError("seq_len must be >= 4")
        if self.vocab_size <= _NUM_SPECIAL:
            raise InvalidInputError("vocab_size too small")


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]
    types: tuple[TokenType, ...]
    texts: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.types) or len(self.ids) != len(self.texts):
            raise InvalidInputError("ids/types/texts length mismatch")
        # a read-only bool per position, True at content tokens, and each
        # type's positions, ascending: found once, here
        content = TokenType.CONTENT
        bits = np.array([t is content for t in self.types], dtype=bool)
        bits.flags.writeable = False
        object.__setattr__(self, "content_bits", bits)
        object.__setattr__(self, "content_positions", np.flatnonzero(bits).tolist())
        object.__setattr__(self, "ctxagg_positions", np.flatnonzero(~bits).tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def positions_of(self, ttype: TokenType) -> list[int]:
        return self.content_positions if ttype is TokenType.CONTENT else self.ctxagg_positions


def _word_id(word: str, vocab_size: int) -> int:
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return _NUM_SPECIAL + int.from_bytes(digest, "big") % (vocab_size - _NUM_SPECIAL)


def tokenize(prompt: str, params: EncoderParams) -> TokenSequence:
    """BOS + hashed lowercase words + EOS, padded to the fixed length.

    Word positions are tagged Content; BOS/EOS/PAD are context-aggregating.
    """
    words = prompt.lower().split()
    if len(words) > params.seq_len - 2:
        raise PromptTooLongError(
            f"prompt has {len(words)} words, max {params.seq_len - 2}"
        )
    ids = [BOS_ID]
    types = [TokenType.CTX_AGG]
    texts = ["<bos>"]
    for w in words:
        ids.append(_word_id(w, params.vocab_size))
        types.append(TokenType.CONTENT)
        texts.append(w)
    ids.append(EOS_ID)
    types.append(TokenType.CTX_AGG)
    texts.append("<eos>")
    while len(ids) < params.seq_len:
        ids.append(PAD_ID)
        types.append(TokenType.CTX_AGG)
        texts.append("<pad>")
    return TokenSequence(ids=tuple(ids), types=tuple(types), texts=tuple(texts))


@dataclass(frozen=True)
class PromptState:
    """Latent-independent attention data of one (tokens, block, d_x).

    The query bias is a linear map of the latent state (x, sigma), shared by
    every query row, so it shifts each head's logit rows by one per-key
    vector. `static` holds exp of the static logits (each row shifted by its
    max), and `shift_map` takes (x, sigma) straight to that shift, so the
    attention weights at a latent state cost one small exp and a broadcast
    multiply.
    """

    static: np.ndarray  # (H, N, N)
    shift_map: np.ndarray  # (H, N, d_x + 1)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class ToyTextEncoder:
    """Seeded multi-head self-attention encoder with residual connections."""

    def __init__(self, params: EncoderParams):
        self.params = params
        p = params
        rng = np.random.default_rng([p.seed, 0])
        scale = 1.0 / np.sqrt(p.d_model)
        # unit-variance embeddings with 1/sqrt(d) weights keep attention
        # logits at O(1), so softmax rows are peaked but not saturated
        self.tok_emb = rng.normal(size=(p.vocab_size, p.d_model))
        # small positional component: repeated PAD tokens keep near-identical
        # keys, so their attention inflow is split across positions
        self.pos_emb = rng.normal(size=(p.seq_len, p.d_model)) * 0.1
        self.w_q = rng.normal(size=(p.n_blocks, p.d_model, p.d_model)) * scale
        self.w_k = rng.normal(size=(p.n_blocks, p.d_model, p.d_model)) * scale
        self.w_v = rng.normal(size=(p.n_blocks, p.d_model, p.d_model)) * scale
        self.w_o = rng.normal(size=(p.n_blocks, p.d_model, p.d_model)) * scale
        self._null: np.ndarray | None = None
        self._pool_maps: dict[int, np.ndarray] = {}
        self._bias_maps: dict[int, np.ndarray] = {}
        # (token ids, block, d_x) -> PromptState, least recently used first
        self._states: dict[tuple, PromptState] = {}

    @property
    def d_head(self) -> int:
        return self.params.d_model // self.params.n_heads

    def _block_attention(
        self, x: np.ndarray, block: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (new hidden state, per-head attention (H, N, N))."""
        p = self.params
        n, dh = p.seq_len, self.d_head
        q = x @ self.w_q[block]
        k = x @ self.w_k[block]
        v = x @ self.w_v[block]
        q = q.reshape(n, p.n_heads, dh).transpose(1, 0, 2)
        k = k.reshape(n, p.n_heads, dh).transpose(1, 0, 2)
        v = v.reshape(n, p.n_heads, dh).transpose(1, 0, 2)
        attn = _softmax_rows(q @ k.transpose(0, 2, 1) / np.sqrt(dh))
        out = (attn @ v).transpose(1, 0, 2).reshape(n, p.d_model)
        return x + out @ self.w_o[block], attn

    def _embed(self, tokens: TokenSequence) -> np.ndarray:
        """Token plus position embeddings (N, d_model) of a checked sequence."""
        p = self.params
        if len(tokens) != p.seq_len:
            raise InvalidInputError(
                f"token sequence has length {len(tokens)}, expected {p.seq_len}"
            )
        if min(tokens.ids) < 0 or max(tokens.ids) >= p.vocab_size:
            raise InvalidInputError(f"token id outside [0, {p.vocab_size})")
        return self.tok_emb[list(tokens.ids)] + self.pos_emb

    def encode(self, tokens: TokenSequence) -> np.ndarray:
        """Condition embeddings (N, d_model): the hidden state after the last block."""
        x = self._embed(tokens)
        for b in range(self.params.n_blocks):
            x, _ = self._block_attention(x, b)
        return x

    def attention_at_block(self, tokens: TokenSequence, block: int) -> np.ndarray:
        """Attention of one block (H x N x N)."""
        return _softmax_rows(self.attention_logits(tokens, block)[0])

    def attention_logits(
        self, tokens: TokenSequence, block: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scaled logits (H, N, N) of one block and its scaled K^T (H, d_head, N)."""
        if block < 0 or block >= self.params.n_blocks:
            raise InvalidInputError(f"block {block} out of range")
        p = self.params
        n, dh = p.seq_len, self.d_head
        x = self._embed(tokens)
        for b in range(block):
            x, _ = self._block_attention(x, b)
        qh = (x @ self.w_q[block]).reshape(n, p.n_heads, dh).transpose(1, 0, 2)
        kt = np.ascontiguousarray(
            (x @ self.w_k[block]).reshape(n, p.n_heads, dh).transpose(1, 2, 0)
        )
        kt_scaled = kt / np.sqrt(dh)
        return qh @ kt_scaled, kt_scaled

    def prompt_state(self, tokens: TokenSequence, block: int, d_x: int) -> PromptState:
        """The PromptState of (tokens, block, d_x), built on first use.

        The query bias is a fixed seeded linear map of (x, sigma). The
        encoder keeps the PROMPT_STATE_CAP most recently used states, which
        every caller shares, so their arrays are read-only.
        """
        p = self.params
        key = (tokens.ids, block, d_x)
        state = self._states.pop(key, None)
        if state is None:
            logits, kt_scaled = self.attention_logits(tokens, block)
            static = np.exp(logits - logits.max(axis=2, keepdims=True))
            static.flags.writeable = False
            if d_x not in self._bias_maps:
                rng = np.random.default_rng([p.seed, 3, d_x])
                self._bias_maps[d_x] = rng.normal(
                    size=(p.d_model, d_x + 1)
                ) / np.sqrt(d_x + 1)
            m = self._bias_maps[d_x].reshape(p.n_heads, self.d_head, d_x + 1)
            shift_map = np.ascontiguousarray(np.einsum("hdm,hdn->hnm", m, kt_scaled))
            shift_map.flags.writeable = False
            state = PromptState(static=static, shift_map=shift_map)
            if len(self._states) >= PROMPT_STATE_CAP:
                del self._states[next(iter(self._states))]
        self._states[key] = state
        return state

    def null_condition(self) -> np.ndarray:
        """Embeddings (N, d_model) of the empty prompt: computed once, shared, read-only."""
        if self._null is None:
            self._null = self.encode(tokenize("", self.params))
            self._null.flags.writeable = False
        return self._null

    def pool(self, c: np.ndarray, d_c: int) -> np.ndarray:
        """Mean over token rows followed by a fixed seeded linear map to d_c.

        Embeddings c (N, d_model) pool to (d_c,), and a stack (B, N, d_model)
        to (B, d_c) as one vector-matrix product per row, so a row's result
        does not depend on the rest of the stack (a (B, d_model) GEMM would
        round differently).
        """
        if d_c not in self._pool_maps:
            rng = np.random.default_rng([self.params.seed, 1, d_c])
            self._pool_maps[d_c] = rng.normal(
                size=(self.params.d_model, d_c)
            ) / np.sqrt(self.params.d_model)
        # the sum and division of ndarray.mean, without its Python wrapper
        mean = c.sum(axis=-2) / c.shape[-2]
        return (mean[..., None, :] @ self._pool_maps[d_c])[..., 0, :]
