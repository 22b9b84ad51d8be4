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

    def _walk(self, x: np.ndarray, stop: int, tap: int | None, rows: list[int] | None):
        """The one block walker: hidden states of x (..., N, d_model) after
        blocks 0..stop-1 (stop >= tap), and block tap's scaled logits and
        scaled K^T at x[rows] (all of x for None), or () for tap None. A
        stack walks as its sequences would one by one, bit for bit."""
        p, dh, tapped = self.params, self.d_head, ()
        if tap is not None and not 0 <= tap < p.n_blocks:
            raise InvalidInputError(f"block {tap} out of range")
        heads = (*x.shape[:-1], p.n_heads, dh)
        for b in range(stop if tap is None else max(stop, tap + 1)):
            q = (x @ self.w_q[b]).reshape(heads).swapaxes(-3, -2)
            k = (x @ self.w_k[b]).reshape(heads).swapaxes(-3, -2)
            if b == tap:
                qh, kh = (q, k) if rows is None else (q[rows], k[rows])
                kt_scaled = np.ascontiguousarray(kh.swapaxes(-1, -2)) / np.sqrt(dh)
                tapped = qh @ kt_scaled, kt_scaled
            if b < stop:
                v = (x @ self.w_v[b]).reshape(heads).swapaxes(-3, -2)
                attn = _softmax_rows(q @ k.swapaxes(-1, -2) / np.sqrt(dh))
                x = x + (attn @ v).swapaxes(-3, -2).reshape(x.shape) @ self.w_o[b]
        return x, tapped

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
        return self._walk(self._embed(tokens), self.params.n_blocks, None, None)[0]

    def encode_stack(self, tokens: list[TokenSequence], block: int | None, d_x: int):
        """Condition embeddings (P, N, d_model) of P sequences from one walk,
        row p bit for bit encode(tokens[p]). Unless block is None, the walk
        builds each (ids, block, d_x) state the store lacks, once, and the
        store ends as prompt_state calls over tokens would leave it."""
        keys = [] if block is None else [(t.ids, block, d_x) for t in tokens]
        # held for the call, as the store may drop a state before its last row
        states = {key: self._states.get(key) for key in keys}
        first = {key: r for r, key in reversed(list(enumerate(keys)))}
        rows = [first[key] for key, state in states.items() if state is None]
        x, tapped = self._walk(
            np.array([self._embed(t) for t in tokens]), self.params.n_blocks,
            block if rows else None, None if len(rows) == len(keys) else rows,
        )
        for r, logits, kt_scaled in zip(rows, *tapped):
            states[keys[r]] = self._build_state(keys[r], logits, kt_scaled)
        for key in keys:
            self._keep(key, states[key])
        return x

    def attention_at_block(self, tokens: TokenSequence, block: int) -> np.ndarray:
        """Attention of one block (H x N x N)."""
        return _softmax_rows(self.attention_logits(tokens, block)[0])

    def attention_logits(
        self, tokens: TokenSequence, block: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scaled logits (H, N, N) of one block and its scaled K^T (H, d_head, N)."""
        return self._walk(self._embed(tokens), block, block, None)[1]

    def _build_state(self, key: tuple, logits: np.ndarray, kt_scaled: np.ndarray) -> PromptState:
        """The PromptState of key (ids, block, d_x) from its block's logits and scaled K^T."""
        p, d_x = self.params, key[2]
        static = np.exp(logits - logits.max(axis=2, keepdims=True))
        static.flags.writeable = False
        if d_x not in self._bias_maps:
            rng = np.random.default_rng([p.seed, 3, d_x])
            self._bias_maps[d_x] = rng.normal(size=(p.d_model, d_x + 1)) / np.sqrt(d_x + 1)
        m = self._bias_maps[d_x].reshape(p.n_heads, self.d_head, d_x + 1)
        shift_map = np.ascontiguousarray(np.einsum("hdm,hdn->hnm", m, kt_scaled))
        shift_map.flags.writeable = False
        return PromptState(static=static, shift_map=shift_map)

    def _keep(self, key: tuple, state: PromptState) -> None:
        """Stores state under key as the most recent; a full store drops its least recent."""
        if self._states.pop(key, None) is None and len(self._states) >= PROMPT_STATE_CAP:
            del self._states[next(iter(self._states))]
        self._states[key] = state

    def prompt_state(self, tokens: TokenSequence, block: int, d_x: int) -> PromptState:
        """The PromptState of (tokens, block, d_x), built on first use.

        The query bias is a fixed seeded linear map of (x, sigma). The
        encoder keeps the PROMPT_STATE_CAP most recently used states, which
        every caller shares, so their arrays are read-only.
        """
        key = (tokens.ids, block, d_x)
        if (state := self._states.get(key)) is None:
            state = self._build_state(key, *self.attention_logits(tokens, block))
        self._keep(key, state)
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
