"""Deterministic toy self-attention text encoder.

Turns a prompt into a fixed-length token sequence with content /
context-aggregating type tags and runs a small multi-head self-attention stack
over seeded embeddings, for one model's latent and condition widths. Its one
forward, `ToyTextEncoder.encode_stack`, walks a stack of sequences and, in the
same pass, keeps any block's per-head attention logits as a prompt state.
All randomness comes from the seed in EncoderParams and the widths, so the
same prompt always produces the same condition embeddings.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
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
    """Latent-independent attention data of one (tokens, block).

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


def _is_int(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, int | np.integer) and not isinstance(value, bool)


def _check_width(name: str, width) -> None:
    """Rejects a latent or condition width that is not an int >= 1."""
    if not (_is_int(width) and width >= 1):
        raise InvalidInputError(f"{name} must be an int >= 1, got {width!r}")


class ToyTextEncoder:
    """Seeded multi-head self-attention encoder with residual connections,
    built for a model's latent width d_x and condition width d_c, each an int
    >= 1 (a numpy integer, not a bool or float) or InvalidInputError."""

    def __init__(self, params: EncoderParams, d_x: int, d_c: int):
        _check_width("d_x", d_x)
        _check_width("d_c", d_c)
        self.params, self.d_x, self.d_c = params, int(d_x), int(d_c)
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
        # pool's map to d_c, and the query bias map of (x, sigma), held per head
        pool = np.random.default_rng([p.seed, 1, self.d_c]).normal(size=(p.d_model, self.d_c))
        self.pool_map = pool / np.sqrt(p.d_model)
        bias = np.random.default_rng([p.seed, 3, self.d_x]).normal(size=(p.d_model, self.d_x + 1))
        self.bias_map = (bias / np.sqrt(self.d_x + 1)).reshape(p.n_heads, self.d_head, -1)
        self._null: np.ndarray | None = None
        # (token ids, block) -> PromptState, least recently used first
        self._states: dict[tuple, PromptState] = {}

    @property
    def d_head(self) -> int:
        return self.params.d_model // self.params.n_heads

    def _walk(self, x: np.ndarray, taps: dict[int, list[int]]):
        """The one block walker: the hidden state of x (..., N, d_model) after
        the last block, and for each block b in taps, its scaled logits and
        scaled K^T at the ascending rows taps[b] of a stack x. A stack walks
        as its sequences would one by one, bit for bit."""
        p, dh, tapped = self.params, self.d_head, {}
        heads = (*x.shape[:-1], p.n_heads, dh)
        for b in range(p.n_blocks):
            q = (x @ self.w_q[b]).reshape(heads).swapaxes(-3, -2)
            k = (x @ self.w_k[b]).reshape(heads).swapaxes(-3, -2)
            if (rows := taps.get(b)) is not None:
                qh, kh = (q, k) if len(rows) == len(x) else (q[rows], k[rows])
                kt_scaled = np.ascontiguousarray(kh.swapaxes(-1, -2)) / np.sqrt(dh)
                tapped[b] = qh @ kt_scaled, kt_scaled
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

    def encode_stack(self, tokens: Sequence[TokenSequence], blocks: Sequence[int | None]):
        """Condition embeddings (P, N, d_model) of P sequences from one walk,
        row p bit for bit that of a one-row walk of tokens[p], and the call's
        prompt states: the state of (tokens[p].ids, blocks[p]) for every p
        whose block is not None. The walk builds the states the store lacks
        in one stacked build per block, and the store ends as one-row calls
        over those rows would leave it: it keeps the PROMPT_STATE_CAP most
        recently used states, which every caller shares, so their arrays are
        read-only.
        The returned states stay the call's whatever the store later drops.
        A block neither None nor an int in [0, n_blocks) raises
        InvalidInputError; numpy integers are ints."""
        if not tokens or len(blocks) != len(tokens):
            raise InvalidInputError(f"a non-empty stack needs one block a sequence, got"
                                    f" {len(tokens)} sequences and {len(blocks)} blocks")
        keys, states, taps = [], {}, {}
        for r, (t, block) in enumerate(zip(tokens, blocks)):
            if block is not None:
                if not (_is_int(block) and 0 <= block < self.params.n_blocks):
                    raise InvalidInputError(f"block {block!r} out of range")
                keys.append(key := (t.ids, block))
                # held for the call, as the store may drop a state before its last row
                if key not in states and states.setdefault(key, self._states.get(key)) is None:
                    taps.setdefault(block, []).append(r)
        x, tapped = self._walk(np.array([self._embed(t) for t in tokens]), taps)
        for block, rows in taps.items():
            built = [(tokens[r].ids, block) for r in rows]
            states.update(self._build_states(built, *tapped[block]))
        for key in keys:
            self._keep(key, states[key])
        return x, states

    def _build_states(
        self, keys: list[tuple], logits: np.ndarray, kt_scaled: np.ndarray
    ) -> dict[tuple, PromptState]:
        """The PromptState of each key (ids, block) of one block, from the
        keys' logits (P, H, N, N) and scaled K^T (P, H, d_head, N) there: one
        exp and one stacked einsum, whose rows round as one-row builds do.
        A state's arrays are read-only views of the stacks."""
        static = np.exp(logits - logits.max(axis=3, keepdims=True))
        static.flags.writeable = False
        shift_map = np.ascontiguousarray(np.einsum("hdm,phdn->phnm", self.bias_map, kt_scaled))
        shift_map.flags.writeable = False
        return dict(zip(keys, map(PromptState, static, shift_map)))

    def _keep(self, key: tuple, state: PromptState) -> None:
        """Stores state under key as the most recent; a full store drops its least recent."""
        if self._states.pop(key, None) is None and len(self._states) >= PROMPT_STATE_CAP:
            del self._states[next(iter(self._states))]
        self._states[key] = state

    def null_condition(self) -> np.ndarray:
        """Embeddings (N, d_model) of the empty prompt: computed once, shared, read-only."""
        if self._null is None:
            self._null = self._walk(self._embed(tokenize("", self.params)), {})[0]
            self._null.flags.writeable = False
        return self._null

    def pool(self, c: np.ndarray) -> np.ndarray:
        """Mean over token rows followed by a fixed seeded linear map to d_c.

        Embeddings c (N, d_model) pool to (d_c,), and a stack (B, N, d_model)
        to (B, d_c) as one vector-matrix product per row, so a row's result
        does not depend on the rest of the stack (a (B, d_model) GEMM would
        round differently). Any other shape, or N = 0, raises InvalidInputError.
        """
        c, d = np.asarray(c), self.params.d_model
        if c.ndim not in (2, 3) or c.shape[-1] != d or not c.shape[-2]:
            raise InvalidInputError(f"embeddings of shape {c.shape}, not (N, {d}) or (B, N, {d})"
                                    " with N >= 1")
        # the sum and division of ndarray.mean, without its Python wrapper
        mean = c.sum(axis=-2) / c.shape[-2]
        return (mean[..., None, :] @ self.pool_map)[..., 0, :]
