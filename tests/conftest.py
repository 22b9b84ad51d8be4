"""Shared fixtures: a small encoder, toy model, and schedule."""

from __future__ import annotations

import numpy as np
import pytest

from cdglab.degradation import map_ratio, mask_extent, needs_ranking
from cdglab.diffusion import GmmConditionalModel, SigmaSchedule
from cdglab.encoder import EncoderParams, ToyTextEncoder, tokenize


@pytest.fixture(scope="session")
def params() -> EncoderParams:
    return EncoderParams()


@pytest.fixture(scope="session")
def encoder(params) -> ToyTextEncoder:
    return ToyTextEncoder(params, 8, 8)


@pytest.fixture(scope="session")
def model() -> GmmConditionalModel:
    return GmmConditionalModel.random(4, 8, 8, seed=0)


@pytest.fixture(scope="session")
def schedule() -> SigmaSchedule:
    return SigmaSchedule.log_spaced(28, 10.0, 0.01)


@pytest.fixture(scope="session")
def tokens(params):
    return tokenize("a man is cooking", params)


def random_prompt(rng: np.random.Generator, max_words: int) -> str:
    n_words = int(rng.integers(0, max_words + 1))
    words = [
        "".join(chr(97 + c) for c in rng.integers(0, 26, size=rng.integers(1, 7)))
        for _ in range(n_words)
    ]
    return " ".join(words)


def encode_one(encoder: ToyTextEncoder, tokens) -> np.ndarray:
    """One sequence's condition embeddings (N, d_model), from a one-row encode_stack walk."""
    return encoder.encode_stack([tokens], [None])[0][0]


def degrade_row(label, tokens, condition, r_deg: float, block: int, latent) -> tuple:
    """A degrade_set row of tokens at ratio r_deg: its mask extent, and its
    block, or None when that extent needs no ranking."""
    extent = mask_extent(tokens, map_ratio(r_deg))
    return (label, tokens, condition, extent,
            block if needs_ranking(tokens, extent) else None, latent)


def state_of(encoder: ToyTextEncoder, tokens, block: int):
    """The prompt state of (tokens, block), from a one-row encode_stack call."""
    return encoder.encode_stack([tokens], [block])[1][tokens.ids, block]
