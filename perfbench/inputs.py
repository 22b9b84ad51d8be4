"""Seeded input generator for the benchmark workloads.

Prompts are drawn from a built-in word list, 2 to 12 words each, and every
prompt a stream yields is new within that stream. The stream for a
(workload, seed) pair is sequential and uses only Python's `random` module,
so the same seed gives the same inputs on every run and every machine.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MIN_WORDS = 2
MAX_WORDS = 12

WORDS = (
    "a an the this that some every one two three old young small large red "
    "blue green white black golden quiet loud bright dark wooden stone glass "
    "man woman child girl boy dog cat horse bird fish cow sheep fox bear owl "
    "chef painter farmer sailor doctor teacher pilot dancer singer runner "
    "city village street river lake ocean mountain forest garden field beach "
    "kitchen room house tower bridge castle market station harbor desert "
    "island valley road path window door table chair lamp book letter clock "
    "car train boat bicycle plane ship cart wagon tree flower grass leaf rock "
    "sun moon star cloud rain snow storm wind fire light shadow sky night "
    "morning evening winter summer autumn spring bread apple cake soup tea "
    "coffee wine cheese rice hat coat dress shoe bag umbrella guitar piano "
    "drum violin camera phone paper map flag is are was runs walks sits "
    "stands sleeps cooks paints reads writes sings dances plays jumps flies "
    "swims climbs carries holds watches opens builds rides drives eats "
    "drinks in on under over near behind beside above across through into "
    "with without at by from of and or while slowly quickly gently happily "
    "alone together again today softly brightly"
).split()


class PromptStream:
    """Yields distinct prompts for one (workload, seed) pair."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"cdglab-bench/{workload}/{seed}")
        self._seen: set[str] = set()

    def prompt(self) -> str:
        while True:
            n = self.rng.randint(MIN_WORDS, MAX_WORDS)
            text = " ".join(self.rng.choice(WORDS) for _ in range(n))
            if text not in self._seen:
                self._seen.add(text)
                return text

    def prompts(self, count: int) -> list[str]:
        return [self.prompt() for _ in range(count)]

    def sampler_seed(self) -> int:
        return self.rng.randrange(2**31)


def sweep_config(stream: PromptStream) -> dict:
    """4 prompts, CDG with w=3 and first-step mask reuse; the CLI sets R."""
    return {
        "guidance": {
            "mode": "cdg",
            "guidance_scale": 3.0,
            "r_deg": 1.0,
            "reuse_first_step_mask": True,
        },
        "prompts": stream.prompts(4),
        "seed": stream.sampler_seed(),
    }


def diagnose_config(stream: PromptStream) -> dict:
    """8 prompts, CDG at R=0.5, fusion on with bounds that keep every head."""
    return {
        "guidance": {"mode": "cdg", "guidance_scale": 3.0, "r_deg": 0.5},
        "fusion": {"enabled": True, "v_min": 0.0, "v_max": 1.0},
        "prompts": stream.prompts(8),
        "seed": stream.sampler_seed(),
    }


def per_step_config() -> dict:
    """Every per_step chain shares the default model, schedule and encoder."""
    return {}


def per_step_chain(stream: PromptStream) -> dict:
    """One chain: a new prompt, CDG or CFG*, R off the 1.0 shortcut, per-step masks."""
    return {
        "prompt": stream.prompt(),
        "mode": stream.rng.choice(("cdg", "cfg_star")),
        "r_deg": stream.rng.choice((0.3, 0.7, 1.3, 1.7)),
        "seed": stream.sampler_seed(),
    }


def write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
