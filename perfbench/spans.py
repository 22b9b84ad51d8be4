"""In-memory spans around each cdglab layer's entry points.

The tracer patches names from outside the package: each wrapped name is
replaced in the namespace of the module that calls it (for example
`cdglab.diffusion.denoise`, which `_guided_eps` resolves at call time), or
on the class for methods. Nothing under `src/` is edited. A target that no
longer exists is skipped and listed; a layer whose targets are all missing
is reported as untraced.

A span records (name, start, end, parent). A layer's self time is the sum
over its spans of duration minus the time covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (layer, owner, attribute, span name); owner is a module or module:Class.
# Each span name is "<layer>.<what>".
TARGETS = (
    ("cli", "cdglab.cli", "main", "cli.main"),
    ("config", "cdglab.cli", "load_config", "config.load_config"),
    ("config", "cdglab.config:RunConfig", "build_model", "config.build_model"),
    ("config", "cdglab.config:RunConfig", "build_schedule", "config.build_schedule"),
    ("config", "cdglab.config:RunConfig", "build_encoder", "config.build_encoder"),
    ("diffusion", "cdglab.cli", "sample", "diffusion.sample"),
    ("diffusion", "cdglab", "sample", "diffusion.sample"),
    ("diffusion", "cdglab.diffusion", "denoise", "diffusion.denoise"),
    ("diffusion", "cdglab.geometry", "denoise", "diffusion.denoise"),
    ("importance", "cdglab.diffusion", "_compute_importance", "importance.compute"),
    ("importance", "cdglab.geometry", "_compute_importance", "importance.compute"),
    ("degradation", "cdglab.diffusion", "build_mask", "degradation.build_mask"),
    ("degradation", "cdglab.geometry", "build_mask", "degradation.build_mask"),
    ("degradation", "cdglab.diffusion", "content_boundary_mask", "degradation.boundary_mask"),
    ("degradation", "cdglab.geometry", "content_boundary_mask", "degradation.boundary_mask"),
    ("degradation", "cdglab.diffusion", "apply_mask", "degradation.apply_mask"),
    ("degradation", "cdglab.geometry", "apply_mask", "degradation.apply_mask"),
    ("encoder", "cdglab.cli", "tokenize", "encoder.tokenize"),
    ("encoder", "cdglab", "tokenize", "encoder.tokenize"),
    ("encoder", "cdglab.encoder:ToyTextEncoder", "encode", "encoder.encode"),
    ("encoder", "cdglab.encoder:ToyTextEncoder", "pool", "encoder.pool"),
    ("encoder", "cdglab.encoder:ToyTextEncoder", "null_condition", "encoder.null_condition"),
    ("encoder", "cdglab.encoder:ToyTextEncoder", "attention_at_block", "encoder.attention_at_block"),
    ("encoder", "cdglab.encoder:ToyTextEncoder", "attention_logits", "encoder.attention_logits"),
    ("guidance", "cdglab.diffusion", "combine_cfg", "guidance.combine"),
    ("guidance", "cdglab.diffusion", "combine_cdg", "guidance.combine"),
    ("guidance", "cdglab.diffusion", "combine_cfg_star", "guidance.combine"),
    ("guidance", "cdglab.diffusion", "denoiser_to_eps", "guidance.to_eps"),
    ("guidance", "cdglab.geometry", "denoiser_to_eps", "guidance.to_eps"),
    ("linalg", "cdglab.geometry", "thin_svd", "linalg.svd"),
    ("linalg", "cdglab.linalg", "thin_svd", "linalg.svd"),
    ("linalg", "cdglab.geometry", "principal_angle_sines_squared", "linalg.principal_angles"),
    ("linalg", "cdglab.geometry", "project_onto", "linalg.project_onto"),
    ("geometry", "cdglab.geometry", "run_geometry_sweep", "geometry.run_geometry_sweep"),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Per-layer metric -> unit. Values are per entry-point call unless the unit
# says otherwise; perfbench/README.md says what each one counts and which
# end-to-end metric it should move.
PER_LAYER = {
    "diffusion.chains": "1/call",
    "diffusion.denoise_calls": "1/call",
    "diffusion.denoise_self_ms": "ms/call",
    "diffusion.loop_self_ms": "ms/call",
    "diffusion.distinct_chain_ratio": "ratio",
    "importance.solves": "1/call",
    "importance.self_ms": "ms/call",
    "importance.us_per_solve": "us",
    "degradation.masks_built": "1/call",
    "degradation.self_ms": "ms/call",
    "degradation.mask_change_ratio": "ratio",
    "encoder.calls": "1/call",
    "encoder.self_ms": "ms/call",
    "guidance.combines": "1/call",
    "guidance.self_ms": "ms/call",
    "linalg.svd_calls": "1/call",
    "linalg.svd_self_ms": "ms/call",
    "linalg.svd_entries": "1/call",
    "geometry.self_ms": "ms/call",
    "config.load_ms": "ms/call",
    "cli.self_ms": "ms/call",
    "trace.overhead_ratio": "ratio",
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.chain_keys: set = set()
        self.mask_changes = 0
        self.svd_entries = 0

    def wrap(self, fn, span: str, observe=None):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, owner, attr, span in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            observe = None
            if span == "diffusion.sample":
                observe = self._chain_observer(fn)
            elif span == "linalg.svd":
                observe = self._svd_observer
            self._patches.append((obj, attr, fn))
            setattr(obj, attr, self.wrap(fn, span, observe))

    def restore(self) -> None:
        for obj, attr, fn in reversed(self._patches):
            setattr(obj, attr, fn)
        self._patches.clear()

    def untraced_layers(self) -> list[str]:
        present = {span.split(".")[0] for span in self.names}
        return [layer for layer in LAYERS if layer not in present]

    def _chain_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, run):
            try:
                bound = signature.bind(*args, **kwargs).arguments
                tokens, config, seed = bound["tokens"], bound["config"], bound["seed"]
                key = (tuple(tokens.ids), config.mode.value, config.guidance_scale,
                       config.r_deg, seed)
            except (TypeError, KeyError, AttributeError):
                key = object()
            self.chain_keys.add(key)
            masks = getattr(run, "masks_used", [])
            self.mask_changes += sum(
                1 for a, b in zip(masks, masks[1:])
                if a is not b and (a is None or b is None
                                   or not np.array_equal(a.bits, b.bits))
            )

        return observe

    def _svd_observer(self, args, kwargs, result):
        m = args[0] if args else kwargs.get("m")
        shape = np.shape(m)
        self.svd_entries += int(np.prod(shape)) if shape else 0

    def span_totals(self) -> tuple[dict[str, tuple[int, float]], int]:
        """({span name: (count, self ms)}, number of calls into the encoder).

        A call into the encoder is an encoder span whose parent is not one.
        """
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        has_parent = parents >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parents[has_parent], dur[has_parent])
        n = len(self.names)
        counts = np.bincount(names, minlength=n)
        self_ms = np.bincount(names, weights=dur - child, minlength=n) / 1e6
        totals = {name: (int(counts[i]), float(self_ms[i])) for i, name in enumerate(self.names)}

        in_encoder = np.array([s.startswith("encoder.") for s in self.names] + [False])
        span_encoder = in_encoder[names]
        parent_encoder = in_encoder[np.where(has_parent, names[np.maximum(parents, 0)], n)]
        return totals, int(np.count_nonzero(span_encoder & ~parent_encoder))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "untraced_targets": self.missing,
            }, fh)


def layer_metrics(
    tracer: Tracer, calls: int, untraced_s: float, traced_s: float, speed: float
) -> tuple[dict, dict]:
    """Every PER_LAYER metric, and each layer's self ms per call.

    Values are per entry-point call where the unit says so. Span times are
    multiplied by `speed`, the calibration factor of the traced replay.
    """
    by_span, encoder_calls = tracer.span_totals()

    def count(*spans):
        return sum(by_span.get(s, (0, 0.0))[0] for s in spans)

    def ms(*spans):
        return sum(by_span.get(s, (0, 0.0))[1] for s in spans)

    def layer_ms(layer):
        return ms(*(s for s in by_span if s.split(".")[0] == layer))

    chains = count("diffusion.sample")
    solves = count("importance.compute")
    masks = count("degradation.build_mask", "degradation.boundary_mask")
    per_call = 1.0 / max(calls, 1)
    ms_per_call = speed * per_call
    raw = {
        "diffusion.chains": chains * per_call,
        "diffusion.denoise_calls": count("diffusion.denoise") * per_call,
        "diffusion.denoise_self_ms": ms("diffusion.denoise") * ms_per_call,
        "diffusion.loop_self_ms": ms("diffusion.sample") * ms_per_call,
        "diffusion.distinct_chain_ratio": len(tracer.chain_keys) / chains if chains else 0.0,
        "importance.solves": solves * per_call,
        "importance.self_ms": layer_ms("importance") * ms_per_call,
        "importance.us_per_solve": layer_ms("importance") * speed * 1e3 / solves if solves else 0.0,
        "degradation.masks_built": masks * per_call,
        "degradation.self_ms": layer_ms("degradation") * ms_per_call,
        "degradation.mask_change_ratio": tracer.mask_changes / masks if masks else 0.0,
        "encoder.calls": encoder_calls * per_call,
        "encoder.self_ms": layer_ms("encoder") * ms_per_call,
        "guidance.combines": count("guidance.combine") * per_call,
        "guidance.self_ms": layer_ms("guidance") * ms_per_call,
        "linalg.svd_calls": count("linalg.svd") * per_call,
        "linalg.svd_self_ms": ms("linalg.svd") * ms_per_call,
        "linalg.svd_entries": tracer.svd_entries * per_call,
        "geometry.self_ms": layer_ms("geometry") * ms_per_call,
        "config.load_ms": layer_ms("config") * ms_per_call,
        "cli.self_ms": layer_ms("cli") * ms_per_call,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    layer_self = {layer: layer_ms(layer) * ms_per_call for layer in LAYERS}
    return raw, layer_self
