"""Run configuration: a JSON file validated up front and echoed into reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .corpus import read_user_file, read_word_list
from .dro import DroConfig
from .errors import ConfigError, CorpusError, DroError, ExperimentError, FeatureError, LearnerError
from .features import FeatureBlock, FeatureConfig
from .learner import TrainConfig
from .pipeline import PipelineConfig, SegmentationConfig


@dataclass
class RunConfig:
    raw: dict  # verbatim copy embedded in every report
    manifest: Path
    pipeline: PipelineConfig
    seed: int
    output_dir: Path
    disputed_id: str | None
    similar_top_k: int
    threads: int

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if self.similar_top_k < 1:
            raise ConfigError(f"similar_top_k must be at least 1, got {self.similar_top_k}")


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    """Reject keys the parser would not read, so a misspelt key cannot pass unnoticed."""
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: key {key!r} must be of type {kind.__name__}")
    return value


def _optional(mapping: dict, key: str, kind, default, where: str):
    if key not in mapping or mapping[key] is None:
        return default
    return _require(mapping, key, kind, where)


def _parse_features(section: Any, base: Path) -> FeatureConfig:
    if not isinstance(section, dict):
        raise ConfigError("'features' must be an object")
    _check_keys(section, {"blocks", "ngram_orders", "function_word_list", "verbal_ending_list"},
                "features")
    blocks_raw = _require(section, "blocks", list, "features")
    try:
        blocks = frozenset(FeatureBlock(b) for b in blocks_raw)
    except ValueError as exc:
        raise ConfigError(f"features.blocks: {exc}") from None
    orders_raw = _optional(section, "ngram_orders", dict, {}, "features")
    orders = {}
    for name, values in orders_raw.items():
        try:
            block = FeatureBlock(name)
        except ValueError:
            raise ConfigError(f"features.ngram_orders: unknown block {name!r}") from None
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            raise ConfigError(f"features.ngram_orders.{name}: must be a list of integers")
        orders[block] = frozenset(values)

    def load_list(key: str) -> tuple[str, ...]:
        rel = _optional(section, key, str, None, "features")
        if rel is None:
            return ()
        try:
            return read_word_list(base / rel)
        except CorpusError as exc:
            raise ConfigError(str(exc)) from None

    try:
        return FeatureConfig(
            enabled_blocks=blocks,
            ngram_orders=orders,
            function_words=load_list("function_word_list"),
            verbal_endings=load_list("verbal_ending_list"),
        )
    except FeatureError as exc:
        raise ConfigError(f"features: {exc}") from None


def _present(section: Any, where: str, kinds: dict[str, type]) -> dict[str, Any]:
    """The section's keys that are present and not ``null``, each checked
    against its type; the dataclass the section builds supplies the rest.
    """
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where!r} must be an object")
    _check_keys(section, set(kinds), where)
    return {
        key: _require(section, key, kind, where)
        for key, kind in kinds.items()
        if section.get(key) is not None
    }


def _parse_segmentation(section: Any) -> SegmentationConfig:
    kwargs = _present(section, "segmentation", {"min_tokens": int, "include_full_texts": bool})
    try:
        return SegmentationConfig(**kwargs)
    except ExperimentError as exc:
        raise ConfigError(f"segmentation: {exc}") from None


def _parse_dro(section: Any) -> DroConfig | None:
    kwargs = _present(section, "dro", {"enabled": bool, "target_positive_ratio": float})
    if section is None or not kwargs.pop("enabled", True):
        return None
    try:
        return DroConfig(**kwargs)
    except DroError as exc:
        raise ConfigError(f"dro: {exc}") from None


def _parse_learner(section: Any) -> TrainConfig:
    kwargs = _present(section, "learner", {
        "C": float, "C_grid": list, "inner_folds": int, "tolerance": float, "max_iterations": int,
    })
    if "C_grid" in kwargs:
        grid = kwargs["C_grid"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid):
            raise ConfigError("learner.C_grid must be a list of numbers")
        kwargs["C_grid"] = tuple(float(v) for v in grid)
    try:
        return TrainConfig(**kwargs)
    except LearnerError as exc:
        raise ConfigError(f"learner: {exc}") from None


def load_run_config(path: Path | str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    try:
        raw = json.loads(read_user_file(path, "config file"))
    except CorpusError as exc:
        raise ConfigError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    base = path.parent
    _check_keys(raw, {"manifest", "target_author", "disputed_id", "seed", "threads", "output_dir",
                      "similar_top_k", "features", "segmentation", "dro", "learner"}, "config")

    manifest_rel = _require(raw, "manifest", str, "config")
    features = _parse_features(raw.get("features"), base)
    pipeline = PipelineConfig(
        features=features,
        segmentation=_parse_segmentation(raw.get("segmentation")),
        learner=_parse_learner(raw.get("learner")),
        dro=_parse_dro(raw.get("dro")),
        target_author=_optional(raw, "target_author", str, None, "config"),
    )
    output_rel = _optional(raw, "output_dir", str, "stylauth-out", "config")
    return RunConfig(
        raw=raw,
        manifest=base / manifest_rel,
        pipeline=pipeline,
        seed=_optional(raw, "seed", int, 0, "config"),
        output_dir=base / output_rel,
        disputed_id=_optional(raw, "disputed_id", str, None, "config"),
        similar_top_k=_optional(raw, "similar_top_k", int, 10, "config"),
        threads=_optional(raw, "threads", int, 1, "config"),
    )
