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
    output_dir: Path
    seed: int = 0
    disputed_id: str | None = None
    similar_top_k: int = 10
    threads: int = 1

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


def _present(section: dict | None, where: str, kinds: dict[str, type]) -> dict[str, Any]:
    """The section's keys that are present and not ``null``, each checked
    against its type; the dataclass the section builds supplies the rest.
    """
    if section is None:
        return {}
    _check_keys(section, set(kinds), where)
    return {
        key: _require(section, key, kind, where)
        for key, kind in kinds.items()
        if section.get(key) is not None
    }


def _parse_ngram_orders(section: dict) -> dict[FeatureBlock, frozenset[int]]:
    orders = {}
    for name, values in section.items():
        try:
            block = FeatureBlock(name)
        except ValueError:
            raise ConfigError(f"features.ngram_orders: unknown block {name!r}") from None
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            raise ConfigError(f"features.ngram_orders.{name}: must be a list of integers")
        orders[block] = frozenset(values)
    return orders


def _parse_features(section: dict, base: Path) -> FeatureConfig:
    kwargs = _present(section, "features", {
        "blocks": list, "ngram_orders": dict, "function_word_list": str, "verbal_ending_list": str,
    })
    _require(section, "blocks", list, "features")
    try:
        kwargs["enabled_blocks"] = frozenset(FeatureBlock(b) for b in kwargs.pop("blocks"))
    except ValueError as exc:
        raise ConfigError(f"features.blocks: {exc}") from None
    if "ngram_orders" in kwargs:
        kwargs["ngram_orders"] = _parse_ngram_orders(kwargs["ngram_orders"])
    for key, words in (("function_word_list", "function_words"),
                       ("verbal_ending_list", "verbal_endings")):
        if key in kwargs:
            try:
                kwargs[words] = read_word_list(base / kwargs.pop(key))
            except CorpusError as exc:
                raise ConfigError(str(exc)) from None
    try:
        return FeatureConfig(**kwargs)
    except FeatureError as exc:
        raise ConfigError(f"features: {exc}") from None


def _parse_segmentation(section: dict | None) -> SegmentationConfig:
    kwargs = _present(section, "segmentation", {"min_tokens": int, "include_full_texts": bool})
    try:
        return SegmentationConfig(**kwargs)
    except ExperimentError as exc:
        raise ConfigError(f"segmentation: {exc}") from None


def _parse_dro(section: dict | None) -> DroConfig | None:
    """The section's ``DroConfig``, checked even when ``enabled`` is false;
    None when DRO is off, as it is without a section.
    """
    kwargs = _present(section, "dro", {"enabled": bool, "target_positive_ratio": float})
    enabled = section is not None and kwargs.pop("enabled", True)
    try:
        dro = DroConfig(**kwargs)
    except DroError as exc:
        raise ConfigError(f"dro: {exc}") from None
    return dro if enabled else None


def _parse_learner(section: dict | None) -> TrainConfig:
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
    top = _present(raw, "config", {
        "manifest": str, "target_author": str, "disputed_id": str, "seed": int, "threads": int,
        "output_dir": str, "similar_top_k": int,
        "features": dict, "segmentation": dict, "dro": dict, "learner": dict,
    })
    _require(raw, "manifest", str, "config")
    _require(raw, "features", dict, "config")
    base = path.parent
    pipeline = PipelineConfig(
        features=_parse_features(top.pop("features"), base),
        segmentation=_parse_segmentation(top.pop("segmentation", None)),
        learner=_parse_learner(top.pop("learner", None)),
        dro=_parse_dro(top.pop("dro", None)),
        target_author=top.pop("target_author", None),
    )
    # the keys left are RunConfig's; those absent take its defaults
    return RunConfig(
        raw=raw,
        manifest=base / top.pop("manifest"),
        pipeline=pipeline,
        output_dir=base / top.pop("output_dir", "stylauth-out"),
        **top,
    )
