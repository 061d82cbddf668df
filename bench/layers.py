"""Where the traced run wraps stylauth, and the per-layer metrics it derives.

Every target is named by the module its caller looks the function up in,
because ``from x import f`` binds a separate name in each importing
module. Counts come from arguments and return values: instance ids,
``FeatureSpace.dim``, ``TrainedModel.n_iter``/``converged`` and matrix
rows. Warnings come from a handler on the ``stylauth.learner`` logger.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

LEAF_LAYERS = ("corpus.", "features.", "dro.", "learner.")

# Per thread, span self times must add up to the thread's root spans
# within this share of the traced wall time.
SELF_TIME_TOLERANCE = 1e-6


def _instance_id(tracer: Tracer, args, kwargs, result) -> None:
    inst = args[0]
    tracer.instance_ids.add(getattr(inst, "instance_id", None) or inst.id)


def _columns(tracer: Tracer, args, kwargs, result) -> None:
    tracer.sample("features.columns", result.dim)


def _synthetic_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("dro.synthetic_rows", sum(1 for ex in result if ex.synthetic))


def _model(prefix: str):
    def record(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(f"{prefix}_lbfgs_iters", result.n_iter)
        if not result.converged:
            tracer.count("learner.nonconverged_fits")
        if prefix == "learner.final":
            tracer.sample("pipeline.train_rows", args[0].shape[0])

    return record


def _pool_scored(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("experiments.pools_scored")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported stylauth package."""
    w = tracer.wrap
    w("stylauth.cli.main", "cli.main")
    w("stylauth.cli.load_corpus", "cli.load_corpus")
    w("stylauth.cli.write_report", "cli.write_report")
    w("stylauth.cli.write_csv", "cli.write_report")
    w("stylauth.cli.loo_run", "evaluation.loo_run")
    w("stylauth.cli.ablate", "experiments.ablate")
    w("stylauth.experiments.loo_run", "evaluation.loo_run", _pool_scored)
    w("stylauth.evaluation._run_fold", "evaluation.fold")
    for module in ("evaluation", "experiments"):
        w(f"stylauth.{module}.fit_verifier", "pipeline.fit_verifier")
        w(f"stylauth.{module}.predict_document", "pipeline.predict_document")
    w("stylauth.pipeline.segment", "corpus.segment")
    w("stylauth.pipeline.extract_all", "features.extract", _instance_id)
    w("stylauth.pipeline.fit_feature_space_from_counts", "features.fit_space", _columns)
    w("stylauth.experiments.fit_feature_space_from_counts", "features.fit_space", _columns)
    w("stylauth.pipeline.vectorize_counts", "features.vectorize")
    w("stylauth.dro.fit_profiles", "dro.fit_profiles")
    w("stylauth.pipeline.oversample", "dro.oversample", _synthetic_rows)
    w("stylauth.dro.sample_latent_counts", "dro.sample")
    w("stylauth.pipeline.extend", "dro.extend")
    w("stylauth.pipeline.tune_C", "learner.tune_C")
    w("stylauth.learner.train_binary", "learner.inner_fit", _model("learner.inner"))
    w("stylauth.learner.train_multiclass", "learner.inner_fit", _model("learner.inner"))
    w("stylauth.pipeline.train_binary", "learner.final_fit", _model("learner.final"))
    w("stylauth.pipeline.train_multiclass", "learner.final_fit", _model("learner.final"))
    tracer.count_log_warnings(
        "stylauth.learner", "reducing inner folds", "learner.inner_fold_reductions"
    )


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def metrics(tracer: Tracer, wall_s: float, cpu_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration that took ``wall_s`` seconds."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    c = tracer.counters
    extract_calls = calls("features.extract")
    leaf_self = sum(s for name, (_, _, s) in totals.items() if name.startswith(LEAF_LAYERS))
    return {
        "cli.load_corpus_s": inclusive("cli.load_corpus"),
        "cli.write_report_s": inclusive("cli.write_report"),
        "corpus.segment_calls": calls("corpus.segment"),
        "corpus.segment_s": inclusive("corpus.segment"),
        "features.extract_s": inclusive("features.extract"),
        "features.extract_calls": extract_calls,
        "features.extract_distinct": len(tracer.instance_ids),
        "features.extract_reuse_ratio": (
            len(tracer.instance_ids) / extract_calls if extract_calls else 0.0
        ),
        "features.fit_space_s": inclusive("features.fit_space"),
        "features.vectorize_s": inclusive("features.vectorize"),
        "features.vectorize_calls": calls("features.vectorize"),
        "features.columns_mean": _mean(tracer.samples["features.columns"]),
        "dro.fit_profiles_s": inclusive("dro.fit_profiles"),
        "dro.oversample_s": inclusive("dro.oversample"),
        "dro.sample_s": inclusive("dro.sample"),
        "dro.sample_calls": calls("dro.sample"),
        "dro.synthetic_rows": c["dro.synthetic_rows"],
        "dro.extend_s": inclusive("dro.extend"),
        "learner.tune_C_s": inclusive("learner.tune_C"),
        "learner.inner_fits": calls("learner.inner_fit"),
        "learner.inner_lbfgs_iters": c["learner.inner_lbfgs_iters"],
        "learner.final_fit_s": inclusive("learner.final_fit"),
        "learner.final_lbfgs_iters": c["learner.final_lbfgs_iters"],
        "learner.nonconverged_fits": c["learner.nonconverged_fits"],
        "learner.inner_fold_reductions": c["learner.inner_fold_reductions"],
        "pipeline.fit_verifier_s": own("pipeline.fit_verifier"),
        "pipeline.predict_document_s": own("pipeline.predict_document"),
        "pipeline.train_rows_mean": _mean(tracer.samples["pipeline.train_rows"]),
        "evaluation.loo_runs": calls("evaluation.loo_run"),
        "evaluation.folds": calls("evaluation.fold"),
        "evaluation.fold_s_sum": inclusive("evaluation.fold"),
        "evaluation.cpu_busy_ratio": cpu_s / (wall_s * workers),
        "experiments.ablate_s": inclusive("experiments.ablate"),
        "experiments.pools_scored": c["experiments.pools_scored"],
        "trace.wall_s": wall_s,
        "trace.leaf_share": leaf_self / (wall_s * workers),
    }


def module_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time summed per stylauth module, over all threads."""
    out: dict[str, float] = {}
    for name, (_, _, self_s) in tracer.totals().items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_s
    return out
