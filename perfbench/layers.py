"""Per-layer metrics from the spans of a traced run.

Each traced operation is one ``perfbench.op`` root span; spans are stored in
the order they opened, so an operation's spans are the run of spans from
its root to the next root. "Per call" figures are medians over every call in
the run, "per operation" figures are medians over operations. A layer that
a workload never calls reads 0 (for example Adam on assign-archive).
"""

from __future__ import annotations

import statistics

# children of ``train`` that belong to its ELBO epochs; its other children
# (pretraining, mixture init, evaluation, normalization) are phases of their own
ELBO_WORK = {"numgrad.graph.forward", "numgrad.graph.backward", "numgrad.params.adam_step", "numgrad.params.zero_grads"}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, figures: dict) -> dict:
    spans = tracer.spans
    children = tracer.children()
    roots = [s.id for s in spans if s.name == "perfbench.op"]
    groups = [spans[a:b] for a, b in zip(roots, roots[1:] + [len(spans)])]

    def parent_name(s):
        return None if s.parent is None else spans[s.parent].name

    def calls(name, graph=None, parent=None):
        # a call inside a call of the same layer (normalize -> apply) counts once
        return [
            s
            for s in spans
            if s.name == name
            and parent_name(s) != name
            and (graph is None or s.attrs["graph"] == graph)
            and (parent is None or parent_name(s) == parent)
        ]

    def ms(name, **kw):
        return median([s.seconds * 1e3 for s in calls(name, **kw)])

    def per_op(fn):
        return median([fn(group) for group in groups])

    def op_seconds(name):
        return per_op(lambda group: sum(s.seconds for s in group if s.name == name))

    fwd = "numgrad.graph.forward"
    bwd = "numgrad.graph.backward"
    # a step is one ELBO step of a fit, or one chunk through every encoder of assign-archive
    step_ms = ms(fwd, graph="elbo") + ms(bwd, graph="elbo") or figures["graphs_per_step"] * ms(fwd, graph="infer")
    scores = [
        sum(c.seconds for c in children.get(s.id, ()) if c.name == "metrics.score") * 1e3
        for s in calls("training.evaluate")
    ]
    return {
        "numgrad.graph.elbo_forward_ms": ms(fwd, graph="elbo"),
        "numgrad.graph.elbo_backward_ms": ms(bwd, graph="elbo"),
        "numgrad.graph.pretrain_greedy_forward_ms": ms(fwd, graph="greedy"),
        "numgrad.graph.pretrain_greedy_backward_ms": ms(bwd, graph="greedy"),
        "numgrad.graph.pretrain_finetune_forward_ms": ms(fwd, graph="finetune"),
        "numgrad.graph.pretrain_finetune_backward_ms": ms(bwd, graph="finetune"),
        "numgrad.graph.infer_forward_ms": ms(fwd, graph="infer"),
        "numgrad.graph.nodes": figures["nodes"],
        "numgrad.graph.matmul_gflop_per_step": figures["matmul_gflop_per_step"],
        "numgrad.graph.value_mb_per_step": figures["value_mb_per_step"],
        "numgrad.graph.matmul_gflops": figures["matmul_gflop_per_step"] / (step_ms / 1e3) if step_ms else 0.0,
        "numgrad.params.adam_ms": ms("numgrad.params.adam_step", parent="training.train"),
        "numgrad.params.zero_grads_ms": ms("numgrad.params.zero_grads", parent="training.train"),
        "numgrad.params.n_params": figures["n_params"],
        "numgrad.params.adam_mb_per_step": figures["adam_mb_per_step"],
        "numgrad.params.save_ms": ms("numgrad.params.save"),
        "numgrad.params.load_ms": ms("numgrad.params.load"),
        "training.pretrain_s": op_seconds("training.pretrain"),
        "training.elbo_epochs_s": per_op(
            lambda group: sum(
                tracer.self_seconds(s, children) + sum(c.seconds for c in children.get(s.id, ()) if c.name in ELBO_WORK)
                for s in group
                if s.name == "training.train"
            )
        ),
        "training.init_gmm_s": op_seconds("training.init_gmm"),
        "training.kmeans_s": op_seconds("training.kmeans"),
        "training.evaluate_s": op_seconds("training.evaluate"),
        "training.optimizer_steps": per_op(lambda group: sum(s.name == "numgrad.params.adam_step" for s in group)),
        "model.load_ms": ms("model.load"),
        "model.fused_posterior_ms": ms("model.fused_posterior"),
        "model.responsibilities_ms": ms("model.responsibilities"),
        "data.load_dataset_s": ms("data.load_dataset") / 1e3,
        "data.normalize_ms": ms("data.normalize"),
        "metrics.score_ms": median(scores),
        "cli.assign_self_ms": median([tracer.self_seconds(s, children) * 1e3 for s in calls("cli.assign")]),
    }
