"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Criteria and tolerances are pinned here; fixture
seeds are frozen so every run is reproducible.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ckml import autodiff as ad
from ckml.config import HyperConfig
from ckml.dataio import GenConfig, generate_synthetic
from ckml.evaluator import hr_ndcg_at_n, interest_center_distance, rank_positives
from ckml.fbc import BehaviorContext, _route, correlate_shared, route_behavior_layer
from ckml.model import ModelContext, batch_loss, forward
from ckml.numerics import finite_difference_gradcheck
from ckml.objective import score_interactions
from ckml.trainer import (Adam, epoch_ranking_triples, epoch_relation_triples,
                          fit, init_params, save_fit_checkpoint, train_epoch)

from conftest import tiny_dataset
from naive_numerics import softmax_with_temperature
from naive_routing import naive_route_and_aggregate, recorded_coefficients, tape_route


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_gradient_correctness():
    """Analytic vs central-difference gradients on the tiny fixture."""
    t0 = time.time()
    ds = tiny_dataset(num_users=8, num_items=12, num_behaviors=2,
                      relation_count=2, per_user=4, seed=7)
    hyper = HyperConfig(embed_dim=8, specific_interests=1, shared_interests=1,
                        attention_heads=2, tau=1.0, routing_iterations=2,
                        relation_layers=1, interaction_layers=1, time_buckets=2,
                        beta=0.5, reg_lambda=1e-4, seed=7, precision="f64")
    hyper.validate(2)
    ctx = ModelContext(ds, hyper)
    params = init_params(hyper, ds)
    rng = np.random.default_rng(3)
    rank = [epoch_ranking_triples(g, rng) for g in ds.behavior_graphs]
    rel = [epoch_relation_triples(g, rng) for g in ds.relation_graphs]

    def loss_fn(tensors):
        total, _ = batch_loss(tensors, ctx, hyper, rank, rel)
        return total

    rep = finite_difference_gradcheck(loss_fn, params, epsilon=1e-5)
    runtime = time.time() - t0
    report(1, "full-model gradients match central differences < 1e-4",
           rep.overall < 1e-4 and runtime < 60.0,
           f"max_rel_err={rep.overall:.3e}, worst={rep.worst()}, {runtime:.1f}s")


def test_criterion_2_routing_oracle_equivalence():
    """Routing matches an independent naive loop implementation, 20 cases."""
    rng = np.random.default_rng(21)
    worst = 0.0
    cases = 0
    while cases < 20:
        M = int(rng.integers(1, 6))
        N = int(rng.integers(2, 9))
        n_interests = int(rng.choice([1, 2, 4]))
        n_iter = int(rng.choice([1, 2, 3]))
        d_star = int(rng.choice([1, 2, 3]))
        tau = float(rng.choice([0.3, 1.0, 5.0]))
        pairs = {(int(rng.integers(M)), int(rng.integers(N)))
                 for _ in range(rng.integers(1, M * N + 1))}
        edges = sorted(pairs)
        from ckml.dataio import build_behavior_graphs
        records = [(u, i, 0, 0) for u, i in edges]
        graph = build_behavior_graphs(records, M, N, 1)[0]
        ctx = BehaviorContext(graph)
        x = rng.normal(size=(M, n_interests, d_star))
        g = rng.normal(size=(N, n_interests, d_star))
        tu = rng.normal(size=(M, n_interests, d_star)) * 0.2
        ti = rng.normal(size=(N, n_interests, d_star)) * 0.2
        h_u, h_i = route_behavior_layer(
            ctx, ad.Tensor(x), ad.Tensor(g), ad.Tensor(tu), ad.Tensor(ti),
            tau, n_iter, "light")
        want_u, want_i = naive_route_and_aggregate(
            [tuple(e) for e in graph.edges], M, N, x, g, tu, ti, tau, n_iter)
        worst = max(worst, float(np.abs(h_u.data - want_u).max()),
                    float(np.abs(h_i.data - want_i).max()))
        cases += 1
    report(2, "routing equals the naive loop oracle on 20 random instances",
           worst < 1e-10, f"max_abs_diff={worst:.2e}")


def test_criterion_3_normalization_invariants():
    """Per-edge interest distributions and attention weights normalize."""
    rng = np.random.default_rng(33)
    ok = True
    worst_edge = 0.0
    # 600 draws through the actual routing path
    draws = 0
    while draws < 600:
        M, N, S = 3, 4, int(rng.choice([2, 3, 4]))
        from ckml.dataio import build_behavior_graphs
        pairs = {(int(rng.integers(M)), int(rng.integers(N))) for _ in range(6)}
        records = [(u, i, 0, 0) for u, i in sorted(pairs)]
        graph = build_behavior_graphs(records, M, N, 1)[0]
        ctx = BehaviorContext(graph)
        x = ad.Tensor(rng.normal(size=(M, S, 2)))
        g = ad.Tensor(rng.normal(size=(N, S, 2)))
        tau = float(rng.uniform(0.2, 10.0))
        with recorded_coefficients() as coeffs:
            route_behavior_layer(ctx, x, g, None, None, tau, 3, "light")
        for c in coeffs:  # (S, E) per side and iteration
            worst_edge = max(worst_edge, float(np.abs(c.sum(axis=0) - 1).max()))
            draws += c.shape[1]
        # argmax invariance under temperature rescaling of the same logits
        _, _, state = tape_route(ctx, x, g, None, None, tau, 3, collect_state=True)
        for logits_u, logits_i in state.logits:
            for logits in (logits_u, logits_i):
                base = np.argmax(logits, axis=1)
                for tau2 in (0.25, 1.0, 5.0, 20.0):
                    dist = softmax_with_temperature(logits, tau2)
                    if not np.array_equal(np.argmax(dist, axis=1), base):
                        ok = False
    # 400+ attention draws
    worst_lam = 0.0
    for _ in range(40):
        K = int(rng.integers(1, 4))
        sha = [ad.Tensor(rng.normal(size=(5, 2, 4))) for _ in range(K)]
        q = ad.Tensor(rng.normal(size=(2, 2, 2)))
        k = ad.Tensor(rng.normal(size=(2, 2, 2)))
        v = ad.Tensor(rng.normal(size=(2, 2, 2)))
        _, lam = correlate_shared(sha, q, k, v, heads=2)
        worst_lam = max(worst_lam, float(np.abs(lam.data.sum(axis=1) - 1).max()))
    report(3, "interest and attention distributions sum to 1; argmax is "
              "temperature-invariant",
           ok and worst_edge < 1e-6 and worst_lam < 1e-6,
           f"edge_dev={worst_edge:.2e}, lambda_dev={worst_lam:.2e}")


def test_criterion_4_single_interest_reduction():
    """N_*=1 routing reduces to plain means; scoring to a flat dot product."""
    rng = np.random.default_rng(44)
    from ckml.dataio import build_behavior_graphs
    edges = [(0, 0), (0, 1), (1, 0), (2, 2), (1, 3), (2, 0)]
    records = [(u, i, 0, 0) for u, i in edges]
    graph = build_behavior_graphs(records, 3, 4, 1)[0]
    ctx = BehaviorContext(graph)
    # identity-configured interest stacks: the single interest row IS the state
    x = ad.Tensor(rng.normal(size=(3, 1, 6)))
    g = ad.Tensor(rng.normal(size=(4, 1, 6)))
    worst = 0.0
    for n_iter in (1, 2, 3):
        h_u, h_i = _route(ctx, x, g, None, None, 2.5, n_iter)
        for u in range(3):
            items = [i for (uu, i) in edges if uu == u]
            want = g.data[items].mean(axis=0) if items else np.zeros((1, 6))
            worst = max(worst, float(np.abs(h_u.data[u] - want).max()))
        for i in range(4):
            users = [u for (u, ii) in edges if ii == i]
            want = x.data[users].mean(axis=0) if users else np.zeros((1, 6))
            worst = max(worst, float(np.abs(h_i.data[i] - want).max()))
    h_user = rng.normal(size=(64, 1, 8))
    h_item = rng.normal(size=(64, 1, 8))
    scores = score_interactions(ad.Tensor(h_user), ad.Tensor(h_item)).data
    flat = np.einsum("bd,bd->b", h_user.reshape(64, 8), h_item.reshape(64, 8))
    score_dev = float(np.abs(scores - flat).max())
    report(4, "single-interest routing equals plain mean aggregation and "
              "scoring equals the flat dot product",
           worst < 1e-12 and score_dev < 1e-12,
           f"mean_dev={worst:.2e}, score_dev={score_dev:.2e}")


def _training_hr10(params, ctx, hyper, ds):
    out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, hyper)
    k = ds.target_behavior
    u_rep, i_rep = out.user_final[k].data, out.item_final[k].data
    g = ds.behavior_graphs[k]
    scores = np.einsum("usd,isd->uis", u_rep, i_rep).max(axis=2)
    hits = 0
    for (u, p) in g.edges:
        s = scores[u]
        rank = int(np.sum(s > s[p])) + int(np.sum(s == s[p]))
        hits += rank <= 10
    return hits / g.edge_count


def test_criterion_5_overfit_fixture():
    """50 users / 80 items, K=2: memorize the training positives."""
    t0 = time.time()
    gen = GenConfig(num_users=50, num_items=80, num_behaviors=2,
                    relation_count=2, shared_prototypes=2,
                    specific_prototypes=2, interactions_per_user=8)
    ds = generate_synthetic(gen, seed=0, eval_negatives=False)
    hyper = HyperConfig(embed_dim=32, specific_interests=2, shared_interests=2,
                        attention_heads=2, seed=0, interaction_layers=2,
                        learning_rate=2e-2, decay_rate=0.996, batch_size=128,
                        beta=0.0, reg_lambda=0.0)
    hyper.validate(2)
    ctx = ModelContext(ds, hyper)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, ds, rng=rng)
    adam = Adam(params)
    initial = None
    hr = 0.0
    frac = 1.0
    for epoch in range(500):
        losses = train_epoch(params, ctx, hyper, adam, rng, epoch)
        if initial is None:
            initial = losses.ranking
        frac = losses.ranking / initial
        if (epoch + 1) % 25 == 0:
            hr = _training_hr10(params, ctx, hyper, ds)
            if hr >= 0.92 and frac < 0.08:
                break
    hr = _training_hr10(params, ctx, hyper, ds)
    runtime = time.time() - t0
    report(5, "overfit fixture reaches training HR@10 >= 0.9 with ranking "
              "loss < 10% of initial",
           hr >= 0.9 and frac < 0.1 and runtime < 300.0,
           f"hr={hr:.3f}, loss_frac={frac:.3f}, {runtime:.0f}s")


def test_criterion_6_multi_interest_benefit():
    """Full model beats the single-unified-interest ablation on planted data."""
    t0 = time.time()
    gen = GenConfig(num_users=64, num_items=160, num_behaviors=2,
                    relation_count=2, shared_prototypes=2,
                    specific_prototypes=2, interactions_per_user=10,
                    correlation=0.2, secondary_weight=0.3, relation_degree=3)
    wins = 0
    results = []
    for seed in range(5):
        ds = generate_synthetic(gen, seed=seed)
        ndcg = {}
        for name, no_mi in (("full", False), ("no_mi", True)):
            hyper = HyperConfig(embed_dim=16, specific_interests=2,
                                shared_interests=2, attention_heads=2, seed=seed,
                                epochs=150, batch_size=512, learning_rate=1e-2,
                                decay_rate=0.995, beta=0.5, reg_lambda=1e-6,
                                no_mi=no_mi, patience=150)
            ndcg[name] = fit(ds, hyper, top_n=10).best_ndcg
        wins += ndcg["full"] > ndcg["no_mi"]
        results.append(f"{ndcg['full']:.3f}>{ndcg['no_mi']:.3f}")
    runtime = time.time() - t0
    report(6, "full model beats no_mi on test NDCG@10 in >= 4 of 5 seeds",
           wins >= 4 and runtime < 1200.0,
           f"wins={wins}/5 [{', '.join(results)}], {runtime:.0f}s")


def test_criterion_7_interest_initialization_spread():
    """Knowledge-aware initialization spreads interest centers wider."""
    gen = GenConfig(num_users=50, num_items=80, num_behaviors=2,
                    relation_count=2, shared_prototypes=2,
                    specific_prototypes=2, interactions_per_user=8)
    wins = 0
    pairs = []
    for seed in range(5):
        ds = generate_synthetic(gen, seed=seed, eval_negatives=False)
        dist = {}
        for name, flag in (("cie", False), ("rand", True)):
            hyper = HyperConfig(embed_dim=16, specific_interests=2,
                                shared_interests=2, attention_heads=2,
                                seed=seed, no_cie=flag)
            hyper.validate(2)
            ctx = ModelContext(ds, hyper)
            params = init_params(hyper, ds)
            out = forward({k: ad.Tensor(v) for k, v in params.items()}, ctx, hyper)
            stacks = out.item_interest_stacks[ds.target_behavior].data
            dist[name] = interest_center_distance(stacks)["mean"]
        wins += dist["cie"] > dist["rand"]
        pairs.append(f"{dist['cie']:.2f}>{dist['rand']:.2f}")
    report(7, "knowledge-aware init spreads interests wider than random init "
              "in >= 4 of 5 seeds", wins >= 4, f"wins={wins}/5 [{', '.join(pairs)}]")


def test_criterion_8_evaluation_oracle():
    """Rank/HR/NDCG match a brute-force sort oracle on 1000 fuzzed vectors."""
    rng = np.random.default_rng(88)
    mismatches = 0
    for trial in range(1000):
        if trial == 0:
            scores = np.zeros(100)  # all tied
        elif trial % 7 == 0:
            scores = np.round(rng.normal(size=100) * 2) / 2  # tie groups
        else:
            scores = rng.normal(size=100)
        pos = int(rng.integers(0, 100))
        # the evaluator ranks column 0; the others' order leaves ranks alone
        row = np.concatenate(([scores[pos]], np.delete(scores, pos)))
        got_rank = int(rank_positives(row[None])[0])
        order = sorted(range(100), key=lambda j: (-scores[j], j == pos))
        want_rank = order.index(pos) + 1
        got = hr_ndcg_at_n(got_rank, 10)
        want = ((1.0, 1.0 / np.log2(want_rank + 1)) if want_rank <= 10
                else (0.0, 0.0))
        if got_rank != want_rank or got != want:
            mismatches += 1
    report(8, "rank/HR/NDCG match the sort oracle on 1000 fuzzed candidate "
              "lists, ties included", mismatches == 0, f"mismatches={mismatches}")


def test_criterion_9_determinism(tmp_path):
    """Same config and seed give bitwise-identical checkpoints and logs."""
    gen = GenConfig(num_users=12, num_items=130, num_behaviors=2,
                    relation_count=2, shared_prototypes=1,
                    specific_prototypes=1, interactions_per_user=5)
    ds = generate_synthetic(gen, seed=3)
    hyper = HyperConfig(embed_dim=8, specific_interests=1, shared_interests=1,
                        attention_heads=2, time_buckets=2, epochs=3,
                        batch_size=64, seed=3)
    blobs = []
    logs = []
    for run in range(2):
        result = fit(ds, hyper, top_n=10)
        path = tmp_path / f"run{run}.ckml"
        save_fit_checkpoint(path, result, ds, hyper)
        blobs.append(path.read_bytes())
        logs.append(result.history)
    report(9, "repeated deterministic runs are bitwise identical",
           blobs[0] == blobs[1] and logs[0] == logs[1],
           f"checkpoint_bytes={len(blobs[0])}")


def test_criterion_10_full_scale_reproduction_is_documented():
    """Paper-scale numbers are out of desk scope; the long-run path is
    documented rather than executed."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    ok = "full-scale" in text.lower() or "full scale" in text.lower()
    report(10, "full-scale reproduction path is documented (not executed at "
               "desk scale)", ok, "README section present" if ok else "missing")
