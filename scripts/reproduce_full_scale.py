#!/usr/bin/env python3
"""Optional long-running full-scale reproduction path.

The published benchmark datasets (Yelp, MovieLens-10M, Online Retail)
hold 10^6-10^7 interactions and are evaluated with preprocessed splits
that this repository does not ship. To attempt a full-scale run you must
supply the data yourself:

  1. Export interactions as the TSV format this package reads
     (user<TAB>item<TAB>behavior<TAB>timestamp, 0-based contiguous ids,
     the target behavior as the LAST behavior id), plus item-item
     relation pairs (item_a<TAB>item_b<TAB>relation).
  2. Write a manifest (key=value: users, items, behaviors, relations,
     target_behavior, seed, interactions, relations_file).
  3. Run this script, which trains with the published hyperparameters
     (embedding size 16, Adam at 1e-3 with decay 0.96, 2 attention heads,
     2 routing iterations) and reports HR@10 / NDCG@10.

Expect days on CPU. An epoch costs ceil(E / batch) steps, and part of a
step (interest extraction, the earlier interaction layers, the time
offsets, the regularization and Adam) still runs over the whole graph,
so its time grows with E; the last layer routes only the edges into the
rows the batch's losses reach, and aggregates and attends only the
batch's rows. On a synthetic graph of 25k users x 25k items (two
behaviors, 10 interactions per user per behavior: E = 475k training
edges), batch-32 float32 steps took 0.14-0.17 s each (medians 0.15 and
0.16 s, on two cores of an Intel Xeon, BLAS on one thread) before the
last layer's aggregation and attention were narrowed, which took about a
third off a step in paired runs; an epoch is 14,844 steps: at most about
40 min per epoch, or about three days for the default 100 epochs. The
reach grows with the batch, so larger batches make slower steps (0.16 s
at batch 16, 0.19 s at 64, before that change), but fewer of them. Real
datasets hold more edges.
This artifact's acceptance rests on the desk-scale criteria, not on
reproducing benchmark tables.
"""

import argparse
import sys
from pathlib import Path

from ckml.config import HyperConfig
from ckml.dataio import load_dataset
from ckml.trainer import fit


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--manifest", required=True,
                    help="manifest of a user-prepared full-scale dataset")
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--alpha", default="",
                    help="comma list of per-behavior loss weights")
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if not Path(args.manifest).exists():
        print(f"manifest not found: {args.manifest}\n"
              "prepare the dataset first; see the module docstring",
              file=sys.stderr)
        return 2
    dataset = load_dataset(args.manifest)
    alpha = (tuple(float(a) for a in args.alpha.split(","))
             if args.alpha else ())
    hyper = HyperConfig(embed_dim=16, specific_interests=2, shared_interests=2,
                        attention_heads=2, tau=args.tau, routing_iterations=2,
                        relation_layers=1, interaction_layers=1,
                        learning_rate=1e-3, decay_rate=0.96,
                        batch_size=args.batch_size, epochs=args.epochs,
                        alpha=alpha, beta=0.5, reg_lambda=1e-5, seed=args.seed,
                        precision="f32")
    hyper.validate(dataset.num_behaviors)
    result = fit(dataset, hyper, top_n=10,
                 log=lambda r: print(r, flush=True))
    print(f"best epoch {result.best_epoch}: NDCG@10={result.best_ndcg:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
