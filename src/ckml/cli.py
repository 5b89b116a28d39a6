"""Command-line entry points: synth, train, eval, gradcheck.

Exit codes: 0 ok, 1 numeric failure, 2 data/config error, 3 checkpoint
compatibility error (also a checkpoint whose weights evaluate to
non-finite values). Every command is reproducible: in one checkout and
environment, (config, seed) fully determines all outputs byte for byte.
`train`'s metrics.jsonl opens with a `run` record naming both.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from .config import ConfigError, emit_run_config, load_run_config
from .dataio import (DataError, dataset_hash, load_dataset,
                     synthesize_records, write_interactions, write_manifest,
                     write_relations)
from .model import ModelContext, batch_loss
from .numerics import NumericError, finite_difference_gradcheck
from .trainer import (CompatibilityError, _metrics_records, check_compatible,
                      epoch_ranking_triples, epoch_relation_triples, fit, init_params,
                      load_checkpoint, save_fit_checkpoint)
from .evaluator import evaluate

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_DATA = 2
EXIT_COMPAT = 3

GRADCHECK_TOLERANCE = 1e-4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckml",
        description="multi-behavior multi-interest recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("synth", "generate a synthetic dataset"),
                      ("train", "train a model from a config"),
                      ("eval", "evaluate a checkpoint"),
                      ("gradcheck", "finite-difference gradient audit")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="run config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--n", type=int, default=None, help="metric cutoff N")
        if name == "gradcheck":
            p.add_argument("--corrupt-grad", default=None,
                           help="test hook: scale one parameter's gradient by 2")
            p.add_argument("--epsilon", type=float, default=1e-5,
                           help="central-difference step")
    return parser


def _load_config(args):
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.hyper.seed = args.seed
    if getattr(args, "n", None) is not None:
        cfg.top_n = args.n
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _out_dir(cfg, *files) -> Path:
    """The output directory, created if missing, in which none of the
    command's output `files` may be a directory: checked before any work."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {out} is not a directory") from None
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"{out / name} is a directory")
    return out


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    out = _out_dir(cfg, "interactions.tsv", "relations.tsv", "ground_truth.json",
                   "manifest.txt")
    s = cfg.synth
    seed = cfg.hyper.seed
    records, rel_records, ground_truth = synthesize_records(s, seed)
    write_interactions(out / "interactions.tsv", records)
    write_relations(out / "relations.tsv", rel_records)
    (out / "ground_truth.json").write_text(
        json.dumps(ground_truth, sort_keys=True), encoding="utf-8")
    write_manifest(out / "manifest.txt", num_users=s.num_users, num_items=s.num_items,
                   num_behaviors=s.num_behaviors, relation_count=s.relation_count,
                   target_behavior=s.num_behaviors - 1, seed=seed,
                   interactions="interactions.tsv", relations="relations.tsv",
                   ground_truth="ground_truth.json")
    print(f"wrote {out / 'manifest.txt'}")
    print(f"dataset_hash={dataset_hash(load_dataset(out / 'manifest.txt'))}")
    return EXIT_OK


def _json_line(record: dict) -> str:
    """`record` as one JSON line. JSON has no NaN or infinity, so a record
    holding one raises NumericError naming its key instead of being written."""
    try:
        return json.dumps(record, allow_nan=False) + "\n"
    except ValueError:
        for key, value in record.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise NumericError(
                    f"non-finite value under {key!r} cannot be written as JSON") from None
        raise


def _jsonl_writer(path):
    fh = open(path, "w", encoding="utf-8")

    def write(record):
        fh.write(_json_line(record))
        fh.flush()
    return fh, write


def _git_sha() -> str:
    """HEAD of the checkout holding the package, or "unknown" outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas_cores():
    """{file name: CPU core} of each OpenBLAS loaded into this process, on
    which dense products' bytes depend; "unknown" where a library names
    none, or in place of the map where libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    cores = {}
    for path in sorted(paths):
        cores[Path(path).name] = "unknown"
        try:
            lib = ctypes.CDLL(path)  # loaded already: no new library is opened
        except OSError:  # a mapping whose file is gone
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                get_corename = getattr(lib, symbol)
                get_corename.argtypes, get_corename.restype = (), ctypes.c_char_p
                cores[Path(path).name] = get_corename().decode()
                break
    return cores


def _numpy_simd():
    """numpy's build baseline and the dispatch targets this CPU enables
    (`NPY_DISABLE_CPU_FEATURES` removes some), or "unknown"."""
    try:
        from numpy._core import _multiarray_umath as umath
        return (list(umath.__cpu_baseline__)
                + [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)])
    except (ImportError, AttributeError):
        return "unknown"


def _run_record(cfg, dataset) -> dict:
    """The record that opens metrics.jsonl: what ran, on what, with what.
    The config leaves out `out_dir`, the log's own location, so two runs of
    one config and seed log the same bytes."""
    return {"metric": "run", "config": emit_run_config(cfg, omit=("out_dir",)),
            "dataset_hash": dataset_hash(dataset), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "git_sha": _git_sha(),
            "openblas_cores": _openblas_cores(), "numpy_simd": _numpy_simd()}


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if not cfg.manifest:
        raise ConfigError("config has no data.manifest to train on")
    out = _out_dir(cfg, "metrics.jsonl", "model.ckml")
    dataset = load_dataset(cfg.manifest)
    cfg.validate(dataset.num_behaviors)
    fh, write = _jsonl_writer(out / "metrics.jsonl")
    try:
        write(_run_record(cfg, dataset))
        result = fit(dataset, cfg.hyper, top_n=cfg.top_n,
                     eval_all_behaviors=cfg.eval_all_behaviors, log=write)
    finally:
        fh.close()
    ckpt_path = out / "model.ckml"
    save_fit_checkpoint(ckpt_path, result, dataset, cfg.hyper)
    print(f"best epoch {result.best_epoch} ndcg@{cfg.top_n} {result.best_ndcg:.6f}")
    print(f"wrote {ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    if not cfg.manifest:
        raise ConfigError("config has no data.manifest to evaluate on")
    if cfg.top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {cfg.top_n}")
    out = _out_dir(cfg, "eval.jsonl")
    dataset = load_dataset(cfg.manifest)
    ckpt = load_checkpoint(args.checkpoint)
    check_compatible(ckpt, dataset)
    hyper = ckpt.hyper()
    ctx = ModelContext(dataset, hyper)
    try:
        report = evaluate(ckpt.model_params(), ctx, hyper, cfg.top_n,
                          all_behaviors=cfg.eval_all_behaviors)
    except NumericError as exc:
        # the forward's only other floats are the dataset's bounded graph
        # weights, so the checkpoint's values are at fault
        raise CompatibilityError(
            f"checkpoint {args.checkpoint} evaluates to non-finite values: {exc}") from exc
    with open(out / "eval.jsonl", "w", encoding="utf-8") as fh:
        for record in _metrics_records(report, ckpt.int_value("epoch")):
            fh.write(_json_line(record))
            if "behavior" in record:
                print(f"behavior {record['behavior']}: HR@{cfg.top_n}={record['hr']:.6f} "
                      f"NDCG@{cfg.top_n}={record['ndcg']:.6f} ({record['users']} users)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    if not cfg.manifest:
        raise ConfigError("config has no data.manifest for the gradient audit")
    if not 0 < args.epsilon < math.inf:
        raise ConfigError(f"--epsilon must be finite and positive, got {args.epsilon}")
    dataset = load_dataset(cfg.manifest)
    cfg.validate(dataset.num_behaviors)
    # the formulas are audited in float64 whatever `precision` says: float32
    # roundoff would swamp the central differences
    hyper = replace(cfg.hyper, precision="f64")
    print(f"auditing in f64 (config precision={cfg.hyper.precision})")
    ctx = ModelContext(dataset, hyper)
    params = init_params(hyper, dataset)
    rng = np.random.default_rng(hyper.seed + 1)
    rank_batches = []
    for k in range(dataset.num_behaviors):
        triples = epoch_ranking_triples(dataset.behavior_graphs[k], rng)
        rank_batches.append(triples)
    rel_batches = [epoch_relation_triples(g, rng) for g in dataset.relation_graphs]

    def loss_fn(tensors):
        total, _ = batch_loss(tensors, ctx, hyper, rank_batches, rel_batches)
        return total

    hook = None
    if args.corrupt_grad is not None:
        target = args.corrupt_grad

        def hook(name, grad):
            return grad * 2.0 if name == target else grad

    report = finite_difference_gradcheck(loss_fn, params, epsilon=args.epsilon,
                                         grad_hook=hook)
    for name, err in report.per_parameter.items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{status:4s} {name:32s} max_rel_err={err:.3e}")
    print(f"overall max_rel_err={report.overall:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    if report.overall >= GRADCHECK_TOLERANCE:
        print(f"worst parameter group: {report.worst()}")
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
                "gradcheck": cmd_gradcheck}
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IsADirectoryError as exc:  # an output file's path is a directory
        print(f"error: {exc.filename2 or exc.filename} is a directory", file=sys.stderr)
        return EXIT_DATA
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
