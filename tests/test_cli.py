import configparser
import hashlib
import json
import os
import platform
import re
import struct
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckml import cli, trainer
from ckml.cli import main
from ckml.config import (ConfigError, HyperConfig, emit_run_config, load_run_config,
                         parse_run_config)
from ckml.dataio import dataset_hash, load_dataset
from ckml.model import param_specs
from ckml.trainer import check_compatible, load_checkpoint, save_checkpoint

SYNTH_CONFIG = """
[data]
out_dir = {out}
synth_users = 12
synth_items = 130
synth_behaviors = 2
synth_relations = 2
synth_shared_prototypes = 1
synth_specific_prototypes = 1
synth_interactions_per_user = 5

[model]
embed_dim = 8
specific_interests = 1
shared_interests = 1
attention_heads = 2
time_buckets = 2

[train]
seed = 3
epochs = {epochs}
batch_size = 64
learning_rate = 0.005
beta = 0.2
reg_lambda = 0.0001

[eval]
top_n = 10
"""


def write_config(tmp_path, name="run.ini", out="out", epochs=1, extra=""):
    text = SYNTH_CONFIG.format(out=tmp_path / out, epochs=epochs)
    if extra:
        text += extra
    p = tmp_path / name
    p.write_text(text)
    return p


def add_manifest(config_path, manifest):
    text = config_path.read_text()
    text = text.replace("[data]\n", f"[data]\nmanifest = {manifest}\n")
    config_path.write_text(text)


def with_target_ndcg(evaluate, value):
    """`evaluate` that reports `value` as the first behavior's NDCG."""
    def wrapped(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        k, (hr, _, users) = next(iter(report.per_behavior.items()))
        report.per_behavior[k] = (hr, value, users)
        return report
    return wrapped


def assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"


class TestSynth:
    def test_writes_declared_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "users=12" in manifest and "items=130" in manifest
        assert "behaviors=2" in manifest

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.ini", out="a")
        cfg_b = write_config(tmp_path, "b.ini", out="b")
        assert main(["synth", "--config", str(cfg_a)]) == 0
        assert main(["synth", "--config", str(cfg_b)]) == 0
        for name in ("interactions.tsv", "relations.tsv", "ground_truth.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--seed", "-1"]) == 2
        assert_one_error_line(capsys, "seed must be non-negative, got -1")
        cfg.write_text(cfg.read_text().replace("seed = 3", "seed = -5"))
        assert main(["synth", "--config", str(cfg)]) == 2
        assert_one_error_line(capsys, "seed must be non-negative, got -5")
        assert not (tmp_path / "out" / "interactions.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("users", "-1"), ("relation_degree", "-1"), ("interactions_per_user", "-3"),
        ("behaviors", "0"), ("shared_prototypes", "-1"), ("users", "100000000000"),
        ("users", "0"), ("correlation", "2.5")])
    def test_bad_synth_value_exits_2_naming_it(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path)
        text = re.sub(rf"synth_{key} = .*\n", "", cfg.read_text())
        cfg.write_text(text.replace("[data]\n", f"[data]\nsynth_{key} = {value}\n"))
        assert main(["synth", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_emitted_files_reproduce_dataset_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        line = [l for l in printed.splitlines() if l.startswith("dataset_hash=")][0]
        ds = load_dataset(tmp_path / "out" / "manifest.txt")
        assert line.split("=", 1)[1] == dataset_hash(ds)


class TestTrain:
    def test_zero_epochs_writes_checkpoint_and_epoch0_line(self, tmp_path):
        cfg = write_config(tmp_path, epochs=0)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "model.ckml").exists()
        lines = [json.loads(l) for l in
                 (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert any(r.get("epoch") == 0 and "hr" in r for r in lines)

    def test_metrics_log_opens_with_the_run_record(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, epochs=0)
        cfg.write_text(cfg.read_text().replace("seed = 3\n", "seed = 3\nprecision = f32\n"))
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        records = {}
        for name in ("run", "elsewhere"):
            if name == "elsewhere":  # git fails as it does outside a checkout
                monkeypatch.setattr(cli.subprocess, "run", lambda *a, **k:
                                    cli.subprocess.CompletedProcess(a, 128, "", ""))
            assert main(["train", "--config", str(cfg), "--out",
                         str(tmp_path / name)]) == 0
            first = (tmp_path / name / "metrics.jsonl").read_text().splitlines()[0]
            records[name] = json.loads(first)
        record = records["run"]
        assert set(record) == {"metric", "config", "dataset_hash", "python", "numpy",
                               "scipy", "git_sha", "openblas_cores", "numpy_simd"}
        assert record["openblas_cores"] == cli._openblas_cores()
        assert record["numpy_simd"] == cli._numpy_simd()
        assert record["metric"] == "run"
        logged = parse_run_config(record["config"])
        written = load_run_config(cfg)
        assert logged.hyper == written.hyper and logged.hyper.precision == "f32"
        assert logged.manifest == written.manifest and logged.synth == written.synth
        assert "out_dir" not in record["config"]
        ds = load_dataset(tmp_path / "out" / "manifest.txt")
        assert record["dataset_hash"] == dataset_hash(ds)
        assert (record["python"], record["numpy"], record["scipy"]) == (
            platform.python_version(), np.__version__, scipy.__version__)
        sha = record["git_sha"]
        assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)
        assert records["elsewhere"] == {**record, "git_sha": "unknown"}

    @pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                        reason="forces x86 kernels; lists libraries through /proc")
    def test_run_record_names_the_kernels_in_use(self):
        # numpy's bundled OpenBLAS is loaded with numpy; a child forced onto
        # other kernels reports them
        probe = ("import json; from ckml import cli; "
                 "print(json.dumps([cli._openblas_cores(), cli._numpy_simd()]))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_CORETYPE": "Haswell",
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        for forced in (False, True):
            out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                 text=True, timeout=120, env=env if forced else None,
                                 check=True)
            cores, simd = json.loads(out.stdout)
            numpy_lib = [name for name in cores if "openblas64" in name]
            assert numpy_lib and all(core != "unknown" for core in cores.values())
            assert "X86_V2" in simd
            if forced:
                assert cores[numpy_lib[0]] == "Haswell"
                assert not {"X86_V4", "AVX512_ICL", "AVX512_SPR"} & set(simd)

    def test_percent_signs_in_paths_are_literal(self, tmp_path):
        # a raw % and a %% both name themselves: no interpolation
        cfg = write_config(tmp_path, out="50% off %%d")
        assert main(["synth", "--config", str(cfg)]) == 0
        manifest = tmp_path / "50% off %%d" / "manifest.txt"
        assert manifest.is_file()
        add_manifest(cfg, manifest)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        first = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[0]
        logged, written = parse_run_config(json.loads(first)["config"]), load_run_config(cfg)
        assert logged.manifest == written.manifest == str(manifest)
        assert logged.hyper == written.hyper and logged.synth == written.synth

    def test_missing_data_file_exits_2_naming_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        add_manifest(cfg, tmp_path / "nowhere" / "manifest.txt")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "nowhere" in err

    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=0)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        capsys.readouterr()
        run = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert main(run + ["--seed", "-2"]) == 2
        assert_one_error_line(capsys, "seed must be non-negative, got -2")
        cfg.write_text(cfg.read_text().replace("seed = 3", "seed = -1"))
        assert main(run) == 2
        assert_one_error_line(capsys, "seed must be non-negative, got -1")
        assert not (tmp_path / "run" / "model.ckml").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 2

    def test_bad_manifest_values_exit_2_naming_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=0)
        assert main(["synth", "--config", str(cfg)]) == 0
        manifest = tmp_path / "out" / "manifest.txt"
        add_manifest(cfg, manifest)
        good = manifest.read_text()
        for old, new in (("users=12", "users=twelve"), ("seed=3", "seed=1_0"),
                         ("target_behavior=1", "target_behavior=5"),
                         ("target_behavior=1", "target_behavior=2"),
                         ("target_behavior=1", "target_behavior=-1")):
            manifest.write_text(good.replace(old, new))
            assert main(["train", "--config", str(cfg), "--out",
                         str(tmp_path / "run")]) == 2
            assert new.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("tau", "nan"), ("tau", "inf"), ("learning_rate", "nan"),
        ("learning_rate", "1e400"), ("reg_lambda", "nan"), ("reg_lambda", "inf")])
    def test_non_finite_hyperparameter_exits_2_naming_key(self, tmp_path, capsys,
                                                          key, value):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        section = "[model]\n" if key == "tau" else "[train]\n"
        text = re.sub(rf"^{key} = .*\n", "", cfg.read_text(), flags=re.M)
        cfg.write_text(text.replace(section, f"{section}{key} = {value}\n"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckml").exists()

    @pytest.mark.parametrize("key", ["embed_dim", "time_buckets", "routing_iterations",
                                     "relation_layers", "interaction_layers"])
    def test_oversized_model_size_exits_2_naming_key(self, tmp_path, capsys, key):
        # 10**12 asks numpy for terabytes (the first two) or loops without end
        # (the other three), so `validate` must refuse it; only the first two
        # are run through `ckml train`
        with pytest.raises(ConfigError, match=f"^{key}=1000000000000 exceeds the maximum"):
            HyperConfig(**{key: 10**12}).validate()
        if key not in ("embed_dim", "time_buckets"):
            return
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        text = re.sub(rf"^{key} = .*\n", "", cfg.read_text(), flags=re.M)
        cfg.write_text(text.replace("[model]\n", f"[model]\n{key} = {10**12}\n"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}=")

    def test_non_finite_metric_exits_1_without_writing_nan(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = write_config(tmp_path, epochs=0)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        monkeypatch.setattr(trainer, "evaluate",
                            with_target_ndcg(trainer.evaluate, float("nan")))
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 1
        assert "'ndcg'" in capsys.readouterr().err
        assert "NaN" not in (tmp_path / "run" / "metrics.jsonl").read_text()


class TestBadLoadPathInput:
    """Each input below ends in exit 2 with one error line, not a traceback."""

    def _gradcheck(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        capsys.readouterr()
        return lambda: main(["gradcheck", "--config", str(cfg)])

    def _edit_manifest(self, tmp_path, old, new):
        manifest = tmp_path / "out" / "manifest.txt"
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))

    def test_non_utf8_byte_in_tsv(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        path = tmp_path / "out" / "interactions.tsv"
        data = path.read_bytes()
        path.write_bytes(data + b"0\t\xff\t0\t1\n")
        assert run() == 2
        assert_one_error_line(capsys, f"interactions file {path} is not UTF-8: "
                                      f"invalid byte at offset {len(data) + 2}")

    def test_non_utf8_byte_in_manifest(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        path = tmp_path / "out" / "manifest.txt"
        path.write_bytes(b"# \xe9\n" + path.read_bytes())
        assert run() == 2
        assert_one_error_line(
            capsys, f"manifest {path} is not UTF-8: invalid byte at offset 2")

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "gradcheck"])
    def test_non_utf8_byte_in_config(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        cfg.write_bytes(b"# \xff\n" + cfg.read_bytes())
        extra = ["--checkpoint", str(tmp_path / "model.ckml")] if command == "eval" else []
        assert main([command, "--config", str(cfg)] + extra) == 2
        assert_one_error_line(capsys, f"config {cfg} is not UTF-8: invalid byte at offset 2")
        assert not (tmp_path / "out").exists()

    def test_malformed_ground_truth_json(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        path = tmp_path / "out" / "ground_truth.json"
        path.write_text('{"item_prototypes": [0,', encoding="utf-8")
        assert run() == 2
        assert f"ground truth file {path} is not valid JSON" in capsys.readouterr().err

    def test_interactions_path_is_a_directory(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        (tmp_path / "out" / "subdir").mkdir()
        self._edit_manifest(tmp_path, "interactions=interactions.tsv",
                            "interactions=subdir")
        assert run() == 2
        assert_one_error_line(
            capsys, f"interactions file not found: {tmp_path / 'out' / 'subdir'}")

    def test_thirty_digit_dimension(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        self._edit_manifest(tmp_path, "users=12", "users=" + "9" * 30)
        assert run() == 2
        assert_one_error_line(
            capsys, f"manifest users must be below 2**63, got {'9' * 30!r}")

    def test_users_times_items_beyond_int64(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        self._edit_manifest(tmp_path, "users=12", f"users={2**62}")
        assert run() == 2
        assert_one_error_line(
            capsys, f"manifest users x items = {2**62 * 130} must be below 2**63")


    def test_users_past_the_maximum(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        self._edit_manifest(tmp_path, "users=12", f"users={10**15}")
        assert run() == 2
        assert_one_error_line(
            capsys, f"manifest users={10**15} exceeds the maximum {2**24}")

    def test_behaviors_past_the_maximum(self, tmp_path, capsys):
        run = self._gradcheck(tmp_path, capsys)
        self._edit_manifest(tmp_path, "behaviors=2", f"behaviors={10**12}")
        assert run() == 2
        assert_one_error_line(
            capsys, f"manifest behaviors={10**12} exceeds the maximum 64")


class TestEval:
    def _trained(self, tmp_path, epochs=1):
        cfg = write_config(tmp_path, epochs=epochs)
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        return cfg, tmp_path / "run" / "model.ckml"

    def test_eval_matches_training_time_metrics(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 0
        eval_lines = [json.loads(l) for l in
                      (tmp_path / "ev" / "eval.jsonl").read_text().splitlines()]
        train_lines = [json.loads(l) for l in
                       (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        best_epoch = eval_lines[0]["epoch"]
        matching = [r for r in train_lines
                    if r.get("epoch") == best_epoch and "hr" in r
                    and r.get("behavior") == eval_lines[0]["behavior"]]
        assert matching and matching[0]["hr"] == eval_lines[0]["hr"]
        assert matching[0]["ndcg"] == eval_lines[0]["ndcg"]

    def test_interest_distance_matches_training_log(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=2)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 0
        eval_lines = [json.loads(l) for l in
                      (tmp_path / "ev" / "eval.jsonl").read_text().splitlines()]
        train_lines = [json.loads(l) for l in
                       (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        epoch = eval_lines[0]["epoch"]
        [got] = [r for r in eval_lines if r.get("metric") == "interest_distance"]
        [want] = [r for r in train_lines if r.get("metric") == "interest_distance"
                  and r["epoch"] == epoch]
        assert got == want

    def test_checkpoint_holds_only_the_model(self, tmp_path):
        _, ckpt = self._trained(tmp_path)
        loaded = load_checkpoint(ckpt)
        ds = load_dataset(tmp_path / "out" / "manifest.txt")
        assert list(loaded.arrays) == list(param_specs(loaded.hyper(), ds))
        assert not [k for k in loaded.config if k.startswith(("opt", "rng"))]

    def test_checkpoint_with_optimizer_state_evaluates_the_same(self, tmp_path):
        # the layout older versions wrote: Adam's moments after the
        # parameters, the step count and the rng state in the config block
        cfg, ckpt = self._trained(tmp_path)
        loaded = load_checkpoint(ckpt)
        arrays = OrderedDict(loaded.arrays)
        for moment, value in (("m", 0.5), ("v", 0.25)):
            for name, arr in loaded.arrays.items():
                arrays[f"opt/{name}/{moment}"] = np.full_like(arr, value)
        state = np.random.default_rng(3).bit_generator.state
        config = {**loaded.config, "opt.step": "7",
                  "rng.state": json.dumps(state, sort_keys=True)}
        older = tmp_path / "older.ckml"
        save_checkpoint(older, arrays, config)
        ds = load_dataset(tmp_path / "out" / "manifest.txt")
        check_compatible(load_checkpoint(older), ds)
        written = []
        for path, out in ((ckpt, "ev"), (older, "ev_older")):
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(path),
                         "--out", str(tmp_path / out)]) == 0
            written.append((tmp_path / out / "eval.jsonl").read_bytes())
        assert written[0] == written[1]

    def test_truncated_checkpoint_exits_3(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = ckpt.read_bytes()
        cut = tmp_path / "cut.ckml"

        @given(st.integers(0, len(blob) - 1))
        @example(9)
        @example(40)
        @example(len(blob) - 7)
        @settings(max_examples=40, deadline=None)
        def check(offset):
            cut.write_bytes(blob[:offset])
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(cut),
                         "--out", str(tmp_path / "ev")]) == 3

        check()

    def test_single_byte_flips_give_finite_output_or_exit_3(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = ckpt.read_bytes()
        flipped = tmp_path / "flipped.ckml"
        (clen,) = struct.unpack_from("<I", blob, 6)
        (nlen,) = struct.unpack_from("<I", blob, 10 + clen + 4)
        first_dims = 10 + clen + 4 + 4 + nlen + 1

        def no_constant(name):
            raise AssertionError(f"eval.jsonl holds {name}")

        @given(st.integers(0, len(blob) - 1), st.integers(0, 255))
        @example(first_dims + 7, 0xff)
        @example(first_dims + 4, 0x01)
        @settings(max_examples=150, deadline=None)
        def check(offset, value):
            data = bytearray(blob)
            data[offset] = value
            flipped.write_bytes(bytes(data))
            with np.errstate(all="ignore"):  # corrupt weights may overflow
                code = main(["eval", "--config", str(cfg), "--checkpoint", str(flipped),
                             "--out", str(tmp_path / "ev")])
            assert code in (0, 3)
            if code == 0:
                for line in (tmp_path / "ev" / "eval.jsonl").read_text().splitlines():
                    json.loads(line, parse_constant=no_constant)

        check()

    def test_array_byte_flips_exit_3(self, tmp_path, capsys):
        # the config block holds a sha256 of the arrays' bytes: a change to
        # any byte of them, which the structural checks cannot see, fails it
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = ckpt.read_bytes()
        flipped = tmp_path / "flipped.ckml"
        (clen,) = struct.unpack_from("<I", blob, 6)
        (count,) = struct.unpack_from("<I", blob, 10 + clen)
        at, offsets = 14 + clen, []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, at)
            rank = blob[at + 4 + nlen]
            at += 5 + nlen
            shape = struct.unpack_from(f"<{rank}Q", blob, at)
            at += 8 * rank + 1
            size = int(np.prod(shape)) * {1: 4, 2: 8}[blob[at - 1]]
            offsets.extend(range(at, at + size))
            at += size
        assert at == len(blob) and offsets

        def flip(offset, value):
            data = bytearray(blob)
            data[offset] = value
            flipped.write_bytes(bytes(data))

        change = np.random.default_rng(0).integers(1, 256, size=len(offsets))
        for offset, delta in zip(offsets, change):
            flip(offset, blob[offset] ^ int(delta))
            with pytest.raises(trainer.CompatibilityError, match="sha256"):
                load_checkpoint(flipped)

        @given(st.sampled_from(offsets), st.integers(1, 255))
        @settings(max_examples=20, deadline=None)
        def check(offset, delta):
            flip(offset, blob[offset] ^ delta)
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(flipped),
                         "--out", str(tmp_path / "ev")]) == 3

        check()
        assert "sha256" in capsys.readouterr().err

    def test_checkpoint_without_digest_loads(self, tmp_path, capsys):
        # a file without the digest, and one with the older digest of the
        # arrays' payloads alone, load and evaluate as the file they came from
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = ckpt.read_bytes()
        (clen,) = struct.unpack_from("<I", blob, 6)
        lines = blob[10:10 + clen].decode("utf-8").splitlines(keepends=True)
        kept = "".join(l for l in lines if not l.startswith("checkpoint.sha256=")).encode()
        assert len(kept) < clen
        payloads = hashlib.sha256()
        for arr in load_checkpoint(ckpt).arrays.values():
            payloads.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
        older = kept + f"arrays.sha256={payloads.hexdigest()}\n".encode()
        for name, block in (("old", kept), ("older", older)):
            path = tmp_path / f"{name}.ckml"
            path.write_bytes(blob[:6] + struct.pack("<I", len(block)) + block
                             + blob[10 + clen:])
            assert "checkpoint.sha256" not in load_checkpoint(path).config
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(path),
                         "--out", str(tmp_path / f"ev_{name}")]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 0
        want = (tmp_path / "ev" / "eval.jsonl").read_bytes()
        for name in ("old", "older"):
            assert (tmp_path / f"ev_{name}" / "eval.jsonl").read_bytes() == want

    @pytest.mark.parametrize("field", ["config value", "array name", "shape field"])
    def test_config_name_and_shape_flips_exit_3(self, tmp_path, capsys, field):
        # the digest covers the config block and every array's header, so a
        # changed routing temperature, which the structural checks pass, and a
        # renamed array exit 3 through it; a changed dimension exits 3 too
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = bytearray(ckpt.read_bytes())
        (clen,) = struct.unpack_from("<I", blob, 6)
        (nlen,) = struct.unpack_from("<I", blob, 10 + clen + 4)
        if field == "config value":
            at = blob.index(b"hyper.tau=") + len(b"hyper.tau=")
            blob[at] = ord("3") if blob[at] != ord("3") else ord("4")
        elif field == "array name":
            at = blob.index(b"embed/item") + len(b"embed/")
            blob[at] = ord("j")
        else:
            blob[10 + clen + 4 + 4 + nlen + 1] ^= 0x01  # the first array's first dim
        flipped = tmp_path / "flipped.ckml"
        flipped.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(flipped),
                     "--out", str(tmp_path / "ev")]) == 3
        if field != "shape field":
            assert "sha256" in capsys.readouterr().err

    def _resaved(self, tmp_path, edit):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        loaded = load_checkpoint(ckpt)
        edit(loaded.arrays)
        save_checkpoint(tmp_path / "edited.ckml", loaded.arrays, loaded.config)
        return main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "edited.ckml"), "--out", str(tmp_path / "ev")])

    def test_missing_parameter_array_exits_3(self, tmp_path, capsys):
        assert self._resaved(tmp_path, lambda a: a.pop("embed/item")) == 3
        assert "embed/item" in capsys.readouterr().err

    def test_misshapen_parameter_array_exits_3(self, tmp_path, capsys):
        def narrow(arrays):
            arrays["embed/item"] = arrays["embed/item"][:, :-1]
        assert self._resaved(tmp_path, narrow) == 3
        assert "embed/item" in capsys.readouterr().err

    def test_non_finite_metric_exits_1_without_writing_it(self, tmp_path, capsys,
                                                         monkeypatch):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        monkeypatch.setattr(cli, "evaluate", with_target_ndcg(cli.evaluate, float("inf")))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 1
        assert "'ndcg'" in capsys.readouterr().err
        assert "Infinity" not in (tmp_path / "ev" / "eval.jsonl").read_text()

    def test_checkpoint_relabelled_to_other_precision_exits_3(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        for precision, dtype in (("f32", np.float64), ("f64", np.float32)):
            loaded = load_checkpoint(ckpt)
            loaded.config["hyper.precision"] = precision
            arrays = {k: v.astype(dtype) for k, v in loaded.arrays.items()}
            save_checkpoint(tmp_path / "edited.ckml", arrays, loaded.config)
            assert main(["eval", "--config", str(cfg), "--checkpoint",
                         str(tmp_path / "edited.ckml"), "--out", str(tmp_path / "ev")]) == 3
            assert f"hyper.precision={precision}" in capsys.readouterr().err

    def test_non_positive_top_n_exits_2(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        for n in ("0", "-2"):
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--n", n, "--out", str(tmp_path / "ev")]) == 2
            assert "top_n" in capsys.readouterr().err
        cfg.write_text(cfg.read_text().replace("top_n = 10", "top_n = 0"))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 2
        assert "top_n" in capsys.readouterr().err

    def test_hr_monotone_in_n(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path)
        hrs = {}
        for n in (1, 10):
            main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--n", str(n), "--out", str(tmp_path / f"ev{n}")])
            line = json.loads((tmp_path / f"ev{n}" / "eval.jsonl")
                              .read_text().splitlines()[0])
            hrs[n] = line["hr"]
        assert hrs[1] <= hrs[10]

    def test_repeated_array_name_exits_3(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        blob = ckpt.read_bytes()
        at = blob.index(b"embed/item")
        assert blob.index(b"embed/user") < at
        edited = tmp_path / "edited.ckml"
        edited.write_bytes(blob[:at] + b"embed/user" + blob[at + len(b"embed/item"):])
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(edited),
                     "--out", str(tmp_path / "ev")]) == 3
        assert_one_error_line(capsys, "checkpoint repeats array embed/user")

    def test_checkpoint_is_a_directory_exits_3(self, tmp_path, capsys):
        cfg, _ = self._trained(tmp_path, epochs=0)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "run"),
                     "--out", str(tmp_path / "ev")]) == 3
        assert_one_error_line(capsys, f"checkpoint {tmp_path / 'run'} is a directory")

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        cfg, _ = self._trained(tmp_path, epochs=0)
        missing = tmp_path / "missing.ckml"
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(missing),
                     "--out", str(tmp_path / "ev")]) == 3
        assert_one_error_line(capsys, f"checkpoint {missing} not found")

    def test_config_is_a_directory_exits_2(self, tmp_path, capsys):
        _, ckpt = self._trained(tmp_path, epochs=0)
        capsys.readouterr()
        assert main(["eval", "--config", str(tmp_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 2
        assert_one_error_line(capsys, f"config {tmp_path} is a directory")

    def test_out_is_a_regular_file_exits_2(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        capsys.readouterr()
        for args in (["train", "--config", str(cfg)],
                     ["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]):
            assert main(args + ["--out", str(taken)]) == 2
            assert_one_error_line(capsys, f"output directory {taken} is not a directory")
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, name", [
        ("synth", "interactions.tsv"), ("synth", "relations.tsv"),
        ("synth", "ground_truth.json"), ("synth", "manifest.txt"),
        ("train", "metrics.jsonl"), ("train", "model.ckml"), ("eval", "eval.jsonl")])
    def test_output_file_that_is_a_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      command, name):
        cfg, ckpt = self._trained(tmp_path, epochs=0)
        out = tmp_path / "taken"
        (out / name).mkdir(parents=True)
        capsys.readouterr()

        def no_work(*args, **kwargs):
            pytest.fail("the command worked before checking its output paths")
        for work in ("synthesize_records", "load_dataset", "load_checkpoint", "fit",
                     "evaluate"):
            monkeypatch.setattr(cli, work, no_work)
        extra = ["--checkpoint", str(ckpt)] if command == "eval" else []
        assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
        assert_one_error_line(capsys, f"{out / name} is a directory")
        assert list(out.iterdir()) == [out / name] and (out / name).is_dir()

    def test_overflowing_scores_exit_3(self, tmp_path, capsys):
        repo = Path(__file__).resolve().parent.parent
        text = (repo / "configs" / "gradcheck.ini").read_text()
        cfg = tmp_path / "gradcheck.ini"
        cfg.write_text(text.replace("runs/gradcheck", str(tmp_path / "gc"))
                       .replace("epochs = 0", "epochs = 1"))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "gc" / "model.ckml"
        loaded = load_checkpoint(ckpt)
        for name in loaded.arrays:
            if name.startswith("embed/"):
                loaded.arrays[name] = loaded.arrays[name] * 1e155
        save_checkpoint(ckpt, loaded.arrays, loaded.config)
        capsys.readouterr()
        with np.errstate(all="ignore"):  # the products overflow on purpose
            code = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "ev")])
        assert code == 3
        assert_one_error_line(capsys, f"checkpoint {ckpt} evaluates to non-finite values: "
                                      "candidate scores contain non-finite values")

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path)
        other_cfg = write_config(tmp_path, "other.ini", out="other")
        other_cfg.write_text(other_cfg.read_text()
                             .replace("synth_items = 130", "synth_items = 131"))
        main(["synth", "--config", str(other_cfg)])
        add_manifest(other_cfg, tmp_path / "other" / "manifest.txt")
        assert main(["eval", "--config", str(other_cfg), "--checkpoint",
                     str(ckpt), "--out", str(tmp_path / "ev3")]) == 3


class TestGradcheck:
    def test_passes_on_tiny_fixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "overall max_rel_err" in out

    def test_corrupted_backward_fails_and_names_group(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        assert main(["gradcheck", "--config", str(cfg),
                     "--corrupt-grad", "embed/user"]) == 1
        out = capsys.readouterr().out
        assert "worst parameter group: embed/user" in out

    def test_epsilon_must_be_finite_and_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        for eps in ("0", "-1e-5", "nan", "inf"):
            assert main(["gradcheck", "--config", str(cfg), f"--epsilon={eps}"]) == 2
            assert "--epsilon" in capsys.readouterr().err

    def test_lambda_only_loss_tight_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # zero alpha and beta leave the objective exactly quadratic in the
        # params; unit lambda keeps the quotient away from rounding noise
        cfg.write_text(cfg.read_text()
                       .replace("beta = 0.2", "beta = 0.0")
                       .replace("reg_lambda = 0.0001", "reg_lambda = 1.0")
                       .replace("[eval]", "alpha = 0.0,0.0\n\n[eval]"))
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        # central differences are exact for quadratics at any epsilon; a
        # larger step keeps the quotient clear of float rounding noise
        assert main(["gradcheck", "--config", str(cfg), "--epsilon", "0.01"]) == 0
        out = capsys.readouterr().out
        overall = float(out.rsplit("max_rel_err=", 1)[1].split()[0])
        assert overall < 1e-8


class TestZeroRelations:
    """A dataset without relations leaves interest extraction nothing to
    extract from: each command that builds the model exits 2 naming both."""

    @pytest.fixture
    def cfg(self, tmp_path):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("synth_relations = 2", "synth_relations = 0"))
        assert main(["synth", "--config", str(cfg)]) == 0
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        return cfg

    @staticmethod
    def assert_named(capsys):
        err = capsys.readouterr().err
        assert "relations = 0" in err and "no_cie" in err

    def test_train_exits_2(self, cfg, tmp_path, capsys):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        self.assert_named(capsys)
        assert not (tmp_path / "run" / "model.ckml").exists()

    def test_gradcheck_exits_2(self, cfg, capsys):
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        self.assert_named(capsys)

    def test_eval_exits_2(self, cfg, tmp_path, capsys):
        dataset = load_dataset(tmp_path / "out" / "manifest.txt")
        hyper = load_run_config(cfg).hyper
        ckpt = tmp_path / "model.ckml"
        save_checkpoint(ckpt, trainer.init_params(hyper, dataset),
                        trainer._config_block(hyper, dataset, 0))
        check_compatible(load_checkpoint(ckpt), dataset)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "ev")]) == 2
        self.assert_named(capsys)

    def test_no_cie_trains_and_evaluates(self, cfg, tmp_path):
        cfg.write_text(cfg.read_text().replace("[model]\n", "[model]\nno_cie = true\n"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "run" / "model.ckml"), "--out", str(tmp_path / "ev")]) == 0


class TestShippedConfigs:
    def test_gradcheck_config_passes_end_to_end(self, tmp_path, capsys):
        repo = Path(__file__).resolve().parent.parent
        text = (repo / "configs" / "gradcheck.ini").read_text()
        text = text.replace("runs/gradcheck", str(tmp_path / "gc"))
        cfg = tmp_path / "gradcheck.ini"
        cfg.write_text(text)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["gradcheck", "--config", str(cfg)]) == 0

    def test_gradcheck_audits_in_float64_whatever_the_precision(self, tmp_path, capsys):
        repo = Path(__file__).resolve().parent.parent
        text = (repo / "configs" / "gradcheck.ini").read_text()
        cfg = tmp_path / "gradcheck.ini"
        cfg.write_text(text.replace("runs/gradcheck", str(tmp_path / "gc")))
        assert main(["synth", "--config", str(cfg)]) == 0
        for precision in ("f64", "f32"):
            cfg.write_text(text.replace("runs/gradcheck", str(tmp_path / "gc"))
                           .replace("[train]\n", f"[train]\nprecision = {precision}\n"))
            capsys.readouterr()
            assert main(["gradcheck", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"auditing in f64 (config precision={precision})\n")
            assert "overall max_rel_err=1.274e-05 (tolerance 1e-04)" in out
        assert main(["gradcheck", "--config", str(cfg), "--corrupt-grad", "attn/l0/Q"]) == 1
        assert "worst parameter group: attn/l0/Q" in capsys.readouterr().out

    def test_all_shipped_configs_parse_and_validate(self):
        from ckml.config import load_run_config
        repo = Path(__file__).resolve().parent.parent
        for name in ("gradcheck.ini", "overfit.ini", "synthetic_study.ini"):
            cfg = load_run_config(repo / "configs" / name)
            cfg.validate(cfg.synth.num_behaviors)


class TestDeterminism:
    def test_two_train_runs_bitwise_identical(self, tmp_path):
        cfg = write_config(tmp_path, epochs=2)
        main(["synth", "--config", str(cfg)])
        add_manifest(cfg, tmp_path / "out" / "manifest.txt")
        for d in ("r1", "r2"):
            assert main(["train", "--config", str(cfg), "--out",
                         str(tmp_path / d)]) == 0
        assert ((tmp_path / "r1" / "model.ckml").read_bytes()
                == (tmp_path / "r2" / "model.ckml").read_bytes())
        assert ((tmp_path / "r1" / "metrics.jsonl").read_bytes()
                == (tmp_path / "r2" / "metrics.jsonl").read_bytes())


def _gradcheck_keys():
    """Every (section, key) that the emitted `configs/gradcheck.ini` holds."""
    repo = Path(__file__).resolve().parent.parent
    parser = configparser.ConfigParser()
    parser.read_string(emit_run_config(load_run_config(repo / "configs" / "gradcheck.ini")))
    return parser, [(s, k) for s in parser.sections() for k in parser[s]]


FUZZ_BASE, FUZZ_KEYS = _gradcheck_keys()


class TestConfigFuzz:
    """One key of `gradcheck.ini` at a time takes each value of a pool of
    bad or extreme ones; `synth` and then a one-epoch `train` end in a
    documented exit code and never let an exception escape. `train` reads a
    dataset synthesized from the unchanged config, so a value that `synth`
    rejects still reaches `train`. The maxima in `config.HYPER_MAXIMA` make
    10**12 fail before anything is allocated."""

    VALUES = ("nan", "inf", "-1", "0", "1e400", str(10**12), "0.5", "abc", "")

    @staticmethod
    def write(path, out_dir, manifest, section=None, key=None, value=None):
        parser = configparser.ConfigParser()
        parser.read_dict(FUZZ_BASE)
        parser["data"]["out_dir"] = str(out_dir)
        parser["data"]["manifest"] = str(manifest)
        parser["train"]["epochs"] = "1"
        if section is not None:
            parser[section][key] = value
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return str(path)

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz_base")
        cfg = self.write(base / "base.ini", base / "data", base / "data" / "manifest.txt")
        assert main(["synth", "--config", cfg]) == 0
        return base / "data" / "manifest.txt"

    @pytest.mark.parametrize("section, key", FUZZ_KEYS, ids=[k for _, k in FUZZ_KEYS])
    def test_every_value_exits_documented(self, section, key, manifest, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)  # a relative out_dir or manifest lands here
        for n, value in enumerate(self.VALUES):
            cfg = self.write(tmp_path / f"{n}.ini", tmp_path / str(n), manifest,
                             section, key, value)
            for command in ("synth", "train"):
                code = main([command, "--config", cfg])
                assert code in (0, 1, 2), (key, value, command, code)


class TestDataFileFuzz:
    """Byte-level mutations of a synthesized dataset's manifest and TSV
    files: a byte replaced, a truncation, an insertion of one of `INSERTS`
    and a deletion, at positions drawn from a fixed seed. A one-epoch
    `train` on each mutated dataset exits 0 or 2 and lets no exception
    escape."""

    FILES = ("manifest.txt", "interactions.tsv", "relations.tsv")
    INSERTS = (b"\t", b"\n", b"-", b"1" * 23, b"nan", b"\xff", b"\x00")

    @staticmethod
    def mutations(data: bytes, rng):
        """(kind, mutated bytes): one replacement, truncation and deletion
        and one insertion of each of `INSERTS`, each at a drawn offset."""
        def at():
            return int(rng.integers(len(data)))
        pos = at()
        yield "replace", data[:pos] + bytes([int(rng.integers(256))]) + data[pos + 1:]
        yield "truncate", data[:at()]
        pos = at()
        yield "delete", data[:pos] + data[pos + int(rng.integers(1, 9)):]
        for token in TestDataFileFuzz.INSERTS:
            pos = at()
            yield f"insert {token!r}", data[:pos] + token + data[pos:]

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("byte_fuzz_base")
        cfg = TestConfigFuzz.write(base / "base.ini", base / "data",
                                   base / "data" / "manifest.txt")
        assert main(["synth", "--config", cfg]) == 0
        return base / "data"

    @pytest.mark.parametrize("name", FILES)
    def test_every_mutation_exits_0_or_2(self, name, dataset_dir, tmp_path):
        rng = np.random.default_rng([2024, self.FILES.index(name)])
        original = (dataset_dir / name).read_bytes()
        for n in range(4):
            for kind, mutated in self.mutations(original, rng):
                data = tmp_path / f"{n}-{kind}"
                data.mkdir()
                for f in dataset_dir.iterdir():
                    (data / f.name).write_bytes(mutated if f.name == name else
                                                f.read_bytes())
                cfg = TestConfigFuzz.write(data / "run.ini", data / "run",
                                           data / "manifest.txt")
                assert main(["train", "--config", cfg]) in (0, 2), (name, n, kind)
