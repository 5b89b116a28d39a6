import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckml.cli import main
from ckml.dataio import dataset_hash, load_dataset
from ckml.trainer import load_checkpoint, save_checkpoint

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

    def test_missing_data_file_exits_2_naming_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        add_manifest(cfg, tmp_path / "nowhere" / "manifest.txt")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "nowhere" in err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 2


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
        del want["epoch"]
        assert got == want

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


class TestShippedConfigs:
    def test_gradcheck_config_passes_end_to_end(self, tmp_path, capsys):
        repo = Path(__file__).resolve().parent.parent
        text = (repo / "configs" / "gradcheck.ini").read_text()
        text = text.replace("runs/gradcheck", str(tmp_path / "gc"))
        cfg = tmp_path / "gradcheck.ini"
        cfg.write_text(text)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["gradcheck", "--config", str(cfg)]) == 0

    def test_all_shipped_configs_parse_and_validate(self):
        from ckml.config import load_run_config
        repo = Path(__file__).resolve().parent.parent
        for name in ("gradcheck.ini", "overfit.ini", "synthetic_study.ini"):
            cfg = load_run_config(repo / "configs" / name)
            cfg.validate(cfg.synth.behaviors)


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
