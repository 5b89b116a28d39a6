import pytest

from ckml.config import (ConfigError, HyperConfig, RunConfig, emit_run_config,
                         parse_run_config)

# Every accepted key per section, in the order emit_run_config writes them.
KEYS = {
    "data": ["manifest", "out_dir", "synth_users", "synth_items", "synth_behaviors",
             "synth_relations", "synth_shared_prototypes", "synth_specific_prototypes",
             "synth_interactions_per_user", "synth_correlation", "synth_relation_degree"],
    "model": ["embed_dim", "specific_interests", "shared_interests", "tau",
              "routing_iterations", "relation_layers", "interaction_layers",
              "attention_heads", "aggregator", "leaky_slope", "time_buckets",
              "time_embedding", "no_cie", "no_fbc", "no_mi", "shared_only",
              "specific_only"],
    "train": ["alpha", "beta", "reg_lambda", "learning_rate", "decay_rate",
              "batch_size", "epochs", "seed", "patience", "precision"],
    "eval": ["top_n", "eval_all_behaviors"],
}
SECTION_KEYS = [(section, key) for section, keys in KEYS.items() for key in keys]

BASIC = """
[data]
manifest = data/manifest.txt
out_dir = runs/demo

[model]
embed_dim = 16
specific_interests = 2
shared_interests = 2
tau = 0.5
aggregator = gccf

[train]
alpha = 0.5,1.0
learning_rate = 0.002
epochs = 7

[eval]
top_n = 5
"""


class TestParsing:
    def test_basic_round_values(self):
        cfg = parse_run_config(BASIC)
        assert cfg.manifest == "data/manifest.txt"
        assert cfg.hyper.embed_dim == 16
        assert cfg.hyper.tau == 0.5
        assert cfg.hyper.aggregator == "gccf"
        assert cfg.hyper.alpha == (0.5, 1.0)
        assert cfg.hyper.epochs == 7
        assert cfg.top_n == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config("[model]\nembedding_size = 16\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_run_config("[optimizer]\nlr = 1\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_run_config("[model]\nno_cie = maybe\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_run_config("[model]\nembed_dim = four\n")

    def test_emit_parse_round_trip(self):
        cfg = parse_run_config(BASIC)
        again = parse_run_config(emit_run_config(cfg))
        assert again == cfg

    def test_round_trip_of_defaults(self):
        cfg = RunConfig()
        assert parse_run_config(emit_run_config(cfg)) == cfg


class TestKeyTable:
    def test_defaults_emit_every_section_and_key_in_order(self):
        sections, keys = [], {}
        for line in emit_run_config(RunConfig()).splitlines():
            if line.startswith("["):
                sections.append(line.strip("[]"))
                keys[sections[-1]] = []
            elif line:
                keys[sections[-1]].append(line.split(" = ")[0])
        assert sections == list(KEYS)
        assert keys == KEYS

    @pytest.mark.parametrize("section, key", SECTION_KEYS,
                             ids=[f"{s}.{k}" for s, k in SECTION_KEYS])
    def test_key_is_accepted_only_in_its_own_section(self, section, key):
        value = dict(line.split(" = ", 1) for line
                     in emit_run_config(RunConfig()).splitlines() if " = " in line)[key]
        assert parse_run_config(f"[{section}]\n{key} = {value}\n") == RunConfig()
        for other in KEYS:
            if other != section:
                with pytest.raises(ConfigError) as err:
                    parse_run_config(f"[{other}]\n{key} = {value}\n")
                assert str(err.value) == f"unknown key {key!r} in section [{other}]"

    @pytest.mark.parametrize("key", [k[len("synth_"):] for k in KEYS["data"]
                                     if k.startswith("synth_")])
    def test_synth_key_needs_its_prefix(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section \\[data\\]"):
            parse_run_config(f"[data]\n{key} = 1\n")


class TestHyperValidation:
    def test_defaults_valid(self):
        HyperConfig().validate(2)

    def test_interest_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            HyperConfig(embed_dim=10, specific_interests=2,
                        shared_interests=1).validate(2)

    def test_heads_divide_interest_width(self):
        with pytest.raises(ConfigError, match="heads"):
            HyperConfig(embed_dim=12, specific_interests=1, shared_interests=2,
                        attention_heads=3).validate(2)

    def test_alpha_length_checked(self):
        with pytest.raises(ConfigError, match="alpha"):
            HyperConfig(alpha=(1.0,)).validate(2)

    def test_alpha_range_checked(self):
        with pytest.raises(ConfigError, match="alpha"):
            HyperConfig(alpha=(1.5, 0.5)).validate(2)

    def test_exclusive_ablations(self):
        with pytest.raises(ConfigError):
            HyperConfig(shared_only=True, specific_only=True).validate(2)
        with pytest.raises(ConfigError):
            HyperConfig(no_mi=True, shared_only=True).validate(2)

    def test_no_mi_implies_module_removal(self):
        h = HyperConfig(no_mi=True)
        h.validate(2)
        assert h.cie_disabled and h.fbc_disabled
        assert h.interest_structure() == (0, 1, 16)

    def test_tau_positive(self):
        with pytest.raises(ConfigError, match="tau"):
            HyperConfig(tau=0.0).validate(2)

    def test_alphas_default_to_ones(self):
        assert HyperConfig().alphas_for(3) == (1.0, 1.0, 1.0)
