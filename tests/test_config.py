import pytest

from ckml.config import (ConfigError, HyperConfig, RunConfig, emit_run_config,
                         parse_run_config)

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
