"""INI run-configuration parsing and validation."""

import pytest

from dialbench.config import ConfigError, coerce, load_config, parse_int_list


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_full_config_round_trip(tmp_path):
    path = write(tmp_path, """
[task]
name = env3-SFR

[policy]
algorithm = gpsarsa
nu = 0.001
max_points = 500

[simuser]
profile = unfriendly

[errormodel]
preset = noisy15
p_confuse_value = 0.5

[harness]
seeds = 0,1,2
dialogues = 4000
eval_at = 1000, 4000
test_dialogues = 250
out = runs/exp1
""")
    cfg = load_config(path)
    assert cfg["task"] == {"name": "env3-SFR"}
    assert cfg["policy"]["algorithm"] == "gpsarsa"
    assert cfg["policy"]["nu"] == 0.001
    assert cfg["policy"]["max_points"] == 500
    assert cfg["simuser"] == {"profile": "unfriendly"}
    assert cfg["errormodel"]["preset"] == "noisy15"
    assert cfg["errormodel"]["p_confuse_value"] == 0.5
    assert cfg["harness"]["seeds"] == (0, 1, 2)
    assert cfg["harness"]["dialogues"] == 4000
    assert cfg["harness"]["eval_at"] == (1000, 4000)
    assert cfg["harness"]["test_dialogues"] == 250
    assert cfg["harness"]["out"] == "runs/exp1"


def test_empty_sections_allowed(tmp_path):
    assert load_config(write(tmp_path, "[task]\nname = env1-CR\n")) == {
        "task": {"name": "env1-CR"}
    }


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[experiment\]"):
        load_config(write(tmp_path, "[experiment]\nname = x\n"))


def test_task_accepts_only_name(tmp_path):
    with pytest.raises(ConfigError, match="only 'name'"):
        load_config(write(tmp_path, "[task]\ndomain = CR\n"))


def test_simuser_profile_validated(tmp_path):
    with pytest.raises(ConfigError, match="unknown profile"):
        load_config(write(tmp_path, "[simuser]\nprofile = hostile\n"))
    with pytest.raises(ConfigError, match="only 'profile'"):
        load_config(write(tmp_path, "[simuser]\npatience = 3\n"))


def test_errormodel_fields_validated(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(write(tmp_path, "[errormodel]\npreset = silent\n"))
    with pytest.raises(ConfigError, match="no field"):
        load_config(write(tmp_path, "[errormodel]\nwer = 0.3\n"))
    cfg = load_config(write(tmp_path, "[errormodel]\nser = 0.2\n"))
    assert cfg["errormodel"]["ser"] == 0.2


def test_harness_keys_validated(tmp_path):
    with pytest.raises(ConfigError, match=r"\[harness\] supports"):
        load_config(write(tmp_path, "[harness]\nepochs = 10\n"))


def test_harness_seed_list_must_be_integers(tmp_path):
    with pytest.raises(ConfigError, match="comma list of integers"):
        load_config(write(tmp_path, "[harness]\nseeds = 0,one,2\n"))


def test_harness_dialogues_must_be_integer(tmp_path):
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(write(tmp_path, "[harness]\ndialogues = many\n"))
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(write(tmp_path, "[harness]\ntest_dialogues = 1.5\n"))


def test_single_seed_still_a_tuple(tmp_path):
    cfg = load_config(write(tmp_path, "[harness]\nseeds = 5\n"))
    assert cfg["harness"]["seeds"] == (5,)


def test_malformed_ini_reports_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(write(tmp_path, "no section header here\nkey = value\n"))


# ------------------------------------------------------------- helpers


def test_coerce_priorities():
    assert coerce("42") == 42 and isinstance(coerce("42"), int)
    assert coerce("0.15") == 0.15 and isinstance(coerce("0.15"), float)
    assert coerce("true") is True
    assert coerce("OFF") is False
    assert coerce("  env1-CR  ") == "env1-CR"


def test_parse_int_list():
    assert parse_int_list("1, 2,3", "x") == (1, 2, 3)
    assert parse_int_list("7", "x") == (7,)
    with pytest.raises(ConfigError):
        parse_int_list("", "x")
    with pytest.raises(ConfigError):
        parse_int_list("a,b", "x")


def test_harness_out_stays_text(tmp_path):
    for text in ("123", "1.50", "yes"):
        cfg = load_config(write(tmp_path, f"[harness]\nout = {text}\n"))
        assert cfg["harness"]["out"] == text


def test_errormodel_values_are_type_checked(tmp_path):
    with pytest.raises(ConfigError, match="'nbest_max' must be int"):
        load_config(write(tmp_path, "[errormodel]\nnbest_max = 2.5\n"))
    with pytest.raises(ConfigError, match="'p_add_item' must be float"):
        load_config(write(tmp_path, "[errormodel]\np_add_item = on\n"))
    cfg = load_config(write(tmp_path, "[errormodel]\np_add_item = 1\n"))
    assert cfg["errormodel"]["p_add_item"] == 1


# ------------------------------------------------------------- file reading


def test_values_are_literal_text(tmp_path):
    cfg = load_config(write(tmp_path, "[harness]\nout = runs%x/%(y)s\n"))
    assert cfg["harness"]["out"] == "runs%x/%(y)s"


def test_default_section_is_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(write(tmp_path, "[DEFAULT]\nprofile = standard\n"
                                    "[simuser]\n"))
    assert load_config(write(tmp_path, "[DEFAULT]\n[task]\nname = x\n")) \
        == {"task": {"name": "x"}}
