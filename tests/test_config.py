"""Config file parsing, typing, validation, and overrides."""

import os
import re

import pytest

from protflow.config import (
    L_MAX_CAP,
    SCHEMA,
    SIZE_CAP,
    load_config,
    parse_chains_value,
    parse_config_text,
)
from protflow.errors import ConfigError, DataError
from protflow.ode import METHODS


def test_defaults_cover_every_key():
    cfg = load_config(None)
    assert set(cfg.to_dict()) == set(SCHEMA)
    assert cfg["model.D"] == 64
    assert cfg["model.ratio_c"] == 4
    assert cfg["train.lr"] == 1e-3
    assert cfg["solver.method"] == "dopri5"
    assert cfg["data.train_path"] is None
    assert cfg["chains"] is None


def test_parse_file_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "model.depth = 3\n"
        "train.lr = 5e-4   # inline comment\n"
        "model.attention = true\n"
        "solver.method = euler\n"
        "\n"
        "train.steps = 10\n"
    )
    cfg = load_config(str(path))
    assert cfg["model.depth"] == 3 and isinstance(cfg["model.depth"], int)
    assert cfg["train.lr"] == 5e-4 and isinstance(cfg["train.lr"], float)
    assert cfg["model.attention"] is True
    assert cfg["solver.method"] == "euler"
    assert cfg["train.steps"] == 10
    # untouched keys keep their defaults
    assert cfg["train.batch"] == SCHEMA["train.batch"][1]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("model.depht = 3\n")


def test_bad_values_rejected():
    for line in ("model.depth = soon", "train.lr = abc", "model.attention = yes"):
        with pytest.raises(ConfigError, match="bad"):
            parse_config_text(line)


def test_missing_equals_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("model.depth = 3\njust words\n")


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_overrides_take_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.depth = 3\n")
    cfg = load_config(str(path), overrides=["model.depth=5", "train.seed=9"])
    assert cfg["model.depth"] == 5
    assert cfg["train.seed"] == 9
    with pytest.raises(ConfigError, match="key=value"):
        load_config(str(path), overrides=["model.depth"])


def test_range_checks():
    bad = [
        "model.depth=0",
        "train.batch=0",
        "train.steps=-1",
        "train.lr=0",
        "train.lr=-1",
        "train.lr_min=-0.1",
        "train.clip=0",
        "train.clip=-1",
        "solver.steps=0",
        "solver.steps=101",
        "solver.method=rk4",
        "model.embed_scale=0",
        # every float key must be finite; NaN fails every comparison
        "train.weight_decay=nan",
        "train.lr_min=nan",
        "train.lr=nan",
        "train.lr=inf",
        "train.clip=inf",
        "train.weight_decay=inf",
        "model.embed_scale=inf",
        "solver.atol=inf",
        "solver.rtol=inf",
        "solver.atol=nan",
        f"model.L_max={L_MAX_CAP + 1}",
        f"chains=A:3,B:{L_MAX_CAP + 1}",
        f"model.depth={SIZE_CAP + 1}",
        "model.depth=1000000000",
        f"model.width={SIZE_CAP + 1}",
        f"model.decoder_hidden={SIZE_CAP + 1}",
        f"model.D={2 * SIZE_CAP}",
        # reflow needs a nonempty coupling set, and every command reads the row
        "reflow.pairs=0",
    ]
    for override in bad:
        with pytest.raises(ConfigError):
            load_config(None, overrides=[override])
    # divisibility: latent width must split evenly into compressed channels
    with pytest.raises(ConfigError, match="divisible"):
        load_config(None, overrides=["model.D=10", "model.ratio_c=4"])
    load_config(None, overrides=["model.D=16", "model.ratio_c=4"])  # fine
    # the sinusoidal positional table needs an even width
    with pytest.raises(ConfigError, match="even"):
        load_config(None, overrides=["model.D=7", "model.ratio_c=1"])
    # a rank-limited token table cannot have more factors than channels
    with pytest.raises(ConfigError, match="embed_rank"):
        load_config(None, overrides=["model.D=8", "model.embed_rank=9"])
    load_config(None, overrides=["model.D=8", "model.embed_rank=8"])  # fine


def test_data_paths_checked(tmp_path):
    data = tmp_path / "train.fasta"
    data.write_text(">a\nACD\n")
    cfg = load_config(None, overrides=[f"data.train_path={data}"])
    assert cfg["data.train_path"] == str(data)
    with pytest.raises(DataError, match="does not exist"):
        load_config(None, overrides=["data.train_path=/nonexistent/x.fasta"])


def test_require():
    cfg = load_config(None)
    with pytest.raises(ConfigError, match="must be set"):
        cfg.require("data.train_path")
    assert cfg.require("model.D") == 64


def test_to_dict_is_a_copy():
    cfg = load_config(None)
    snapshot = cfg.to_dict()
    snapshot["model.D"] = 999
    assert cfg["model.D"] == 64


def _chain_pairs(text):
    """The (name, l_max) of each ChainSpec parse_chains_value returns."""
    chains = parse_chains_value(text)
    assert all(c.pipeline is None for c in chains)
    return [(c.name, c.l_max) for c in chains]


def test_parse_chains():
    assert _chain_pairs("A:30,B:24") == [("A", 30), ("B", 24)]
    assert _chain_pairs(" A : 30 , B:24 ") == [("A", 30), ("B", 24)]
    # syntax errors, then multichain.ChainLayout's rules as ConfigError
    bad = [("A", "name:length"), (":5", "name:length"), ("A:x", "bad chain length"),
           (" , ", "names no chains"), ("A:3,A:4", "duplicate"), ("A:0", r"in \[1, "),
           (f"A:{L_MAX_CAP + 1}", r"in \[1, ")]
    for text, match in bad:
        with pytest.raises(ConfigError, match=match):
            parse_chains_value(text)


def test_l_max_cap_is_inclusive():
    cfg = load_config(None, overrides=[f"model.L_max={L_MAX_CAP}", f"chains=A:{L_MAX_CAP}"])
    assert cfg["model.L_max"] == L_MAX_CAP
    assert _chain_pairs(cfg["chains"]) == [("A", L_MAX_CAP)]


def test_size_cap_is_inclusive():
    sizes = ("model.depth", "model.width", "model.D", "model.decoder_hidden")
    cfg = load_config(None, overrides=[f"{key}={SIZE_CAP}" for key in sizes])
    assert [cfg[key] for key in sizes] == [SIZE_CAP] * 4


def test_chains_validated_inside_load():
    cfg = load_config(None, overrides=["chains=A:3,B:4"])
    assert _chain_pairs(cfg["chains"]) == [("A", 3), ("B", 4)]
    with pytest.raises(ConfigError):
        load_config(None, overrides=["chains=A:0"])


def test_readme_configuration_table_matches_schema():
    # Each row names one key, or `a` / `b` with one shared default or one each;
    # a default of — means unset (None). The solver.method row names exactly
    # the methods ode.METHODS lists, in its order.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    methods = None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        keys = [k.strip().strip("`") for k in cells[0].split(" / ")]
        if keys == ["solver.method"]:
            methods = tuple(re.findall(r"`([^`]+)`", cells[2]))
        defaults = [d.strip() for d in cells[1].split(" / ")]
        defaults = defaults * len(keys) if len(defaults) == 1 else defaults
        assert len(defaults) == len(keys), line
        for key, text in zip(keys, defaults):
            assert key not in documented, f"{key} documented twice"
            documented[key] = None if text == "—" else parse_config_text(f"{key} = {text}")[key]
    assert documented == {key: row[1] for key, row in SCHEMA.items()}
    assert methods == METHODS
