import json
import os
import re
from types import SimpleNamespace
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

import jmpgcf.evaluation
import jmpgcf.training
from jmpgcf import (
    InteractionDataset,
    LayerSelectionConfig,
    PhaseSchedule,
    PopularityConfig,
    SelectedLayers,
    TrainConfig,
    evaluate,
    init_parameters,
    load_checkpoint,
    load_dataset,
    propagate,
    propagation_matrices,
    rank_user,
    save_checkpoint,
)
from jmpgcf.cli import ConfigError, RunConfig, _build_parser, _resolve_config, main

from conftest import make_blocked_dataset, make_random_dataset, save_dataset


@pytest.fixture
def toy_dir(tmp_path):
    """Trainable random dataset on disk."""
    ds = make_random_dataset(np.random.default_rng(0), 12, 10, max_degree=5, with_test=True)
    save_dataset(ds, tmp_path / "train.txt", tmp_path / "test.txt")
    return tmp_path


@pytest.fixture
def bipartite_dir(tmp_path):
    """Complete bipartite 4x3 fixture (selection succeeds at hop 1/2)."""
    (tmp_path / "train.txt").write_text("".join(f"{u} 0 1 2\n" for u in range(4)))
    (tmp_path / "test.txt").write_text("")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestConfigResolution:
    def parse(self, *argv):
        return _build_parser().parse_args([str(a) for a in argv])

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("embed_dim=16\nlearning_rate=0.01\n")
        flag = _resolve_config(self.parse("train", "--config", cfg_file, "--embed-dim", "8"))
        assert flag.embed_dim == 8
        assert flag.learning_rate == 0.01
        file_only = _resolve_config(self.parse("train", "--config", cfg_file))
        assert file_only.embed_dim == 16
        default = _resolve_config(self.parse("train"))
        assert default.embed_dim == RunConfig().embed_dim == 64

    def test_defaults_match_reference_settings(self):
        cfg = RunConfig()
        assert (cfg.embed_dim, cfg.batch_size) == (64, 2048)
        assert (cfg.learning_rate, cfg.l2_coeff) == (1e-3, 1e-4)
        assert (cfg.c, cfg.k, cfg.alpha) == (0.1, 2, 0.5)
        assert (cfg.epochs_per_phase, cfg.topk) == (300, 20)

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("shiny=1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            _resolve_config(self.parse("train", "--config", cfg_file))

    def test_config_file_comments_and_blanks(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\n\nseed=9\nshared_base=true\nlambda_weights=1,2,3\n")
        cfg = _resolve_config(self.parse("train", "--config", cfg_file))
        assert cfg.seed == 9
        assert cfg.shared_base is True
        assert cfg.lambda_weights == (1.0, 2.0, 3.0)

    def test_lambda_weights_length_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="lambda_weights"):
            _resolve_config(self.parse("train", "--k", "1", "--lambda-weights", "1,1,1"))

    def test_half_specified_layers_rejected(self):
        with pytest.raises(ConfigError, match="together"):
            _resolve_config(self.parse("train", "--l-odd", "1"))

    @pytest.mark.parametrize("name", [spec.name for spec in fields(RunConfig)])
    def test_every_field_is_a_flag_and_a_config_key(self, name, tmp_path):
        types = get_type_hints(RunConfig)
        sample = {str: "somewhere", int: "3", float: "0.25", bool: "true", tuple: "1,2,3"}
        # settings that are only valid together
        names = {
            "l_odd": ["l_odd", "l_even"],
            "l_even": ["l_odd", "l_even"],
            "validation_fraction": ["validation_fraction", "eval_every"],
        }.get(name, [name])
        argv, lines = [], []
        for key in names:
            # l_even=3 would be rejected before any data is read: even layers only
            text = {"l_even": "4"}.get(key, sample[types[key]])
            flag = "--" + key.replace("_", "-")
            argv += [flag] if types[key] is bool else [flag, text]
            lines.append(f"{key}={text}")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        by_flag = _resolve_config(self.parse("train", *argv))
        by_file = _resolve_config(self.parse("train", "--config", cfg_file))
        assert by_flag == by_file
        assert getattr(by_flag, name) != getattr(RunConfig(), name)

    @pytest.mark.parametrize(
        "command, extra", [("select-layers", 27), ("train", 27), ("evaluate", 29), ("predict", 29)]
    )
    def test_option_count_per_subcommand(self, command, extra):
        subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
        actions = subparsers.choices[command]._actions
        options = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
        assert len(options) == extra
        assert {"--config", "--lambda-weights", "--no-shared-base", "--l-odd"} <= options

    def test_defaults_are_the_library_defaults(self):
        cfg = RunConfig()
        assert cfg.popularity == PopularityConfig()
        assert cfg.selection == LayerSelectionConfig()
        assert cfg.training == TrainConfig()
        assert cfg.schedule == PhaseSchedule.uniform(PopularityConfig().max_granularity, 300)
        assert cfg.layers is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": "0"},
            {"learning_rate": "-1"},
            {"l2_coeff": "-1"},
            {"embed_dim": "0"},
            {"epochs_per_phase": "-1"},
            {"l_odd": "2", "l_even": "2"},
            {"alpha": "2"},
            {"sample_size": "0"},
            {"max_hops": "1"},
            {"c": "0"},
            {"k": "-1"},
            {"lambda_weights": "1,0,1"},
            *(pytest.param({key: value}, id=f"{key}={value}")
              for key, value in [("c", "nan"), ("c", "inf"), ("lambda_weights", "nan,1,1"),
                                 ("lambda_weights", "1,inf,1"), ("learning_rate", "nan"),
                                 ("learning_rate", "inf"), ("l2_coeff", "nan"),
                                 ("l2_coeff", "inf")]),
        ],
        ids=lambda bad: next(iter(bad)),
    )
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["select-layers", "train", "evaluate", "predict"])
    def test_bad_value_exits_2_before_reading_data(self, command, source, bad, toy_dir, capsys):
        """Each library type checks its keys before the data is read."""
        (toy_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        settings = {"l_odd": "1", "l_even": "2", **bad}
        if source == "flag":
            given = [arg for name, value in settings.items()
                     for arg in ("--" + name.replace("_", "-"), value)]
        else:
            cfg_file = toy_dir / "run.cfg"
            cfg_file.write_text("".join(f"{name}={value}\n" for name, value in settings.items()))
            given = ["--config", cfg_file]
        extra = {"evaluate": ["--checkpoint", toy_dir / "x.ckpt"],
                 "predict": ["--checkpoint", toy_dir / "x.ckpt", "--user", "0"]}
        rc = run(command, "--data-dir", toy_dir, "--output-dir", toy_dir,
                 *extra.get(command, []), *given)
        assert rc == 2
        assert re.search(rf"\b{next(iter(bad))}=", capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["select-layers", "train", "evaluate", "predict"])
    def test_deleted_setting_exits_2_naming_it(self, command, source, toy_dir, capsys):
        """The optimizer is no longer a setting: as a flag or as a config
        key it is unknown, named, and refused before the data is read."""
        (toy_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        if source == "flag":
            given, named = ["--optimizer", "adam"], "unrecognized arguments: --optimizer"
        else:
            (toy_dir / "run.cfg").write_text("optimizer=adam\n")
            given, named = ["--config", toy_dir / "run.cfg"], "unknown key 'optimizer'"
        extra = {"evaluate": ["--checkpoint", toy_dir / "x.ckpt"],
                 "predict": ["--checkpoint", toy_dir / "x.ckpt", "--user", "0"]}
        rc = run(command, "--data-dir", toy_dir, "--output-dir", toy_dir,
                 *extra.get(command, []), *given)
        assert rc == 2
        assert named in capsys.readouterr().err


class TestSelectLayersCommand:
    def test_complete_bipartite_writes_layers_json(self, bipartite_dir, capsys):
        rc = run("select-layers", "--data-dir", bipartite_dir, "--output-dir", bipartite_dir)
        assert rc == 0
        payload = json.loads((bipartite_dir / "layers.json").read_text())
        assert (payload["l_odd"], payload["l_even"]) == (1, 2)
        assert payload["odd_coverage"]["1"] == 1.0
        out = capsys.readouterr().out
        assert "l_odd=1" in out

    def test_missing_data_dir_exits_2(self, capsys):
        rc = run("select-layers", "--data-dir", "/no/such/dir")
        assert rc == 2
        assert "/no/such/dir" in capsys.readouterr().err

    def test_id_beyond_int64_exits_1_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text("0 1\n1 0 99999999999999999999\n")
        (tmp_path / "test.txt").write_text("")
        rc = run("select-layers", "--data-dir", tmp_path, "--output-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "train.txt:2" in err

    def test_unreachable_alpha_exits_1(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text("0 0\n1 1\n")
        (tmp_path / "test.txt").write_text("")
        rc = run("select-layers", "--data-dir", tmp_path, "--alpha", "1.0")
        assert rc == 1
        captured = capsys.readouterr()
        assert "coverage" in captured.err
        assert captured.out.splitlines()[0].split() == ["hop", "parity", "coverage"]


class TestTrainCommand:
    def test_degenerate_single_phase(self, toy_dir):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "5", "--embed-dim", "8",
            "--batch-size", "16", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        records = [json.loads(l) for l in (toy_dir / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 5
        assert {r["phase"] for r in records} == {1}

    def test_three_phases_by_default_granularity(self, toy_dir):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--epochs-per-phase", "2", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        records = [json.loads(l) for l in (toy_dir / "metrics.jsonl").read_text().splitlines()]
        assert [r["phase"] for r in records] == [1, 1, 2, 2, 3, 3]
        for phase in (1, 2, 3):
            assert (toy_dir / f"checkpoint_phase{phase}.ckpt").exists()
        assert (toy_dir / "checkpoint_final.ckpt").exists()

    def test_requires_layers(self, toy_dir, capsys):
        rc = run("train", "--data-dir", toy_dir, "--output-dir", toy_dir)
        assert rc == 2
        assert "layers.json" in capsys.readouterr().err

    def test_layers_resolved_before_reading_data(self, toy_dir, capsys):
        (toy_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        rc = run("train", "--data-dir", toy_dir, "--output-dir", toy_dir)
        assert rc == 2
        assert "layers.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"l_odd": 1}', "l_even"),
            ('{"l_odd": "1", "l_even": 2}', "l_odd"),
            ("l_odd=1\n", "JSON"),
            ('{"l_odd": 2, "l_even": 2}', "l_odd"),
        ],
        ids=["missing key", "string value", "not json", "even l_odd"],
    )
    def test_bad_layers_json_exits_2_naming_the_key(self, toy_dir, capsys, text, key):
        (toy_dir / "layers.json").write_text(text)
        rc = run("train", "--data-dir", toy_dir, "--output-dir", toy_dir,
                 "--epochs-per-phase", "0")
        assert rc == 2
        err = capsys.readouterr().err
        assert "layers.json" in err and key in err
        assert "Traceback" not in err

    def test_uses_layers_json_when_present(self, bipartite_dir, toy_dir):
        rc = run("select-layers", "--data-dir", toy_dir, "--output-dir", toy_dir, "--alpha", "0.3")
        assert rc == 0
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "1", "--embed-dim", "4", "--batch-size", "8",
        )
        assert rc == 0

    def test_seeded_rerun_reproduces_loss_sequence(self, toy_dir, tmp_path):
        losses = []
        for attempt in range(2):
            out_dir = tmp_path / f"run{attempt}"
            out_dir.mkdir()
            rc = run(
                "train", "--data-dir", toy_dir, "--output-dir", out_dir,
                "--k", "1", "--epochs-per-phase", "3", "--embed-dim", "4",
                "--batch-size", "8", "--seed", "7", "--l-odd", "1", "--l-even", "2",
            )
            assert rc == 0
            records = [json.loads(l) for l in (out_dir / "metrics.jsonl").read_text().splitlines()]
            losses.append([r["loss"] for r in records])
        assert losses[0] == losses[1]

    def test_validation_fraction_periodic_metrics(self, toy_dir):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "2", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
            "--eval-every", "1", "--validation-fraction", "0.25", "--topk", "3",
        )
        assert rc == 0
        records = [json.loads(l) for l in (toy_dir / "metrics.jsonl").read_text().splitlines()]
        assert all("recall@3" in r for r in records)


    @pytest.fixture
    def evaluation_workers(self, monkeypatch):
        """The ``workers`` of every evaluate() call, in order."""
        seen = []
        evaluate = jmpgcf.evaluation.evaluate

        def spying_evaluate(*args, **kwargs):
            seen.append(kwargs.get("workers"))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(jmpgcf.evaluation, "evaluate", spying_evaluate)
        return seen

    def test_workers_reach_per_epoch_evaluation(self, toy_dir, tmp_path, monkeypatch,
                                                evaluation_workers):
        """--workers reaches train()'s evaluate and changes no byte of metrics.jsonl."""
        logged = []
        for workers in (1, 2):
            ticks = iter(range(10**6))
            monkeypatch.setattr(jmpgcf.training, "time",
                                SimpleNamespace(perf_counter=lambda: 0.25 * next(ticks)))
            out_dir = tmp_path / f"workers{workers}"
            out_dir.mkdir()
            rc = run(
                "train", "--data-dir", toy_dir, "--output-dir", out_dir,
                "--k", "1", "--epochs-per-phase", "2", "--embed-dim", "4",
                "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
                "--eval-every", "1", "--topk", "3", "--workers", workers,
            )
            assert rc == 0
            logged.append((out_dir / "metrics.jsonl").read_bytes())
        assert evaluation_workers == [1] * 4 + [2] * 4
        assert b"recall@3" in logged[0]
        assert logged[0] == logged[1]

    def test_workers_zero_counts_the_cpu_affinity(self, toy_dir, monkeypatch,
                                                  evaluation_workers):
        """--workers 0 gives one evaluation thread per core the process may
        run on (as under ``taskset -c 0``), not per core of the machine."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "2", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
            "--eval-every", "1", "--topk", "3", "--workers", "0",
        )
        assert rc == 0
        assert evaluation_workers == [1, 1]

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"validation_fraction": "1.5"}, "validation_fraction must be in [0, 1)"),
            ({"validation_fraction": "-0.5"}, "validation_fraction must be in [0, 1)"),
            ({"validation_fraction": "0.5"}, "validation_fraction needs eval_every >= 1"),
            ({"validation_fraction": "0.5", "eval_every": "0"},
             "validation_fraction needs eval_every >= 1"),
            ({"eval_every": "-2"}, "eval_every must be >= 0"),
            ({"workers": "-3"}, "workers must be >= 0"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_setting_exits_2_before_reading_data(
        self, toy_dir, capsys, settings, message, source
    ):
        (toy_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        if source == "flag":
            given = [arg for name, value in settings.items()
                     for arg in ("--" + name.replace("_", "-"), value)]
        else:
            cfg_file = toy_dir / "run.cfg"
            cfg_file.write_text("".join(f"{name}={value}\n" for name, value in settings.items()))
            given = ["--config", cfg_file]
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--l-odd", "1", "--l-even", "2", *given,
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (toy_dir / "metrics.jsonl").exists()


class TestEvaluateCommand:
    @pytest.fixture
    def trained_dir(self, toy_dir):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "2", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        return toy_dir

    def test_deterministic_output(self, trained_dir, capsys):
        ckpt = trained_dir / "checkpoint_final.ckpt"
        outputs = []
        for _ in range(2):
            rc = run(
                "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
                "--checkpoint", ckpt, "--topk", "4",
            )
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        report = json.loads((trained_dir / "report.json").read_text())
        assert "recall@4" in report and "ndcg@4" in report

    def test_topk_sweep_csv(self, trained_dir, monkeypatch):
        scored = []
        score_users = jmpgcf.evaluation.score_users

        def counting_score_users(out, users, **kwargs):
            scored.append(list(users))
            return score_users(out, users, **kwargs)

        monkeypatch.setattr(jmpgcf.evaluation, "score_users", counting_score_users)
        ckpt = trained_dir / "checkpoint_final.ckpt"
        rc = run(
            "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
            "--checkpoint", ckpt, "--topk-sweep", "2,4,6",
        )
        assert rc == 0
        lines = (trained_dir / "report_sweep.csv").read_text().splitlines()
        assert lines[0] == "k,recall,ndcg"
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "4", "6"]

        # one scoring pass: each evaluable user is scored once, in one chunk
        ds = load_dataset(str(trained_dir / "train.txt"), str(trained_dir / "test.txt"))
        evaluable = [u for u in range(ds.num_users) if len(ds.test[u])]
        assert scored == [evaluable]
        monkeypatch.undo()
        checkpoint = load_checkpoint(str(ckpt))
        params = checkpoint.params
        matrices = propagation_matrices(ds, params.popularity)
        out = propagate(params, matrices, checkpoint.layers, retain_chain=False)
        for row, k in zip(lines[1:], (2, 4, 6)):
            report = evaluate(params, out, ds, k)
            assert row == f"{k},{report.recall:.6f},{report.ndcg:.6f}"
        report = evaluate(params, out, ds, 20)
        assert json.loads((trained_dir / "report.json").read_text()) == {
            "recall@20": report.recall,
            "ndcg@20": report.ndcg,
            "num_users_evaluated": report.num_users_evaluated,
        }

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--topk", "0", "topk must be >= 1"),
            ("--topk", "-3", "topk must be >= 1"),
            ("--topk-sweep", "0,2", "argument --topk-sweep"),
            ("--topk-sweep", "2,x", "argument --topk-sweep"),
            ("--topk-sweep", "", "argument --topk-sweep"),
        ],
    )
    def test_bad_cutoff_exits_2_before_reading_data(
        self, trained_dir, capsys, flag, value, message
    ):
        (trained_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        rc = run(
            "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
            "--checkpoint", trained_dir / "checkpoint_final.ckpt", flag, value,
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (trained_dir / "report.json").exists()

    @pytest.mark.parametrize("command", ["select-layers", "train", "evaluate", "predict"])
    def test_topk_below_one_in_file_exits_2(self, toy_dir, capsys, command):
        cfg_file = toy_dir / "run.cfg"
        cfg_file.write_text("topk=0\n")
        extra = ["--checkpoint", toy_dir / "x.ckpt"] if command in ("evaluate", "predict") else []
        if command == "predict":
            extra += ["--user", "0"]
        rc = run(command, "--data-dir", toy_dir, "--config", cfg_file, *extra)
        assert rc == 2
        assert "topk must be >= 1" in capsys.readouterr().err

    def test_corrupted_magic_exits_1(self, trained_dir, capsys):
        ckpt = trained_dir / "checkpoint_final.ckpt"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(b"XXXXXXX" + raw[7:])
        rc = run(
            "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
            "--checkpoint", ckpt,
        )
        assert rc == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("index, value", [(4, b"-1"), (5, b"nan"), (5, b"inf"), (5, b"0")])
    def test_bad_popularity_in_header_exits_1_naming_the_file(self, trained_dir, capsys, index,
                                                              value):
        ckpt = trained_dir / "checkpoint_final.ckpt"
        header, tables = ckpt.read_bytes().split(b"\n", 1)
        fields = header.split()
        fields[index] = value  # max granularity, granularity unit
        ckpt.write_bytes(b" ".join(fields) + b"\n" + tables)
        rc = run(
            "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
            "--checkpoint", ckpt,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: bad header field" in err

    def test_weights_of_the_wrong_count_exit_2(self, trained_dir, capsys):
        # the checkpoint holds one granularity, the flag gives three weights
        rc = run(
            "evaluate", "--data-dir", trained_dir, "--output-dir", trained_dir,
            "--checkpoint", trained_dir / "checkpoint_final.ckpt", "--lambda-weights", "1,1,1",
        )
        assert rc == 2
        assert "expected 1 granularity weights, got 3" in capsys.readouterr().err

    def test_shape_mismatch_names_dimensions(self, trained_dir, tmp_path, capsys):
        other = make_random_dataset(np.random.default_rng(9), 5, 6, with_test=True)
        save_dataset(other, tmp_path / "train.txt", tmp_path / "test.txt")
        rc = run(
            "evaluate", "--data-dir", tmp_path, "--output-dir", tmp_path,
            "--checkpoint", trained_dir / "checkpoint_final.ckpt",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "m=" in err and "n=" in err and "embed_dim=" in err

    def test_shared_base_on_separate_tables_exits_1(self, toy_dir, capsys):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "1", "--epochs-per-phase", "1", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        rc = run(
            "evaluate", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--checkpoint", toy_dir / "checkpoint_final.ckpt", "--shared-base",
        )
        assert rc == 1
        assert "shared_base" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, toy_dir, capsys):
        rc = run(
            "evaluate", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--checkpoint", toy_dir / "nope.ckpt",
        )
        assert rc == 2


class TestPredictCommand:
    def test_block_items_ranked_first(self, tmp_path, capsys):
        ds = make_blocked_dataset(seed=3)
        save_dataset(ds, tmp_path / "train.txt", tmp_path / "test.txt")
        rc = run(
            "train", "--data-dir", tmp_path, "--output-dir", tmp_path,
            "--epochs-per-phase", "60", "--embed-dim", "8", "--batch-size", "512",
            "--l-odd", "1", "--l-even", "2", "--seed", "1",
        )
        assert rc == 0
        capsys.readouterr()
        rc = run(
            "predict", "--data-dir", tmp_path, "--output-dir", tmp_path,
            "--checkpoint", tmp_path / "checkpoint_final.ckpt",
            "--user", "3", "--topk", "10",
        )
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        items = [int(r[0]) for r in rows]
        scores = [float(r[1]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        # user 3 lives in the first block: items 0..49
        in_block = [i for i in items if i < 50]
        assert len(in_block) >= 8

    def test_ranks_the_scores_evaluate_ranked(self, tmp_path, capsys, monkeypatch):
        """Items 10..39 have no training interactions and base rows equal
        to within 1e-15, so their scores are near-ties whose order depends
        on the last bits of the product.  predict lists the user's row of
        the chunk GEMM that evaluate scored, ranked as evaluate ranks it."""
        train = [[u % 10, (u + 3) % 10] for u in range(20)]
        test = [[10 + (7 * u + 5 * j) % 30 for j in range(3)] for u in range(20)]
        test[4] = []  # not evaluated: the chunk holds the other 19 users
        save_dataset(InteractionDataset.from_lists(20, 40, train, test),
                     tmp_path / "train.txt", tmp_path / "test.txt")
        params = init_parameters(20, 40, 8, PopularityConfig(), seed=3)
        rng = np.random.default_rng(4)
        for table in params.base_embeddings:
            table[30:] = rng.normal(size=8) + 1e-15 * rng.normal(size=(30, 8))
        layers = SelectedLayers(1, 2)
        save_checkpoint(tmp_path / "ties.ckpt", params, layers, 3, 1)

        ds = load_dataset(tmp_path / "train.txt", tmp_path / "test.txt")
        ckpt = load_checkpoint(tmp_path / "ties.ckpt")
        out = propagate(ckpt.params, propagation_matrices(ds, ckpt.params.popularity), layers,
                        retain_chain=False)
        scored = {}
        score = jmpgcf.evaluation.score_users

        def spying_score(out, users, **kwargs):
            scores = score(out, users, **kwargs)
            scored.update(zip(users, scores.copy()))
            return scores

        monkeypatch.setattr(jmpgcf.evaluation, "score_users", spying_score)
        evaluate(ckpt.params, out, ds, k=10)
        for user in (0, 7, 19):
            want = rank_user(scored[user], ds.train[user], 10)
            top = np.sort(scored[user][want])
            assert np.any(np.diff(top) <= 1e-12 * np.abs(top).max())  # near-ties
            capsys.readouterr()
            rc = run(
                "predict", "--data-dir", tmp_path, "--output-dir", tmp_path,
                "--checkpoint", tmp_path / "ties.ckpt", "--user", user, "--topk", "10",
            )
            assert rc == 0
            rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
            assert [int(r[0]) for r in rows] == want.tolist()

    def test_saturated_user_warns_empty(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text("0 0 1 2\n1 0\n")
        (tmp_path / "test.txt").write_text("")
        rc = run(
            "train", "--data-dir", tmp_path, "--output-dir", tmp_path,
            "--k", "0", "--epochs-per-phase", "1", "--embed-dim", "4",
            "--batch-size", "4", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        capsys.readouterr()
        rc = run(
            "predict", "--data-dir", tmp_path, "--output-dir", tmp_path,
            "--checkpoint", tmp_path / "checkpoint_final.ckpt", "--user", "0",
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "every item" in captured.err

    def test_unknown_user_exits_2(self, toy_dir, capsys):
        rc = run(
            "train", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--k", "0", "--epochs-per-phase", "1", "--embed-dim", "4",
            "--batch-size", "8", "--l-odd", "1", "--l-even", "2",
        )
        assert rc == 0
        rc = run(
            "predict", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--checkpoint", toy_dir / "checkpoint_final.ckpt", "--user", "999",
        )
        assert rc == 2

    def test_negative_user_exits_2_before_reading_data(self, toy_dir, capsys):
        (toy_dir / "train.txt").write_text("0 x\n")  # reading it would exit 1
        rc = run(
            "predict", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--checkpoint", toy_dir / "x.ckpt", "--user", "-1",
        )
        assert rc == 2
        assert "user must be >= 0, got -1" in capsys.readouterr().err

    def test_user_past_the_data_exits_2_before_reading_checkpoint(self, toy_dir, capsys):
        (toy_dir / "x.ckpt").write_bytes(b"XXXXXXX\n")  # reading it would exit 1
        rc = run(
            "predict", "--data-dir", toy_dir, "--output-dir", toy_dir,
            "--checkpoint", toy_dir / "x.ckpt", "--user", "12",
        )
        assert rc == 2
        assert "user 12 outside [0, 12)" in capsys.readouterr().err


def test_remap_writes_mapping_files(tmp_path):
    (tmp_path / "train.txt").write_text("7 100 101\n9 101\n")
    (tmp_path / "test.txt").write_text("7 102\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = run(
        "select-layers", "--data-dir", tmp_path, "--output-dir", out_dir,
        "--remap", "--alpha", "0.3",
    )
    assert rc == 0
    assert (out_dir / "user_id_map.txt").exists()
    assert (out_dir / "item_id_map.txt").exists()


def test_usage_error_exits_2(capsys):
    assert run("no-such-command") == 2
    assert run() == 2
