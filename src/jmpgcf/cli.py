"""Command-line driver: layer selection, training, evaluation, prediction.

Configuration precedence is CLI flag > config file > built-in default.
The config file is flat ``key=value`` text; flags mirror the keys with
dashes.  Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .data import DatasetFormatError, load_dataset, split_validation
from .graph import GraphConfigError, PopularityConfig, propagation_matrices
from .layers import (
    LayerSelectionConfig,
    LayerSelectionError,
    SelectedLayers,
    hop_coverages,
    select_layers,
)
from .model import (
    CheckpointFormatError,
    init_parameters,
    load_checkpoint,
    propagate,
    score_all_items,
)
from .evaluation import evaluate, format_report, rank_user, report_as_dict
from .training import PhaseSchedule, TrainConfig, TrainingDivergedError, train

__all__ = ["RunConfig", "main", "entrypoint"]


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every run setting.  Each field is both a ``--dashed-name`` flag and
    a ``snake_name=`` config-file key, parsed from its annotated type."""

    data_dir: str = field(default=".", metadata={"help": "directory with train.txt/test.txt"})
    output_dir: str = "."
    embed_dim: int = 64
    batch_size: int = 2048
    learning_rate: float = 1e-3
    l2_coeff: float = 1e-4
    c: float = field(default=0.1, metadata={"help": "granularity exponent unit"})
    k: int = field(default=2, metadata={"help": "maximum popularity granularity"})
    alpha: float = field(default=0.5, metadata={"help": "coverage threshold"})
    epochs_per_phase: int = 300
    topk: int = 20
    seed: int = 0
    optimizer: str = field(default="adam", metadata={"choices": ("adam", "sgd")})
    shared_base: bool = False
    lambda_weights: tuple = field(
        default=None, metadata={"help": "comma-separated per-granularity weights"}
    )
    l_odd: int = None
    l_even: int = None
    sample_size: int = 100
    max_hops: int = 20
    workers: int = 0  # evaluation threads; 0 = every core; results are worker-count invariant
    eval_every: int = 0
    validation_fraction: float = field(
        default=0.0,
        metadata={"help": "per-user fraction of training items held out for periodic metrics"},
    )
    full_matrix_reg: bool = False
    remap: bool = False


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_reals(text):
    return tuple(float(tok) for tok in text.split(","))


def _value_parser(name, kind, choices):
    """Text-to-value parser of one RunConfig field, shared by its flag and
    its config-file key.  It raises ValueError, which argparse turns into
    exit 2 and the file reader into a ConfigError."""
    convert = {bool: _parse_bool, tuple: _parse_reals}.get(kind, kind)

    def parse(text):
        value = convert(text)
        if choices and value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


_TYPES = get_type_hints(RunConfig)
_PARSE = {
    spec.name: _value_parser(spec.name, _TYPES[spec.name], spec.metadata.get("choices"))
    for spec in fields(RunConfig)
}


def _parse_config_file(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _PARSE:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _PARSE[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r} ({exc})")
    return values


def _resolve_config(args) -> RunConfig:
    merged = {}
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    for name in _PARSE:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    cfg = RunConfig(**merged)
    if cfg.lambda_weights is not None and len(cfg.lambda_weights) != cfg.k + 1:
        raise ConfigError(
            f"lambda_weights needs {cfg.k + 1} values for k={cfg.k}, "
            f"got {len(cfg.lambda_weights)}"
        )
    if (cfg.l_odd is None) != (cfg.l_even is None):
        raise ConfigError("l_odd and l_even must be given together")
    return cfg


def _add_common_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    for spec in fields(RunConfig):
        flag = "--" + spec.name.replace("_", "-")
        if _TYPES[spec.name] is bool:
            parser.add_argument(flag, dest=spec.name, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(
                flag,
                dest=spec.name,
                type=_PARSE[spec.name],
                choices=spec.metadata.get("choices"),
                help=spec.metadata.get("help"),
            )


def _build_parser():
    parser = argparse.ArgumentParser(prog="jmpgcf")
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select-layers", parents=[common], help="pick odd/even layers")
    p.set_defaults(func=cmd_select_layers)

    p = sub.add_parser("train", parents=[common], help="run multistage training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="rank and score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--topk-sweep", dest="topk_sweep", help="comma-separated cutoffs for CSV output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common], help="top-K items for one user")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def _load_data(cfg):
    train_path = os.path.join(cfg.data_dir, "train.txt")
    test_path = os.path.join(cfg.data_dir, "test.txt")
    for path in (train_path, test_path):
        if not os.path.exists(path):
            raise ConfigError(f"interaction file not found: {path}")
    if cfg.remap:
        os.makedirs(cfg.output_dir, exist_ok=True)
    return load_dataset(train_path, test_path, remap=cfg.remap, mapping_dir=cfg.output_dir)


def _popularity(cfg) -> PopularityConfig:
    return PopularityConfig(
        granularity_unit=cfg.c,
        max_granularity=cfg.k,
        granularity_weights=cfg.lambda_weights,
    )


def _print_coverage(odd, even, out=sys.stdout):
    hops = sorted(set(odd) | set(even))
    nonzero = [h for h in hops if odd.get(h, even.get(h)) > 0]
    last = max(nonzero, default=hops[-1]) + 2 if nonzero else hops[-1]
    print(f"{'hop':>4} {'parity':>6} {'coverage':>10}", file=out)
    for hop in hops:
        if hop > last:
            break
        parity = "odd" if hop % 2 == 1 else "even"
        coverage = odd.get(hop, even.get(hop))
        print(f"{hop:>4} {parity:>6} {coverage:>10.4f}", file=out)


def cmd_select_layers(cfg, args) -> int:
    ds = _load_data(cfg)
    sel_cfg = LayerSelectionConfig(
        alpha=cfg.alpha, sample_size=cfg.sample_size, max_hops=cfg.max_hops, seed=cfg.seed
    )
    coverages = hop_coverages(ds, sel_cfg)
    try:
        selected = select_layers(ds, sel_cfg, coverages=coverages)
    except LayerSelectionError as exc:
        _print_coverage(exc.odd_coverage, exc.even_coverage)
        raise
    odd, even = coverages
    _print_coverage(odd, even)
    print(f"selected: l_odd={selected.l_odd} l_even={selected.l_even}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    payload = {
        "l_odd": selected.l_odd,
        "l_even": selected.l_even,
        "odd_coverage": {str(h): c for h, c in sorted(odd.items())},
        "even_coverage": {str(h): c for h, c in sorted(even.items())},
    }
    with open(os.path.join(cfg.output_dir, "layers.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def _selected_layers(cfg) -> SelectedLayers:
    if cfg.l_odd is not None:
        return SelectedLayers(l_odd=cfg.l_odd, l_even=cfg.l_even)
    path = os.path.join(cfg.output_dir, "layers.json")
    if not os.path.exists(path):
        raise ConfigError(
            f"no layers.json in {cfg.output_dir}; run select-layers or pass --l-odd/--l-even"
        )
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    return SelectedLayers(l_odd=payload["l_odd"], l_even=payload["l_even"])


def cmd_train(cfg, args) -> int:
    ds = _load_data(cfg)
    layers = _selected_layers(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.validation_fraction > 0:
        train_ds, eval_ds = split_validation(ds, cfg.validation_fraction, cfg.seed)
    else:
        train_ds, eval_ds = ds, ds
    popularity = _popularity(cfg)
    params = init_parameters(
        ds.num_users, ds.num_items, cfg.embed_dim, popularity, cfg.seed,
        shared_base=cfg.shared_base,
    )
    schedule = PhaseSchedule.uniform(cfg.k, cfg.epochs_per_phase)
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        l2_coeff=cfg.l2_coeff,
        batch_size=cfg.batch_size,
        optimizer=cfg.optimizer,
        seed=cfg.seed,
        full_matrix_reg=cfg.full_matrix_reg,
    )
    _, records = train(
        train_ds,
        params,
        schedule,
        train_cfg,
        layers,
        eval_ds=eval_ds if cfg.eval_every else None,
        eval_every=cfg.eval_every,
        eval_topk=cfg.topk,
        metrics_path=os.path.join(cfg.output_dir, "metrics.jsonl"),
        checkpoint_dir=cfg.output_dir,
    )
    print(
        f"trained {len(records)} epochs over {schedule.num_phases} phase(s); "
        f"final loss {records[-1]['loss']:.6f}" if records else "no epochs configured"
    )
    return 0


def _load_checkpoint_for(cfg, ds, checkpoint_path):
    if not os.path.exists(checkpoint_path):
        raise ConfigError(f"checkpoint not found: {checkpoint_path}")
    ckpt = load_checkpoint(
        checkpoint_path, shared_base=cfg.shared_base, granularity_weights=cfg.lambda_weights
    )
    params = ckpt.params
    if (params.num_users, params.num_items) != (ds.num_users, ds.num_items):
        raise CheckpointFormatError(
            f"checkpoint/dataset shape mismatch: checkpoint has m={params.num_users} "
            f"n={params.num_items} embed_dim={params.embed_dim}, dataset has "
            f"m={ds.num_users} n={ds.num_items}"
        )
    return ckpt


def _propagated(params, ds, layers):
    return propagate(
        params, propagation_matrices(ds, params.popularity), layers, retain_chain=False
    )


def _eval_workers(cfg) -> int:
    return cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)


def cmd_evaluate(cfg, args) -> int:
    ds = _load_data(cfg)
    ckpt = _load_checkpoint_for(cfg, ds, args.checkpoint)
    out = _propagated(ckpt.params, ds, ckpt.layers)
    report = evaluate(ckpt.params, out, ds, cfg.topk, workers=_eval_workers(cfg))
    print(format_report(report))
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report_as_dict(report), fh, indent=2)
        fh.write("\n")
    if args.topk_sweep:
        cutoffs = [int(tok) for tok in args.topk_sweep.split(",")]
        sweep_path = os.path.join(cfg.output_dir, "report_sweep.csv")
        with open(sweep_path, "w", encoding="ascii") as fh:
            fh.write("k,recall,ndcg\n")
            for cutoff in cutoffs:
                swept = evaluate(ckpt.params, out, ds, cutoff, workers=_eval_workers(cfg))
                fh.write(f"{cutoff},{swept.recall:.6f},{swept.ndcg:.6f}\n")
        print(f"wrote {sweep_path}")
    return 0


def cmd_predict(cfg, args) -> int:
    ds = _load_data(cfg)
    ckpt = _load_checkpoint_for(cfg, ds, args.checkpoint)
    if not 0 <= args.user < ds.num_users:
        raise ConfigError(f"user {args.user} outside [0, {ds.num_users})")
    out = _propagated(ckpt.params, ds, ckpt.layers)
    scores = score_all_items(out, args.user)
    topk = rank_user(scores, ds.train[args.user], cfg.topk)
    if topk.size == 0:
        print(f"warning: user {args.user} interacted with every item", file=sys.stderr)
        return 0
    for item in topk:
        print(f"{item}\t{scores[item]:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except (ConfigError, GraphConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DatasetFormatError,
        LayerSelectionError,
        CheckpointFormatError,
        TrainingDivergedError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
