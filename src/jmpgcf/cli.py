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
from functools import cached_property, partial
from typing import get_type_hints

from .data import load_dataset, split_validation
from .graph import GraphConfigError, PopularityConfig, _cores, propagation_matrices
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
    score_users,
)
from .evaluation import _chunk_of, evaluate_cutoffs, format_report, rank_user, report_as_dict
from .training import PhaseSchedule, TrainConfig, TrainingDivergedError, train

__all__ = ["RunConfig", "main", "entrypoint"]


class ConfigError(Exception):
    pass


def _build(owner, cfg, *same, **renamed):
    """``owner`` called with RunConfig keys, ``same`` as themselves and ``renamed`` as
    ``argument=key``; a rejected value is a ConfigError naming its keys."""
    keys = {**dict(zip(same, same)), **renamed}
    try:
        return owner(**{arg: getattr(cfg, key) for arg, key in keys.items()})
    except ValueError as exc:
        named = [key for arg, key in keys.items() if arg in str(exc)] or keys.values()
        given = ", ".join(f"{key}={getattr(cfg, key)!r}" for key in named)
        raise ConfigError(f"{given}: {exc}") from None


def _owned(owner, *same, **renamed):
    """A RunConfig property: the ``owner`` object built once from its keys."""
    return cached_property(lambda cfg: _build(owner, cfg, *same, **renamed))


def _setting(default, text):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class RunConfig:
    """Every run setting.  Each field is both a ``--dashed-name`` flag and
    a ``snake_name=`` config-file key, parsed from its annotated type.  A
    library type's setting takes its default from that type, which alone
    checks it: the properties at the end build each type from its keys."""

    data_dir: str = _setting(".", "directory with train.txt/test.txt")
    output_dir: str = "."
    embed_dim: int = 64
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    l2_coeff: float = TrainConfig.l2_coeff
    c: float = _setting(PopularityConfig.granularity_unit, "granularity exponent unit")
    k: int = _setting(PopularityConfig.max_granularity, "maximum popularity granularity")
    alpha: float = _setting(LayerSelectionConfig.alpha, "coverage threshold")
    epochs_per_phase: int = 300
    topk: int = 20
    seed: int = TrainConfig.seed
    shared_base: bool = False
    lambda_weights: tuple = _setting(
        PopularityConfig.granularity_weights, "comma-separated per-granularity weights"
    )
    l_odd: int = None
    l_even: int = None
    sample_size: int = LayerSelectionConfig.sample_size
    max_hops: int = LayerSelectionConfig.max_hops
    # evaluation threads; 0 = every core in the CPU affinity; results are worker-count invariant
    workers: int = 0
    eval_every: int = 0
    validation_fraction: float = _setting(
        0.0, "per-user fraction of training items held out for periodic metrics"
    )
    full_matrix_reg: bool = TrainConfig.full_matrix_reg
    remap: bool = False

    popularity = _owned(PopularityConfig, granularity_unit="c", max_granularity="k",
                        granularity_weights="lambda_weights")
    selection = _owned(LayerSelectionConfig, "alpha", "sample_size", "max_hops", "seed")
    training = _owned(TrainConfig, "learning_rate", "l2_coeff", "batch_size", "seed",
                      "full_matrix_reg")
    schedule = _owned(PhaseSchedule.uniform, "epochs_per_phase", max_granularity="k")
    layers = _owned(lambda l_odd, l_even: None if l_odd is None else SelectedLayers(l_odd, l_even),
                    "l_odd", "l_even")  # None when not given


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_reals(text):
    return tuple(float(tok) for tok in text.split(","))


def _parse_cutoffs(text):
    try:
        cutoffs = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        cutoffs = ()
    if not cutoffs or min(cutoffs) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")
    return cutoffs


def _value_parser(name, kind):
    """Text-to-value parser of one RunConfig field, shared by its flag and
    its config-file key.  It raises ValueError, which argparse turns into
    exit 2 and the file reader into a ConfigError."""
    convert = {bool: _parse_bool, tuple: _parse_reals}.get(kind, kind)

    def parse(text):
        return convert(text)

    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


_TYPES = get_type_hints(RunConfig)
_PARSE = {spec.name: _value_parser(spec.name, _TYPES[spec.name]) for spec in fields(RunConfig)}


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
    if (cfg.l_odd is None) != (cfg.l_even is None):
        raise ConfigError("l_odd and l_even must be given together")
    if cfg.topk < 1:
        raise ConfigError(f"topk must be >= 1, got {cfg.topk}")
    if cfg.eval_every < 0:
        raise ConfigError(f"eval_every must be >= 0, got {cfg.eval_every}")
    if cfg.workers < 0:
        raise ConfigError(f"workers must be >= 0, got {cfg.workers}")
    if not 0 <= cfg.validation_fraction < 1:
        raise ConfigError(
            f"validation_fraction must be in [0, 1), got {cfg.validation_fraction}"
        )
    if cfg.validation_fraction > 0 and cfg.eval_every == 0:
        raise ConfigError(
            "validation_fraction needs eval_every >= 1: only the periodic "
            "evaluation reads the holdout"
        )
    for name in ("popularity", "selection", "training", "schedule", "layers"):
        getattr(cfg, name)  # build each library object, so that it checks its keys now
    # init_parameters owns the embed_dim rule; with no rows it allocates nothing
    _build(partial(init_parameters, 0, 0, cfg=cfg.popularity, seed=cfg.seed), cfg, "embed_dim")
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
    p.add_argument(
        "--topk-sweep", type=_parse_cutoffs, help="comma-separated cutoffs for CSV output"
    )
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


def _print_coverage(odd, even):
    hops = sorted(set(odd) | set(even))
    nonzero = [h for h in hops if odd.get(h, even.get(h)) > 0]
    last = max(nonzero, default=hops[-1]) + 2 if nonzero else hops[-1]
    print(f"{'hop':>4} {'parity':>6} {'coverage':>10}")
    for hop in hops:
        if hop > last:
            break
        parity = "odd" if hop % 2 == 1 else "even"
        coverage = odd.get(hop, even.get(hop))
        print(f"{hop:>4} {parity:>6} {coverage:>10.4f}")


def cmd_select_layers(cfg, args) -> int:
    ds = _load_data(cfg)
    odd, even = hop_coverages(ds, cfg.selection)
    _print_coverage(odd, even)  # also when no hop reaches alpha
    selected = select_layers(ds, cfg.selection, coverages=(odd, even))
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


def _layers_json(cfg) -> SelectedLayers:
    path = os.path.join(cfg.output_dir, "layers.json")
    if not os.path.exists(path):
        raise ConfigError(
            f"no layers.json in {cfg.output_dir}; run select-layers or pass --l-odd/--l-even"
        )
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not ASCII
            raise ConfigError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object with keys l_odd and l_even")
    for key in ("l_odd", "l_even"):
        if key not in payload:
            raise ConfigError(f"{path}: missing key {key!r}")
        if type(payload[key]) is not int:
            raise ConfigError(f"{path}: {key}={payload[key]!r}: expected an integer")
    try:
        return SelectedLayers(l_odd=payload["l_odd"], l_even=payload["l_even"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_train(cfg, args) -> int:
    layers = cfg.layers or _layers_json(cfg)
    ds = _load_data(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.validation_fraction > 0:
        train_ds, eval_ds = split_validation(ds, cfg.validation_fraction, cfg.seed)
    else:
        train_ds, eval_ds = ds, ds
    params = init_parameters(
        ds.num_users, ds.num_items, cfg.embed_dim, cfg.popularity, cfg.seed,
        shared_base=cfg.shared_base,
    )
    _, records = train(
        train_ds,
        params,
        cfg.schedule,
        cfg.training,
        layers,
        eval_ds=eval_ds if cfg.eval_every else None,
        eval_every=cfg.eval_every,
        eval_topk=cfg.topk,
        metrics_path=os.path.join(cfg.output_dir, "metrics.jsonl"),
        checkpoint_dir=cfg.output_dir,
        workers=_eval_workers(cfg),
    )
    print(
        f"trained {len(records)} epochs over {cfg.schedule.num_phases} phase(s); "
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
    return cfg.workers if cfg.workers > 0 else _cores()


def cmd_evaluate(cfg, args) -> int:
    ds = _load_data(cfg)
    ckpt = _load_checkpoint_for(cfg, ds, args.checkpoint)
    out = _propagated(ckpt.params, ds, ckpt.layers)
    cutoffs = (cfg.topk, *(args.topk_sweep or ()))
    report, *swept = evaluate_cutoffs(ckpt.params, out, ds, cutoffs, workers=_eval_workers(cfg))
    print(format_report(report))
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report_as_dict(report), fh, indent=2)
        fh.write("\n")
    if args.topk_sweep:
        sweep_path = os.path.join(cfg.output_dir, "report_sweep.csv")
        with open(sweep_path, "w", encoding="ascii") as fh:
            fh.write("k,recall,ndcg\n")
            fh.writelines(f"{row.k},{row.recall:.6f},{row.ndcg:.6f}\n" for row in swept)
        print(f"wrote {sweep_path}")
    return 0


def cmd_predict(cfg, args) -> int:
    if args.user < 0:
        raise ConfigError(f"user must be >= 0, got {args.user}")
    ds = _load_data(cfg)
    if args.user >= ds.num_users:
        raise ConfigError(f"user {args.user} outside [0, {ds.num_users})")
    ckpt = _load_checkpoint_for(cfg, ds, args.checkpoint)
    out = _propagated(ckpt.params, ds, ckpt.layers)
    # the user's row of the GEMM evaluate scores them in, so that the two
    # rank the same bits
    chunk = _chunk_of(ds, args.user)
    scores = score_users(out, chunk)[chunk.index(args.user)]
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
        LayerSelectionError,
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
