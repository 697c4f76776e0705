"""Command-line entry point.

Subcommands: gen, train, eval, diag, hilbert, experiment. All state
flows through flags and config files (no environment variables); exit
code 0 on success, 1 on validation/usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import recipes, transforms
from .data import (ChannelSpec, add_complex_noise, dft_encode,
                   gen_channel_dataset, load_cvds, save_cvds)
# accuracy, mag_phase_mse, mse_metric and forward stay bound here, though
# unused, so perfbench/spans.py can wrap every binding site of them
from .diagnostics import (accuracy, covariance_comparison,  # noqa: F401
                          latent_orthogonality_counted, mag_phase_mse, mse_metric)
from .errors import ContractError, DataError, ValidationError
from .models import forward, latent_channels, load_checkpoint  # noqa: F401
from .train import evaluate, forward_metrics, run_training


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvlearn",
        description="Learning toolkit for complex-valued data")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate or transform CVDS datasets")
    gen.add_argument("--task", required=True,
                     choices=["channel", "noise", "dft-encode"])
    gen.add_argument("--out", required=True, help="output CVDS directory")
    gen.add_argument("--in", dest="input", help="input CVDS directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--m", type=int, default=1000)
    gen.add_argument("--rho", type=float, default=float(np.sqrt(2) / 2))
    gen.add_argument("--snr-db", type=float, default=5.0)
    gen.add_argument("--eta", type=float, default=0.0)

    tr = sub.add_parser("train", help="train from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="output run directory")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", help="also write the metrics JSON here")

    dg = sub.add_parser("diag", help="latent diagnostics of a checkpoint")
    dg.add_argument("--checkpoint", required=True)
    dg.add_argument("--dataset", required=True)
    dg.add_argument("--out", help="also write the diagnostics JSON here")

    hb = sub.add_parser("hilbert", help="Hilbert-transform dataset rows")
    hb.add_argument("--in", dest="input", required=True, help="input CVDS directory")
    hb.add_argument("--out", required=True, help="output CVDS directory")
    hb.add_argument("--method", choices=["freq", "cotangent"], default="freq")
    hb.add_argument("--analytic", action="store_true",
                    help="write (rows, H{rows}) as the re/im channels")

    ex = sub.add_parser("experiment", help="run a named comparison recipe")
    ex.add_argument("--recipe", required=True, choices=sorted(recipes.RECIPES))
    ex.add_argument("--seed", type=int, default=1)
    ex.add_argument("--seeds", type=int, default=5, help="number of seeds")
    ex.add_argument("--epochs", type=int, help="override the recipe default")
    ex.add_argument("--data-dir", default="datasets")
    ex.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_gen(args) -> None:
    if args.task == "channel":
        spec = ChannelSpec(rho=args.rho, snr_db=args.snr_db)
        ds = gen_channel_dataset(spec, args.m, args.seed)
    elif args.task == "noise":
        if not args.input:
            raise ValidationError("gen --task noise requires --in")
        ds = add_complex_noise(load_cvds(args.input), args.eta, args.seed)
    else:
        if not args.input:
            raise ValidationError("gen --task dft-encode requires --in")
        ds = dft_encode(load_cvds(args.input))
    save_cvds(ds, args.out)
    print(json.dumps({"out": str(args.out), "M": ds.m, "dN": ds.dn,
                      "k": ds.k, "task": ds.task}))


def _cmd_train(args) -> None:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise ValidationError(f"config file not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from e
    report = run_training(raw, args.out)
    final = report["final"]["test"] or report["final"]["train"]
    print(json.dumps({"out": str(args.out), "final": final}))


def _load_eval_pair(args):
    model, header = load_checkpoint(args.checkpoint)
    ds = load_cvds(args.dataset)
    if ds.task != model.spec.task:
        raise DataError(f"checkpoint task {model.spec.task!r} does not match "
                        f"dataset task {ds.task!r}")
    if ds.dn != model.spec.input_dim or ds.k != model.spec.output_dim:
        raise DataError(
            f"checkpoint dims (dN={model.spec.input_dim}, k={model.spec.output_dim}) "
            f"do not match dataset (dN={ds.dn}, k={ds.k})")
    return model, header, ds


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=1)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _cmd_eval(args) -> None:
    model, _, ds = _load_eval_pair(args)
    _emit(evaluate(model, ds), args.out)


def _cmd_diag(args) -> None:
    model, _, ds = _load_eval_pair(args)
    payload, result = forward_metrics(model, ds)
    z_re, z_im = latent_channels(result)
    comparison = covariance_comparison(z_re, z_im)
    ortho = latent_orthogonality_counted(z_re, z_im)
    payload.update({
        "orthogonality": ortho.value,
        "orthogonality_skipped_rows": ortho.skipped_rows,
        "norm_j": comparison.norm_j,
        "norm_s": comparison.norm_s,
        "norm_ratio": comparison.ratio,
    })
    _emit(payload, args.out)


def _cmd_hilbert(args) -> None:
    ds = load_cvds(args.input)
    if ds.dn % 2 != 0:
        raise ContractError(f"Hilbert transform needs an even row length, got {ds.dn}")
    if args.method == "freq":
        rows = transforms.hilbert_rows_array(ds.features_re)
    else:
        rows = np.stack([transforms.dht_cotangent(r) for r in ds.features_re])
    if args.analytic:
        out = ds.replace(features_im=rows,
                         provenance=f"{ds.provenance}|analytic({args.method})")
    else:
        out = ds.replace(features_re=rows, features_im=np.zeros_like(rows),
                         provenance=f"{ds.provenance}|hilbert({args.method})")
    save_cvds(out, args.out)
    print(json.dumps({"out": str(args.out), "M": out.m, "dN": out.dn,
                      "method": args.method, "analytic": bool(args.analytic)}))


def _cmd_experiment(args) -> None:
    kwargs = {"base_seed": args.seed, "n_seeds": args.seeds, "out_dir": args.out}
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    result = recipes.run_recipe(args.recipe, data_dir=args.data_dir, **kwargs)
    print(result["table"])


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "diag": _cmd_diag,
    "hilbert": _cmd_hilbert,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValidationError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
