"""Command-line entry point.

Subcommands: gen, train, eval, diag, hilbert, experiment. All state
flows through flags and config files (no environment variables); exit
code 0 on success, 1 on validation/usage errors (running out of memory
included), 2 on data errors and unreadable or unwritable files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import recipes, transforms
from .data import (ChannelSpec, add_complex_noise, dft_encode, gen_channel_dataset,
                   load_cvds, parse_json_object, save_cvds, staged)
# accuracy, mag_phase_mse, mse_metric and forward stay bound here, though
# unused, so perfbench/spans.py can wrap every binding site of them
from .diagnostics import (accuracy, covariance_comparison,  # noqa: F401
                          latent_orthogonality_counted, mag_phase_mse, mse_metric)
from .errors import ContractError, DataError, ValidationError
from .models import forward, latent_channels, load_checkpoint  # noqa: F401
from .train import evaluate, forward_metrics, run_training


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValidationError: exit 1 with one ``error:`` line."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache  # built once per process; parse_args leaves a parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        try:
            ds = gen_channel_dataset(spec, args.m, args.seed)
        except MemoryError:
            raise ValidationError(f"--m {args.m}: a dataset of that many rows "
                                  f"does not fit in memory") from None
    elif not args.input:
        raise ValidationError(f"gen --task {args.task} requires --in")
    elif args.task == "noise":
        ds = add_complex_noise(load_cvds(args.input), args.eta, args.seed)
    else:
        ds = dft_encode(load_cvds(args.input))
    save_cvds(ds, args.out)
    print(json.dumps({"out": str(args.out), "M": ds.m, "dN": ds.dn,
                      "k": ds.k, "task": ds.task}))


def _cmd_train(args) -> None:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise ValidationError(f"config file not found: {cfg_path}")
    raw = parse_json_object(cfg_path.read_bytes(), "config", ValidationError)
    report = run_training(raw, args.out)
    final = report["final"]["test"] or report["final"]["train"]
    print(json.dumps({"out": str(args.out), "final": final}))


def _load_eval_pair(args):
    model, _ = load_checkpoint(args.checkpoint)
    return model, load_cvds(args.dataset)


def _emit(payload: dict, out_path) -> None:
    """Print the payload as JSON, once it is written to ``out_path`` when given."""
    text = json.dumps(payload, indent=1)
    if out_path:
        with staged(Path(out_path)) as (tmp,):
            tmp.write_text(text + "\n", encoding="utf-8")
    print(text)


def _cmd_eval(args) -> None:
    model, ds = _load_eval_pair(args)
    _emit(evaluate(model, ds), args.out)


def _cmd_diag(args) -> None:
    model, ds = _load_eval_pair(args)
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
    if ds.features_im.any():  # the transform reads features_re only
        raise DataError("hilbert expects a real-form dataset (features_im all zero)")
    rows = (transforms.hilbert_rows_array if args.method == "freq"
            else transforms.dht_cotangent)(ds.features_re)
    if args.analytic:
        out = replace(ds, features_im=rows,
                      provenance=f"{ds.provenance}|analytic({args.method})")
    else:
        out = replace(ds, features_re=rows, features_im=np.zeros_like(rows),
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
    try:
        args = _build_parser().parse_args(argv)
        try:
            _COMMANDS[args.command](args)
        except MemoryError as e:  # e.g. a dense transform kernel of a very long row
            detail = f" ({e})" if str(e) else ""
            raise ValidationError(f"{args.command}: out of memory{detail}") from None
    except (ValidationError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:  # an OSError's message names the path
        print(f"data error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
