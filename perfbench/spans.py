"""Benchmark-side tracing of the cvlearn layers.

Spans come only from wrappers that this module installs around public
functions at every site that binds them. The package imports with
``from x import y``, so ``cvlearn.train.forward`` and
``cvlearn.cli.forward`` are separate bindings of one function and each
gets its own wrapper. The backward VJPs look up
``hilbert_adjoint_rows_array`` and ``dft_array`` through the
``cvlearn.transforms`` module globals, so wrapping those globals puts
Hilbert time inside ``Tape.backward`` where it belongs.

A span is ``[name, start, end, parent, step, arch]``. ``parent`` is the
index of the enclosing span (-1 at top level), ``step`` the Adam update
index within the enclosing ``train_model`` call (-1 outside one) and
``arch`` the architecture of the enclosing ``train_model`` or
``evaluate`` call. Spans stay in memory and are written out at the end
of the run. Counts marked "computed" below are derived from array
sizes, not from hardware counters.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

ARCHS = ("rvnn", "cvnn", "steinmetz", "analytic")


class _Context:
    __slots__ = ("arch", "step", "step_ends", "steps_per_epoch")

    def __init__(self, arch: str, steps_per_epoch: int):
        self.arch = arch
        self.step = 0
        self.step_ends: list[float] = []
        self.steps_per_epoch = steps_per_epoch


def _dataset_bytes(ds) -> int:
    """Bytes of the CVDS blobs that hold ``ds`` (computed)."""
    label_bytes = ds.m * 4 if ds.task == "classification" else ds.m * 2 * ds.k * 8
    return ds.features_re.size * 8 + ds.features_im.size * 8 + label_bytes


def _param_bytes(model) -> int:
    return sum(p.size for p in model.params.values()) * 8


def _dft_flops(z) -> int:
    """Real flops of one ``dft_array`` call (computed): 5 n log2 n per row
    on the radix-2 path, 8 n^2 per row on the direct path."""
    n = z.shape[-1]
    rows = z.size // n if n else 0
    if n >= 1 and n & (n - 1) == 0:
        return rows * 5 * n * int(math.log2(n)) if n > 1 else 0
    return rows * 8 * n * n


class Tracer:
    """Installs the wrappers, records spans and derives per-layer figures."""

    def __init__(self, cv):
        self.cv = cv
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ctx: list[_Context] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, set] = defaultdict(set)
        self.step_ms: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._plan: list[tuple] | None = None   # (owner, attr, original, wrapper)

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name, fn, *, after=None, context=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            ctx = tracer._ctx[-1] if tracer._ctx else None
            idx = len(tracer.spans)
            rec = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   ctx.step if ctx is not None else -1,
                   ctx.arch if ctx is not None else ""]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            pushed = context(args) if context is not None else None
            if pushed is not None:
                tracer._ctx.append(pushed)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if pushed is not None:
                    tracer._ctx.pop()
            if after is not None:
                after(args, out, pushed)
            return out

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, after-hook, context-hook) per binding site."""
        cv = self.cv
        mods = {name: getattr(cv, name) for name in
                ("autodiff", "models", "losses", "transforms", "train",
                 "data", "diagnostics", "recipes", "cli")}
        t = []

        def add(mod, attr, name, after=None, context=None):
            owner = mods[mod] if isinstance(mod, str) else mod
            t.append((owner, attr, name, after, context))

        # autodiff
        add(mods["autodiff"].Tape, "backward", "autodiff.backward", after=self._after_backward)
        # models
        for mod in ("models", "train", "cli"):
            add(mod, "forward", "models.forward")
        for mod in ("recipes", "cli"):
            add(mod, "latent_channels", "models.latent_channels")
        add("train", "save_checkpoint", "models.checkpoint", after=self._after_save_ckpt)
        add("cli", "load_checkpoint", "models.checkpoint", after=self._after_load_ckpt)
        # losses
        add("train", "adam_step", "losses.adam_step", after=self._after_adam)
        add("train", "cross_entropy", "losses.task_loss")
        add("train", "mse", "losses.task_loss")
        add("train", "hilbert_penalty", "losses.hilbert_penalty")
        # transforms (module globals, also reached from inside the tape)
        for attr in ("hilbert_rows_array", "hilbert_adjoint_rows_array"):
            add("transforms", attr, "transforms.hilbert", after=self._after_hilbert)
        for mod in ("transforms", "data"):
            add(mod, "dft_array", "transforms.dft", after=self._after_dft)
        # train
        for mod in ("train", "recipes"):
            add(mod, "train_model", "train.train_model",
                after=self._after_train, context=self._train_context)
            add(mod, "evaluate", "train.evaluate", context=self._eval_context)
        # data
        for mod in ("cli", "train", "recipes"):
            add(mod, "load_cvds", "data.load_cvds", after=self._after_load_cvds)
        add("cli", "save_cvds", "data.save_cvds", after=self._after_save_cvds)
        for mod in ("data", "cli", "recipes"):
            add(mod, "dft_encode", "data.dft_encode")
            add(mod, "gen_channel_dataset", "data.gen_channel_dataset")
        # diagnostics
        for mod, attrs in (("train", ("accuracy", "mag_phase_mse", "mse_metric")),
                           ("cli", ("accuracy", "mag_phase_mse", "mse_metric",
                                    "covariance_comparison",
                                    "latent_orthogonality_counted")),
                           ("recipes", ("latent_orthogonality",))):
            for attr in attrs:
                add(mod, attr, f"diagnostics.{attr}")
        # recipes
        for attr in ("run_channel_id", "run_cvmnist500"):
            add("recipes", attr, f"recipes.{attr}")
        # cli: one span per command, named after it
        add("cli", "main", lambda args: f"cli.{args[0][0]}")
        return t

    def install(self) -> None:
        if self._plan is None:
            self._plan = []
            for owner, attr, name, after, context in self._targets():
                if not hasattr(owner, attr):
                    label = name if isinstance(name, str) else "cli.main"
                    self.missing.append(f"{owner.__name__}.{attr} ({label})")
                    continue
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._plan.append((owner, attr, original,
                                   self._wrap(name, original, after=after, context=context)))
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def traced(self, fn):
        """``fn`` run with the wrappers installed for the length of the call."""
        def run():
            self.install()
            try:
                return fn()
            finally:
                self.uninstall()
        return run

    # -- hooks --------------------------------------------------------

    def _train_context(self, args):
        spec, train_ds, cfg = args[0], args[1], args[2]
        return _Context(spec.kind, -(-train_ds.m // cfg.batch_size))

    def _eval_context(self, args):
        ctx = _Context(args[0].spec.kind, 0)
        ctx.step = -1
        return ctx

    def _after_train(self, args, out, ctx):
        # step i lasts from the end of update i-1 to the end of update i;
        # the first step of each epoch is skipped because the shuffle and
        # the previous epoch's evaluation sit in front of it
        ends = ctx.step_ends
        for i in range(1, len(ends)):
            if i % ctx.steps_per_epoch:
                self.step_ms[ctx.arch].append((ends[i] - ends[i - 1]) * 1e3)

    def _after_adam(self, args, out, _):
        self.counts["losses.adam_step.bytes"] += 7 * sum(p.size for p in args[0].values()) * 8
        ctx = self._ctx[-1] if self._ctx else None
        if ctx is not None and ctx.step >= 0:
            ctx.step_ends.append(time.perf_counter())
            ctx.step += 1

    def _after_backward(self, args, out, _):
        ctx = self._ctx[-1] if self._ctx else None
        if ctx is not None and ctx.step >= 0:
            self.nodes[ctx.arch].add(len(args[0].nodes))

    def _after_hilbert(self, args, out, _):
        self.counts["transforms.hilbert.calls"] += 1

    def _after_dft(self, args, out, _):
        self.counts["transforms.dft.calls"] += 1
        self.counts["transforms.dft.flops"] += _dft_flops(args[0])
        ctx = self._ctx[-1] if self._ctx else None
        if ctx is not None and ctx.arch == "analytic" and ctx.step >= 0:
            self.counts["transforms.dft.calls_in_analytic_steps"] += 1

    def _after_load_cvds(self, args, out, _):
        self.counts["data.cvds.bytes"] += _dataset_bytes(out)

    def _after_save_cvds(self, args, out, _):
        self.counts["data.cvds.bytes"] += _dataset_bytes(args[0])

    def _after_save_ckpt(self, args, out, _):
        self.counts["models.checkpoint.bytes"] += _param_bytes(args[0])

    def _after_load_ckpt(self, args, out, _):
        self.counts["models.checkpoint.bytes"] += _param_bytes(out[0])

    # -- analysis -----------------------------------------------------

    def snapshot(self) -> tuple:
        """Marker for ``window``: span count, counters and step samples so far."""
        return (len(self.spans), dict(self.counts),
                {a: len(v) for a, v in self.step_ms.items()})

    def window(self, start: tuple) -> dict:
        """Per-name totals over the spans recorded since ``start``."""
        i0, counts0, steps0 = start
        spans = self.spans[i0:]
        child = [0.0] * len(spans)
        for rec in spans:
            p = rec[3] - i0
            if p >= 0:
                child[p] += rec[2] - rec[1]
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        by_arch = defaultdict(int)
        top = 0.0
        for i, rec in enumerate(spans):
            dur = rec[2] - rec[1]
            total[rec[0]] += dur
            self_s[rec[0]] += dur - child[i]
            calls[rec[0]] += 1
            by_arch[(rec[0], rec[5])] += 1
            if rec[3] < i0:
                top += dur
        counts = {k: v - counts0.get(k, 0.0) for k, v in self.counts.items()}
        steps = {a: v[steps0.get(a, 0):] for a, v in self.step_ms.items()}
        return {"total": total, "self": self_s, "calls": calls,
                "by_arch": by_arch, "top": top, "counts": counts, "steps": steps}

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta, "fields":
                                ["name", "start", "end", "parent", "step", "arch"]}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
