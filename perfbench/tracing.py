"""Span tracer for the benchmark's traced run.

The tracer wraps the public names each texcodec layer exposes, in the
namespaces where its callers look them up (for example `encode_sequence` both
in `texcodec.codec` and in `texcodec.metrics`, whose `rd_sweep` calls it).
Nothing under `src/` changes: `install()` swaps module attributes and class
methods for timing wrappers, and `uninstall()` puts the originals back.

Each wrapped call is a frame on a stack.  When it returns, its duration is
added to its parent's child time, and its self time (duration minus child
time) is added to the per-name totals.  Coarse calls are also kept as span
records (id, parent id, op id, name, start, end, self time) in memory and
written out when the benchmark ends; hot calls (bit I/O, transforms, block
matching, the texture-block test) are only summed, because a span per call
would cost more memory and time than the work it measures.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Names recorded as individual spans; every other traced name is only summed.
SPAN_NAMES = frozenset({
    "op", "metrics.rd_sweep", "metrics.psnr", "codec.encode", "codec.decode",
    "motion.estimate", "motion.warp", "analyzer.train", "analyzer.segment",
    "nnet.forward_train", "nnet.forward_eval", "nnet.forward_val",
    "nnet.backward", "nnet.sgd",
})

# Tolerance of the per-stage check that self times add up to the stage span.
SELF_SUM_TOLERANCE_S = 1e-6
# Largest amount by which the stage span may exceed the runner's own timing
# of the same stage: the span opens just before that timing starts and
# closes just after it ends.
STAGE_CLOCK_TOLERANCE_S = 1e-3


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        # (stage id, span s, sum of self times s, runner's stage timing s,
        #  frames left on the stack when the stage closed)
        self.op_checks = []
        self.in_bitio = False
        self._op_id = None
        self._op_self = 0.0
        self._next_id = 0

    def push(self, name):
        parent = self.stack[-1][4] if self.stack else None
        sid = None
        if name in SPAN_NAMES:
            sid = self._next_id
            self._next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, sid,
                           parent if sid is None else sid, parent])

    def pop(self):
        end = time.perf_counter()
        name, start, child, sid, _, parent = self.stack.pop()
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += own
        self._op_self += own
        if sid is not None:
            self.spans.append({"id": sid, "parent": parent, "op": self._op_id,
                               "name": name, "start": start, "end": end,
                               "self": own})
        return dur

    def inside(self, name):
        """Whether a call traced as `name` is open."""
        return any(frame[0] == name for frame in self.stack)

    @contextmanager
    def op(self, op_id, stage):
        """Root span of one timed stage.  `stage.seconds` is the runner's
        own timing of the stage, set before the span closes."""
        if self.stack:
            raise RuntimeError("traced op started inside another span")
        self._op_id = op_id
        self._op_self = 0.0
        self.push("op")
        try:
            yield
        finally:
            dur = self.pop()
            self.op_checks.append((op_id, dur, self._op_self, stage.seconds,
                                   len(self.stack)))
            self._op_id = None

    def check(self):
        """Problems found in the recorded stages and spans, as messages.

        - The stack is empty when each stage closes: every traced call
          returned inside the stage that made it.
        - Each stage span covers the runner's own timing of the stage and
          exceeds it by at most STAGE_CLOCK_TOLERANCE_S.
        - Each recorded span lies inside its parent's interval and belongs
          to its parent's stage.
        - The self times of each stage and of everything traced under it
          add up to the stage span.  This checks only the tracer's
          bookkeeping: each pop moves exactly its duration to its parent.
        """
        problems = []
        for op_id, dur, self_sum, stage_s, depth in self.op_checks:
            if depth:
                problems.append(f"stage {op_id}: {depth} spans left open")
            if not 0.0 <= dur - stage_s <= STAGE_CLOCK_TOLERANCE_S:
                problems.append(f"stage {op_id}: span {dur:.6f} s against "
                                f"the runner's {stage_s:.6f} s")
            if abs(dur - self_sum) > SELF_SUM_TOLERANCE_S:
                problems.append(f"stage {op_id}: self times sum to "
                                f"{self_sum:.6f} s, span is {dur:.6f} s")
        by_id = {span["id"]: span for span in self.spans}
        for span in self.spans:
            if span["parent"] is None:
                continue
            parent = by_id.get(span["parent"])
            if parent is None or parent["op"] != span["op"] or not (
                    parent["start"] <= span["start"] <= span["end"]
                    <= parent["end"]):
                problems.append(f"span {span['id']} ({span['name']}) lies "
                                f"outside its parent {span['parent']}")
                break
        return problems

    def self_shares(self):
        """Each traced name's self time as a share of all stage time."""
        total = self.total["op"]
        return {name: own / total for name, own in sorted(
            self.self_time.items(), key=lambda kv: -kv[1]) if total}


def _wrap(tracer, name, fn, after=None):
    """Time `fn` as `name`; `after(args, kwargs, result)` records counts."""
    def wrapper(*args, **kwargs):
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if after is not None:
            after(args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _bitio_method(tracer, name, meth):
    """Time only the outermost BitWriter/BitReader call: the Exp-Golomb
    methods call the single-bit ones through `self`."""
    def method(self, *args):
        if tracer.in_bitio:
            return meth(self, *args)
        tracer.in_bitio = True
        tracer.push(name)
        try:
            return meth(self, *args)
        finally:
            tracer.pop()
            tracer.in_bitio = False
    return method


def _traced_writer(tracer, base):
    methods = {m: _bitio_method(tracer, "bitio.write", getattr(base, m))
               for m in ("write_bit", "write_bits", "write_ue", "write_se")
               if hasattr(base, m)}
    timed_flush = _bitio_method(tracer, "bitio.write", base.to_bytes)

    def to_bytes(self):
        if not self._flushed:
            self._flushed = True
            tracer.counts["bitio.bits_emitted"] += getattr(self, "bits_written", 0)
        return timed_flush(self)

    def __init__(self, *args, **kwargs):
        base.__init__(self, *args, **kwargs)
        self._flushed = False

    def __del__(self):
        tracer.counts["bitio.bits_written"] += getattr(self, "bits_written", 0)

    return type(base.__name__, (base,), {
        **methods, "to_bytes": to_bytes, "__init__": __init__,
        "__del__": __del__, "__module__": base.__module__})


def _traced_reader(tracer, base):
    methods = {m: _bitio_method(tracer, "bitio.read", getattr(base, m))
               for m in ("read_bit", "read_bits", "read_ue", "read_se")
               if hasattr(base, m)}
    return type(base.__name__, (base,), {**methods,
                                         "__module__": base.__module__})


class Instrumentation:
    """The set of wrappers for one process; install around each traced
    stage, uninstall after it."""

    def __init__(self, tracer):
        from texcodec import analyzer, codec, metrics, motion, nnet

        t = tracer
        self._saved = []
        self._plan = []

        def encoded(args, kwargs, result):
            seq = args[0] if args else kwargs["seq"]
            config = args[2] if len(args) > 2 else kwargs.get("config")
            t.counts["codec.encode.frames"] += len(seq)
            if getattr(config, "texture_mode", False):
                for fs in result.frame_stats:
                    if fs.frame_type != "KEY":
                        t.samples["codec.texture_area_fraction"].append(
                            fs.texture_area_fraction)

        def decoded(args, kwargs, result):
            t.counts["codec.decode.frames"] += len(result.reconstructions)

        def texture_tested(args, kwargs, result):
            t.counts["codec.is_texture_block.accepted"] += bool(result)

        def psnr_measured(args, kwargs, result):
            t.counts["metrics.psnr.frames"] += len(args[0])

        def segmented(args, kwargs, result):
            t.counts["analyzer.segment.frames"] += 1

        motion_error = motion.MotionError

        def estimate(fn):
            def wrapper(*args, **kwargs):
                t.push("motion.estimate")
                try:
                    return fn(*args, **kwargs)
                except motion_error:
                    t.counts["motion.estimate.failures"] += 1
                    raise
                finally:
                    t.pop()
            wrapper.__wrapped__ = fn
            return wrapper

        def net_forward(fn):
            # Eval-mode forward counts as segmentation only inside
            # `segment_frame`; the validation passes of `train_classifier`
            # are traced apart as nnet.forward_val.
            def forward(self, x, train=False, rng=None):
                if train:
                    name = "nnet.forward_train"
                elif t.inside("analyzer.segment"):
                    name = "nnet.forward_eval"
                else:
                    name = "nnet.forward_val"
                t.push(name)
                try:
                    return fn(self, x, train=train, rng=rng)
                finally:
                    t.pop()
                    if name == "nnet.forward_eval":
                        t.counts["nnet.forward_eval.blocks"] += len(x)
            forward.__wrapped__ = fn
            return forward

        plain = [
            (codec, "encode_sequence", "codec.encode", encoded),
            (metrics, "encode_sequence", "codec.encode", encoded),
            (codec, "decode_sequence", "codec.decode", decoded),
            (metrics, "decode_sequence", "codec.decode", decoded),
            (codec, "is_texture_block", "codec.is_texture_block", texture_tested),
            (codec, "transform_quantize", "transform.forward", None),
            (codec, "reconstruct_residual", "transform.inverse", None),
            (codec, "scan", "transform.scan", None),
            (codec, "unscan", "transform.scan", None),
            (codec, "diamond_search", "motion.block_match", None),
            (motion, "diamond_search", "motion.block_match", None),
            (codec, "warp_frame", "motion.warp", None),
            (metrics, "rd_sweep", "metrics.rd_sweep", None),
            (metrics, "psnr_nontexture", "metrics.psnr", psnr_measured),
            (analyzer, "train_classifier", "analyzer.train", None),
            (analyzer, "segment_frame", "analyzer.segment", segmented),
            (nnet.Net, "backward", "nnet.backward", None),
            (nnet.SGD, "step", "nnet.sgd", None),
        ]
        for owner, attr, name, after in plain:
            if hasattr(owner, attr):
                self._plan.append((owner, attr,
                                   _wrap(t, name, getattr(owner, attr), after)))
        special = [
            (codec, "estimate_texture_motion", estimate),
            (nnet.Net, "forward", net_forward),
            (codec, "BitWriter", lambda c: _traced_writer(t, c)),
            (codec, "BitReader", lambda c: _traced_reader(t, c)),
        ]
        for owner, attr, make in special:
            if hasattr(owner, attr):
                self._plan.append((owner, attr, make(getattr(owner, attr))))

    def install(self):
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for owner, attr, replacement in self._plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the traced stages; name -> (value, unit).
    Counts and times marked "/op" are means over traced ops; a metric of a
    layer that did not run reads 0."""
    per_op = 1.0 / n_ops if n_ops else 0.0
    ms = 1e3
    c = t.counts
    written = c["bitio.bits_written"]
    emitted = c["bitio.bits_emitted"]
    area = t.samples["codec.texture_area_fraction"]
    n_train = t.calls["nnet.forward_train"]
    return {
        "codec.encode.self_ms_per_frame": (
            ms * _ratio(t.self_time["codec.encode"], c["codec.encode.frames"]), "ms/frame"),
        "codec.decode.self_ms_per_frame": (
            ms * _ratio(t.self_time["codec.decode"], c["codec.decode.frames"]), "ms/frame"),
        "codec.is_texture_block.calls": (
            t.calls["codec.is_texture_block"] * per_op, "count/op"),
        "codec.is_texture_block.accept_ratio": (
            _ratio(c["codec.is_texture_block.accepted"],
                   t.calls["codec.is_texture_block"]), "ratio"),
        "codec.texture_area_fraction": (_ratio(sum(area), len(area)), "ratio"),
        "bitio.write.ms": (ms * t.total["bitio.write"] * per_op, "ms/op"),
        "bitio.read.ms": (ms * t.total["bitio.read"] * per_op, "ms/op"),
        "bitio.bits_emitted": (emitted * per_op, "bits/op"),
        "bitio.bits_trial": ((written - emitted) * per_op, "bits/op"),
        "bitio.emitted_fraction": (_ratio(emitted, written), "ratio"),
        "transform.forward.calls": (t.calls["transform.forward"] * per_op, "count/op"),
        "transform.forward.ms": (ms * t.total["transform.forward"] * per_op, "ms/op"),
        "transform.inverse.calls": (t.calls["transform.inverse"] * per_op, "count/op"),
        "transform.inverse.ms": (ms * t.total["transform.inverse"] * per_op, "ms/op"),
        "transform.inverse_per_forward": (
            _ratio(t.calls["transform.inverse"], t.calls["transform.forward"]), "ratio"),
        "transform.scan.ms": (ms * t.total["transform.scan"] * per_op, "ms/op"),
        "motion.estimate.calls": (t.calls["motion.estimate"] * per_op, "count/op"),
        "motion.estimate.ms_per_call": (
            ms * _ratio(t.total["motion.estimate"], t.calls["motion.estimate"]), "ms/call"),
        "motion.estimate.failures": (c["motion.estimate.failures"] * per_op, "count/op"),
        "motion.block_match.calls": (t.calls["motion.block_match"] * per_op, "count/op"),
        "motion.block_match.ms": (ms * t.total["motion.block_match"] * per_op, "ms/op"),
        "motion.warp.calls": (t.calls["motion.warp"] * per_op, "count/op"),
        "motion.warp.ms_per_call": (
            ms * _ratio(t.total["motion.warp"], t.calls["motion.warp"]), "ms/call"),
        "metrics.rd_sweep.self_s": (t.self_time["metrics.rd_sweep"] * per_op, "s/op"),
        "metrics.psnr.ms_per_frame": (
            ms * _ratio(t.total["metrics.psnr"], c["metrics.psnr.frames"]), "ms/frame"),
        "nnet.forward_train.ms_per_batch": (
            ms * _ratio(t.total["nnet.forward_train"], n_train), "ms/batch"),
        "nnet.backward.ms_per_batch": (
            ms * _ratio(t.total["nnet.backward"], t.calls["nnet.backward"]), "ms/batch"),
        "nnet.sgd.ms_per_step": (
            ms * _ratio(t.total["nnet.sgd"], t.calls["nnet.sgd"]), "ms/step"),
        "nnet.forward_eval.us_per_block": (
            1e6 * _ratio(t.total["nnet.forward_eval"], c["nnet.forward_eval.blocks"]),
            "us/block"),
        "analyzer.segment.self_ms_per_frame": (
            ms * _ratio(t.self_time["analyzer.segment"], c["analyzer.segment.frames"]),
            "ms/frame"),
    }
