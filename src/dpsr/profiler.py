"""Static parameter / FLOPs / state-memory accounting.

Counts are derived from shapes, never measured. Parameter counts are the
sizes of the tensors each block declares in `ParamSet.spec`, and an affine
layer's FLOPs follow from them; only FLOPs that no declared tensor carries
have formulas of their own. The streaming state is the arrays
`StreamState.spec` declares, at 4 bytes per (float32) element: the same
arrays a running stream allocates and `StreamState.nbytes()` measures.
Conventions:

* one multiply-accumulate = 2 FLOPs;
* transcendentals (exp, sigmoid, ...) = 1 FLOP each, itemized so the
  choice is auditable;
* "per input pixel" divides one line's forward cost by W, "per input
  sample" divides by W*C as well. Both are reported because published
  complexity tables rarely say which denominator they use.
"""

import math
from dataclasses import dataclass

from .blocks import composes
from .errors import check_positive
from .model import DpsrParams, StreamState

SILU_FLOPS = 5     # sigmoid (exp, add, div, ~1 aux) + multiply
SIGMOID_FLOPS = 4
LN_FLOPS = 8       # mean, centering, variance, rsqrt, scale, shift per element


@dataclass
class CostItem:
    name: str
    params: int
    flops: int       # per input line


@dataclass
class CostReport:
    config: "DpsrConfig"
    width: int
    items: list
    state: list      # (label, bytes) per streaming-state array

    @property
    def state_bytes(self):
        return sum(nbytes for _, nbytes in self.state)

    @property
    def param_count(self):
        return sum(i.params for i in self.items)

    @property
    def flops_per_line(self):
        return sum(i.flops for i in self.items)

    @property
    def flops_per_input_pixel(self):
        return self.flops_per_line / self.width

    @property
    def flops_per_input_sample(self):
        return self.flops_per_line / (self.width * self.config.bands)

    def table(self):
        lines = [f"{'block':<26} {'params':>12} {'flops/line':>14}"]
        for i in self.items:
            lines.append(f"{i.name:<26} {i.params:>12,} {i.flops:>14,}")
        lines.append(f"{'total':<26} {self.param_count:>12,} "
                     f"{self.flops_per_line:>14,}")
        lines.append("")
        lines.append(f"FLOPs per input pixel  (/W):   {self.flops_per_input_pixel:,.0f}")
        lines.append(f"FLOPs per input sample (/W/C): {self.flops_per_input_sample:,.0f}")
        lines.append("")
        lines.append("streaming state:")
        lines += [f"  {label:<28} {nbytes:>12,} B" for label, nbytes in self.state]
        lines.append(f"  {'total':<28} {self.state_bytes:>12,} B")
        return "\n".join(lines)

    def row(self):
        return (f"{self.config.features},{self.config.bands},{self.config.scale},"
                f"{self.config.memory_kind},{self.param_count},"
                f"{self.flops_per_input_pixel:.1f},{self.flops_per_input_sample:.1f},"
                f"{self.state_bytes}")

    @staticmethod
    def row_header():
        return ("features,bands,scale,memory,params,"
                "flops_per_px,flops_per_sample,state_bytes")


def _affine(name, sizes, positions, weight, bias=None):
    """An affine layer at `positions` points: per point, one multiply-add per
    weight entry and one add per bias entry. Covers linear layers and convs."""
    nb = sizes[bias] if bias else 0
    return CostItem(name, sizes[weight] + nb, positions * (2 * sizes[weight] + nb))


def _sfe_items(cfg, s, w):
    f = cfg.features
    # pooling, the shared MLP on the avg and max descriptors, sigmoid, rescale
    mlp = [_affine("", s, 2, "att_w1", "att_b1"), _affine("", s, 2, "att_w2", "att_b2")]
    return [
        _affine("sfe.conv", s, w, "conv_w", "conv_b"),
        CostItem("sfe.norm_act", s["ln_gamma"] + s["ln_beta"],
                 w * f * (LN_FLOPS + SILU_FLOPS)),
        CostItem("sfe.attention", sum(i.params for i in mlp),
                 2 * w * f + sum(i.flops for i in mlp) + f * (SIGMOID_FLOPS + 1) + w * f),
    ]


def _naf_items(cfg, s, w, tag):
    f = cfg.features
    norms = s["ln1_gamma"] + s["ln1_beta"] + s["ln2_gamma"] + s["ln2_beta"]
    return [
        CostItem(f"{tag}.norms", norms, 2 * w * f * LN_FLOPS),
        _affine(f"{tag}.pw1", s, w, "pw1_w", "pw1_b"),
        _affine(f"{tag}.dwconv", s, w, "dw_w", "dw_b"),
        CostItem(f"{tag}.gates", 0, 2 * w * f),     # two SimpleGates
        _affine(f"{tag}.sca", s, 1, "sca_w", "sca_b"),   # on the pooled descriptor
        CostItem(f"{tag}.sca_apply", 0, w * f * 2),
        _affine(f"{tag}.pw2", s, w, "pw2_w", "pw2_b"),
        _affine(f"{tag}.ffn1", s, w, "ffn1_w", "ffn1_b"),
        _affine(f"{tag}.ffn2", s, w, "ffn2_w", "ffn2_b"),
        CostItem(f"{tag}.residuals", 0, 2 * w * f),
    ]


def _memory_items(cfg, s, w, tag):
    ef, n = cfg.inner, cfg.state_size
    items = [
        _affine(f"{tag}.in_proj", s, w, "in_w", "in_b"),
        _affine(f"{tag}.gate_proj", s, w, "gate_w", "gate_b"),
        _affine(f"{tag}.causal_conv", s, w, "conv_w", "conv_b"),
        CostItem(f"{tag}.act", 0, 2 * w * ef * SILU_FLOPS),
    ]
    if cfg.selective:
        items += [
            _affine(f"{tag}.dt_proj", s, w, "dt_w", "dt_b"),
            CostItem(f"{tag}.dt_softplus", 0, w * ef * 3),
            _affine(f"{tag}.b_proj", s, w, "b_w"),
            _affine(f"{tag}.c_proj", s, w, "c_w"),
            # discretize, advance the latent, read out, skip
            CostItem(f"{tag}.ssm_state", s["a_log"] + s["d_skip"],
                     w * ef * n * 3       # exp(dt*A) per element
                     + w * ef * n * 4     # h = dA*h + dt*B*z
                     + w * ef * n * 2     # readout <C, h>
                     + w * ef * 2),       # D skip
        ]
    items += [
        CostItem(f"{tag}.gate_mul", 0, w * ef),
        _affine(f"{tag}.out_proj", s, w, "out_w", "out_b"),
    ]
    return items


def _upsampler_items(cfg, s, w):
    f, r, c = cfg.features, cfg.scale, cfg.bands
    if not composes(f, cfg.up_features, c):
        return [_affine("up.expand", s, w, "expand_w", "expand_b"),
                _affine("up.restore", s, r * r * w, "restore_w", "restore_b")]  # r lines of r*W
    # the form upsample_line runs: one 5-tap conv F -> r^2*C, then two border
    # corrections of r*C outputs each (an F-input GEMV and a bias subtract);
    # the parameters are still the declared expand and restore tensors
    return [CostItem("up.composed", sum(s.values()),
                     w * r * r * c * (2 * 5 * f + 1) + 2 * r * c * (2 * f + 1))]


def profile(config, width=32):
    """Symbolic walk of the architecture for one input line of `width` px."""
    check_positive("width", width)
    sizes = DpsrParams.build(config, lambda block, *dims: {
        name: math.prod(shape) for name, shape, _ in block.spec(*dims)})
    items = _sfe_items(config, sizes.sfe, width)
    for i, (naf, mem) in enumerate(sizes.clff):
        items += _naf_items(config, naf, width, f"clff{i}.naf")
        items += _memory_items(config, mem, width, f"clff{i}.mem")
    items += _upsampler_items(config, sizes.upsampler, width)
    state = [(label, 4 * math.prod(shape))       # the stream state is float32
             for label, shape in StreamState.spec(config, width)]
    return CostReport(config=config, width=width, items=items, state=state)
