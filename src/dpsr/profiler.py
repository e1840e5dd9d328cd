"""Static parameter / FLOPs / state-memory accounting.

Counts are derived from shapes, never measured. Conventions:

* one multiply-accumulate = 2 FLOPs;
* transcendentals (exp, sigmoid, ...) = 1 FLOP each, itemized so the
  choice is auditable;
* "per input pixel" divides one line's forward cost by W, "per input
  sample" divides by W*C as well. Both are reported because published
  complexity tables rarely say which denominator they use.
"""

from dataclasses import dataclass

from .blocks import attention_hidden, composes
from .errors import check_positive
from .stream import account_state_bytes

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
    state: "StateAccounting"

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
        lines.append(str(self.state))
        return "\n".join(lines)

    def row(self):
        return (f"{self.config.features},{self.config.bands},{self.config.scale},"
                f"{self.config.memory_kind},{self.param_count},"
                f"{self.flops_per_input_pixel:.1f},{self.flops_per_input_sample:.1f},"
                f"{self.state.total_bytes}")

    @staticmethod
    def row_header():
        return ("features,bands,scale,memory,params,"
                "flops_per_px,flops_per_sample,state_bytes")


def _conv1d(name, w, cin, cout, k, lines=1):
    return CostItem(name, cout * cin * k + cout,
                    lines * (w * cout * (2 * cin * k) + w * cout))


def _linear(name, w, din, dout, bias=True):
    p = dout * din + (dout if bias else 0)
    f = w * dout * 2 * din + (w * dout if bias else 0)
    return CostItem(name, p, f)


def _sfe_items(cfg, w):
    f, c = cfg.features, cfg.bands
    hidden = attention_hidden(f, cfg.ca_reduction)
    items = [
        _conv1d("sfe.conv", w, c, f, 3),
        CostItem("sfe.norm_act", 2 * f, w * f * (LN_FLOPS + SILU_FLOPS)),
    ]
    # two pooled descriptors through the shared MLP, sigmoid, rescale
    mlp_p = hidden * f + hidden + f * hidden + f
    mlp_f = 2 * (hidden * 2 * f + hidden + f * 2 * hidden + f)
    att_f = 2 * w * f + mlp_f + f * (SIGMOID_FLOPS + 1) + w * f
    items.append(CostItem("sfe.attention", mlp_p, att_f))
    return items


def _naf_items(cfg, w, tag):
    f = cfg.features
    items = [
        CostItem(f"{tag}.norms", 4 * f, 2 * w * f * LN_FLOPS),
        _linear(f"{tag}.pw1", w, f, 2 * f),
        _conv1d(f"{tag}.dwconv", w, 1, 2 * f, 3),   # depthwise: cin=1 per channel
        CostItem(f"{tag}.gates", 0, 2 * w * f),     # two SimpleGates
        _linear(f"{tag}.sca", 1, f, f),             # on the pooled descriptor
        CostItem(f"{tag}.sca_apply", 0, w * f * 2),
        _linear(f"{tag}.pw2", w, f, f),
        _linear(f"{tag}.ffn1", w, f, 2 * f),
        _linear(f"{tag}.ffn2", w, f, f),
        CostItem(f"{tag}.residuals", 0, 2 * w * f),
    ]
    return items


def _memory_items(cfg, w, tag):
    f, ef, n, k = cfg.features, cfg.inner, cfg.state_size, cfg.kernel_lines
    items = [
        _linear(f"{tag}.in_proj", w, f, ef),
        _linear(f"{tag}.gate_proj", w, f, ef),
        _conv1d(f"{tag}.causal_conv", w, 1, ef, k),
        CostItem(f"{tag}.act", 0, 2 * w * ef * SILU_FLOPS),
    ]
    if cfg.memory_kind == "mamba":
        items += [
            _linear(f"{tag}.dt_proj", w, ef, ef),
            CostItem(f"{tag}.dt_softplus", 0, w * ef * 3),
            _linear(f"{tag}.b_proj", w, ef, n, bias=False),
            _linear(f"{tag}.c_proj", w, ef, n, bias=False),
            # discretize, advance the latent, read out, skip
            CostItem(f"{tag}.ssm_state", ef * n + ef,
                     w * ef * n * 3       # exp(dt*A) per element
                     + w * ef * n * 4     # h = dA*h + dt*B*z
                     + w * ef * n * 2     # readout <C, h>
                     + w * ef * 2),       # D skip
        ]
    items += [
        CostItem(f"{tag}.gate_mul", 0, w * ef),
        _linear(f"{tag}.out_proj", w, ef, f),
    ]
    return items


def _upsampler_items(cfg, w):
    f, uf, r, c = cfg.features, cfg.up_features, cfg.scale, cfg.bands
    expand = _conv1d("up.expand", w, f, uf * r * r, 3)
    restore = _conv1d("up.restore", w * r, uf, c, 3, lines=r)
    if not composes(f, uf, c):
        return [expand, restore]
    # the form upsample_line runs: one 5-tap conv F -> r^2*C, then two border
    # corrections of r*C outputs each (an F-input GEMV and a bias subtract);
    # the parameters are still the declared expand and restore tensors
    conv = _conv1d("up.composed", w, f, r * r * c, 5)
    return [CostItem(conv.name, expand.params + restore.params,
                     conv.flops + 2 * r * c * (2 * f + 1))]


def profile(config, width=32):
    """Symbolic walk of the architecture for one input line of `width` px."""
    check_positive("width", width)
    items = _sfe_items(config, width)
    for i in range(config.n_clff):
        items += _naf_items(config, width, f"clff{i}.naf")
        items += _memory_items(config, width, f"clff{i}.mem")
    items += _upsampler_items(config, width)
    return CostReport(config=config, width=width, items=items,
                      state=account_state_bytes(config, width))
