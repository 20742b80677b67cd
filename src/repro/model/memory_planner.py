"""Ahead-of-time memory planner for long-sequence inference.

The paper's Fig. 5 shows pair-tensor activations — not FLOPs — failing
admission for long targets: the resident triangle-attention schedule
keeps O(N²·heads) logits per pair row live, O(N³) overall.  MegaFold
(PAPERS.md) shows that fused attention plus ahead-of-time planning
cuts AF3-style peak memory ~1.6x.  This module is that planner for the
repo's device model: given a token count and a *workspace budget* it
chooses, per Pairformer layer,

* the tile size (pair rows of logits live at once) for the triangle
  attention and triangle multiplication cores, and
* recompute-vs-retain for the triangle multiplication's normalised
  input (drop the retained (N, N, c_pair) activation and recompute it
  bit-identically after the cubic contraction — FLOPs for bytes),

such that no layer's live workspace exceeds the budget.  Layers run
sequentially, so the plan's peak is the *max* over layers, not the
sum.  The chosen schedule maps 1:1 onto the functional substrate via
:meth:`MemoryPlan.execution_plan` (``ExecutionPlan(attention="tiled",
attention_block=..., recompute_scopes=...)``) and onto the analytic
device model via ``InferenceSimulator(attention_block=...)``.

It also owns the inference attention schedule every layer applies:
:class:`AttentionSchedule` and :func:`resolve_schedule`.

Budget semantics: the budget bounds the *schedulable* workspace only.
Weights and the irreducible pair stack (pair representation, recycling
residuals) cannot be scheduled away and are reported alongside; :func:`plan_for_device` subtracts them from a
total device capacity before delegating to :func:`plan_memory`.

Everything here is pure arithmetic on the inputs — the planner is
deterministic for a given (num_tokens, budget), which the property
tests pin.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..hardware.gpu import (
    ACTIVATION_BASE_BYTES,
    PAIR_STACK_BYTES_PER_PAIR,
    WEIGHTS_BYTES,
    InferenceSimulator,
    attention_workspace_bytes,
)
from ..hardware.platform import Platform
from ..parallel.plan import ExecutionPlan
from .config import ModelConfig

GIB = 1024 ** 3
MIB = 1024 ** 2

#: Device-model layer dimensions (production AF3 sizes, fp16 device
#: tensors — matching the folded constants in repro.hardware.gpu).
DEVICE_HEADS = 16
DEVICE_C_PAIR = 128
DEVICE_C_HIDDEN = 128
DEVICE_C_SINGLE = 384
FP16_BYTES = 2.0

#: Live copies of the functional (numpy) logits tensor around the
#: softmax: the scaled+biased logits, the max-shifted copy, the
#: exponentials, and the normalised weights are all bound at once.
#: (The 1/sqrt(d) scale promotes them to float64 — 8 B/element.)
FUNCTIONAL_LOGITS_LIVE_COPIES = 4
FUNCTIONAL_LOGITS_ITEMSIZE = 8.0

#: Tile-size candidates, largest first: the planner prefers the
#: largest feasible block (fewest tiles — friendliest to runtime) and
#: prefers retain over recompute at any block (no extra FLOPs).
_BLOCK_CANDIDATES = tuple(2 ** k for k in range(20, -1, -1))

#: The inference attention schedules: ``chunked`` (production default),
#: ``resident`` (full O(N³) logits) and ``tiled`` (a planner block).
ATTENTION_SCHEDULES = ("chunked", "resident", "tiled")


@dataclasses.dataclass(frozen=True)
class AttentionSchedule:
    """One inference attention schedule.  ``block`` (live pair rows)
    is valid only for ``tiled``; ``None`` there means not planned yet."""

    name: str = "chunked"
    block: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in ATTENTION_SCHEDULES:
            raise ValueError(
                "attention must be 'chunked', 'resident' or 'tiled', "
                f"got {self.name!r}"
            )
        if self.block is not None and self.name != "tiled":
            raise ValueError(
                "an attention block is only valid with the 'tiled' "
                f"schedule, not {self.name!r}"
            )
        if self.block is not None and self.block < 1:
            raise ValueError(f"attention block must be >= 1, got {self.block}")

    @property
    def live_block(self) -> Optional[int]:
        """The device model's live attention block (``None``: the
        production chunk, or all rows when resident)."""
        if self.name == "tiled" and self.block is None:
            raise ValueError(
                "the tiled schedule needs a block: pass one "
                "(--attention-block), or plan one for a single device "
                "with resolve_schedule"
            )
        return self.block

    @property
    def chunked_triangle(self) -> bool:
        """Whether the triangle cores chunk (all but ``resident``)."""
        return self.name != "resident"

    @property
    def allow_unified_memory(self) -> bool:
        """Only the production schedule may spill into unified memory;
        the explicit ones are strict admission checks."""
        return self.name == "chunked"

    def simulator(
        self, platform: Platform, config: Optional[ModelConfig] = None
    ) -> InferenceSimulator:
        """The inference device model on ``platform`` under this
        schedule (admission still takes :attr:`allow_unified_memory`)."""
        return InferenceSimulator(
            platform.gpu, platform.host_single_thread_ips, config=config,
            host_thread_penalty=platform.inference_thread_penalty,
            chunked_triangle=self.chunked_triangle,
            attention_block=self.live_block,
        )


class MemoryBudgetError(RuntimeError):
    """No schedule fits the budget — an *admission* error, raised
    before any compute is spent, never silently downgraded."""

    def __init__(
        self,
        num_tokens: int,
        budget_bytes: float,
        min_feasible_bytes: float,
        detail: str = "",
    ) -> None:
        self.num_tokens = num_tokens
        self.budget_bytes = budget_bytes
        self.min_feasible_bytes = min_feasible_bytes
        msg = (
            f"memory plan infeasible for N={num_tokens}: workspace "
            f"budget {budget_bytes / MIB:.0f} MiB is below the "
            f"{min_feasible_bytes / MIB:.0f} MiB floor of the most "
            f"aggressive schedule (block=1 + recompute). Raise the "
            f"budget to at least {min_feasible_bytes / MIB:.0f} MiB "
            f"(--memory-budget-mb) or run on a larger device."
        )
        if detail:
            msg = f"{msg} {detail}"
        super().__init__(msg)


@dataclasses.dataclass(frozen=True)
class LayerSchedule:
    """The planner's decision for one Pairformer scope."""

    scope: str
    mode: str                      # "resident" | "tiled" | "fixed"
    block: Optional[int]           # live rows (None = no tiling knob)
    recompute: bool
    workspace_bytes: float

    def summary(self) -> Dict[str, object]:
        return {
            "scope": self.scope,
            "mode": self.mode,
            "block": self.block,
            "recompute": self.recompute,
            "workspace_bytes": int(self.workspace_bytes),
        }


@dataclasses.dataclass(frozen=True)
class MemoryPlan:
    """A feasible per-layer schedule against a workspace budget."""

    num_tokens: int
    attention: str                 # "resident" | "tiled"
    attention_block: Optional[int]
    recompute: bool
    workspace_budget_bytes: float
    layers: Tuple[LayerSchedule, ...]

    @property
    def workspace_bytes(self) -> float:
        """Peak schedulable workspace: layers run sequentially, so the
        plan's own estimator is the max over per-layer peaks."""
        return max(layer.workspace_bytes for layer in self.layers)

    @property
    def weights_bytes(self) -> float:
        return float(WEIGHTS_BYTES)

    @property
    def pair_stack_bytes(self) -> float:
        """Irreducible (non-schedulable) activation bytes."""
        return (
            PAIR_STACK_BYTES_PER_PAIR * self.num_tokens ** 2
            + ACTIVATION_BASE_BYTES
        )

    @property
    def demand_bytes(self) -> float:
        """Total device demand under this plan, per the planner's own
        estimator (conservative vs the folded simulator constant: the
        per-layer view also counts the triangle-mult projections and
        transition scratch at their unfolded sizes)."""
        return self.weights_bytes + self.pair_stack_bytes + self.workspace_bytes

    @property
    def resident_demand_bytes(self) -> float:
        """What the same input demands under the resident schedule."""
        resident = _schedule(self.num_tokens, self.num_tokens, False, "resident")
        peak = max(layer.workspace_bytes for layer in resident)
        return self.weights_bytes + self.pair_stack_bytes + peak

    @property
    def savings_ratio(self) -> float:
        """Resident-over-planned peak demand (>= 1.0)."""
        return self.resident_demand_bytes / self.demand_bytes

    def execution_plan(
        self, base: Optional[ExecutionPlan] = None
    ) -> ExecutionPlan:
        """The functional-substrate plan realising this schedule."""
        base = base or ExecutionPlan()
        recompute = ("triangle_mult",) if self.recompute else ()
        if self.attention == "resident":
            return dataclasses.replace(
                base, attention="resident", attention_block=None,
                recompute_scopes=recompute,
            )
        return dataclasses.replace(
            base, attention="tiled", attention_block=self.attention_block,
            recompute_scopes=recompute,
        )

    def summary(self) -> Dict[str, object]:
        """JSON-able report (golden-pinned for the 6QNR-like target).

        All byte figures are exact integers — products of the integer
        device-model constants — so the golden comparison is ``==``,
        not approximate.
        """
        return {
            "schema": "af3-memory-plan/v1",
            "num_tokens": self.num_tokens,
            "attention": self.attention,
            "attention_block": self.attention_block,
            "recompute": self.recompute,
            "workspace_budget_bytes": int(self.workspace_budget_bytes),
            "workspace_bytes": int(self.workspace_bytes),
            "weights_bytes": int(self.weights_bytes),
            "pair_stack_bytes": int(self.pair_stack_bytes),
            "demand_bytes": int(self.demand_bytes),
            "resident_demand_bytes": int(self.resident_demand_bytes),
            "savings_ratio": round(self.savings_ratio, 4),
            "layers": [layer.summary() for layer in self.layers],
        }

    def render(self) -> str:
        """Operator-facing planner report."""
        from ..core.report import render_table

        rows = [
            (
                layer.scope.replace("pairformer.", ""),
                layer.mode,
                layer.block if layer.block is not None else "-",
                "recompute" if layer.recompute else "retain",
                f"{layer.workspace_bytes / MIB:.0f} MiB",
            )
            for layer in self.layers
        ]
        title = (
            f"Memory plan for N={self.num_tokens}: {self.attention}"
            + (
                f" (block={self.attention_block})"
                if self.attention_block is not None else ""
            )
            + f", peak workspace {self.workspace_bytes / GIB:.2f} GiB of "
            f"{self.workspace_budget_bytes / GIB:.2f} GiB budget, total "
            f"demand {self.demand_bytes / GIB:.2f} GiB "
            f"({self.savings_ratio:.2f}x below resident)"
        )
        return render_table(
            ["Layer", "Mode", "Block", "zn policy", "Workspace"],
            rows, title=title,
        )


def _schedule(
    num_tokens: int, rows: int, recompute: bool, mode: str
) -> Tuple[LayerSchedule, ...]:
    """Per-layer live-workspace bytes for one candidate schedule.

    ``rows`` = pair rows live at once in the tiled cores (= N for the
    resident candidate).  Layers without a tiling knob ("fixed") are
    included so the feasibility check covers unavoidable scratch too.
    """
    n = num_tokens
    n2 = float(n) * n
    rows = min(rows, n)
    head_rows = min(rows, DEVICE_HEADS)
    block = None if mode == "resident" else rows

    # Triangle multiplication: the a/b projections are live for the
    # whole cubic contraction, the normalised input zn is retained
    # unless the planner chose recompute, and the einsum writes one
    # output-row tile at a time.
    projections = 2.0 * n2 * DEVICE_C_HIDDEN * FP16_BYTES
    retained_zn = 0.0 if recompute else n2 * DEVICE_C_PAIR * FP16_BYTES
    contract_tile = float(rows) * n * DEVICE_C_HIDDEN * FP16_BYTES
    tri_mult = projections + retained_zn + contract_tile

    # Triangle attention: ``rows`` live (heads, N, N) fp16 logit rows,
    # two copies around the softmax — the dominant, schedulable term.
    tri_attn = attention_workspace_bytes(n, rows)

    # Single attention tiles heads instead of pair rows; its logits
    # are (heads, N, N) — no N³ term.
    single_attn = 2.0 * head_rows * n2 * FP16_BYTES

    # The pair transition's 4x-expanded hidden scratch is row-wise
    # independent (layer norm + two batched linears), so it tiles with
    # the same block as the triangle cores.  Crucially this keeps the
    # recompute knob live: with the transition schedulable, the floor
    # of a retain plan is the triangle-mult projections *plus* the
    # retained zn (768·N² bytes), while recompute drops to the
    # projections alone (512·N²) — so tight budgets genuinely force
    # the flops-for-bytes trade instead of it being shadowed by a
    # fixed N² term.  The single transition is O(N) scratch and stays
    # unscheduled.
    if mode == "resident":
        pair_transition = n2 * 4.0 * DEVICE_C_PAIR * FP16_BYTES
    else:
        pair_transition = (
            float(rows) * n * 4.0 * DEVICE_C_PAIR * FP16_BYTES
        )
    single_transition = float(n) * 4.0 * DEVICE_C_SINGLE * FP16_BYTES

    return (
        LayerSchedule(
            "pairformer.triangle_mult_outgoing", mode, block, recompute,
            tri_mult,
        ),
        LayerSchedule(
            "pairformer.triangle_mult_incoming", mode, block, recompute,
            tri_mult,
        ),
        LayerSchedule(
            "pairformer.triangle_attention_starting", mode, block, False,
            tri_attn,
        ),
        LayerSchedule(
            "pairformer.triangle_attention_ending", mode, block, False,
            tri_attn,
        ),
        LayerSchedule(
            "pairformer.pair_transition", mode, block, False,
            pair_transition,
        ),
        LayerSchedule(
            "pairformer.single_attention", mode,
            None if mode == "resident" else head_rows, False, single_attn,
        ),
        LayerSchedule(
            "pairformer.single_transition", "fixed", None, False,
            single_transition,
        ),
    )


def _peak(layers: Tuple[LayerSchedule, ...]) -> float:
    return max(layer.workspace_bytes for layer in layers)


def min_feasible_workspace_bytes(num_tokens: int) -> float:
    """The floor: block=1 + recompute, the most aggressive schedule."""
    return _peak(_schedule(num_tokens, 1, True, "tiled"))


def plan_memory(
    num_tokens: int,
    workspace_budget_bytes: float,
    allow_resident: bool = True,
) -> MemoryPlan:
    """Choose the schedule for ``num_tokens`` under a workspace budget.

    Policy (deterministic): resident if it fits (and is allowed),
    otherwise the largest power-of-two tile that fits with the
    retained zn, otherwise the largest tile that fits with recompute.
    Infeasible budgets raise :class:`MemoryBudgetError` — admission
    fails loudly instead of silently falling back to a schedule that
    would OOM.

    ``allow_resident=False`` forces a tiled schedule even when the
    resident one would fit (``repro run --attention tiled`` asks for
    the bounded-workspace path explicitly).
    """
    if num_tokens < 1:
        raise ValueError("num_tokens must be >= 1")
    if workspace_budget_bytes <= 0:
        raise MemoryBudgetError(
            num_tokens, workspace_budget_bytes,
            min_feasible_workspace_bytes(num_tokens),
        )

    def feasible(layers: Tuple[LayerSchedule, ...]) -> bool:
        return _peak(layers) <= workspace_budget_bytes

    if allow_resident:
        resident = _schedule(num_tokens, num_tokens, False, "resident")
        if feasible(resident):
            return MemoryPlan(
                num_tokens=num_tokens,
                attention="resident",
                attention_block=None,
                recompute=False,
                workspace_budget_bytes=float(workspace_budget_bytes),
                layers=resident,
            )
    for recompute in (False, True):
        for block in _BLOCK_CANDIDATES:
            if block >= num_tokens and num_tokens > 1:
                continue  # a tile covering all rows is just resident
            layers = _schedule(num_tokens, block, recompute, "tiled")
            if feasible(layers):
                return MemoryPlan(
                    num_tokens=num_tokens,
                    attention="tiled",
                    attention_block=min(block, num_tokens),
                    recompute=recompute,
                    workspace_budget_bytes=float(workspace_budget_bytes),
                    layers=layers,
                )
    raise MemoryBudgetError(
        num_tokens, workspace_budget_bytes,
        min_feasible_workspace_bytes(num_tokens),
    )


def plan_for_device(
    num_tokens: int,
    device_bytes: float,
    allow_resident: bool = True,
) -> MemoryPlan:
    """Plan against a total device capacity (admission-path entry).

    Subtracts the non-schedulable demand — weights plus the
    irreducible pair stack — and plans the layer workspaces into what
    remains.  If the irreducible demand alone exceeds the device, no
    block size can help and the error says so explicitly.
    """
    irreducible = (
        WEIGHTS_BYTES
        + PAIR_STACK_BYTES_PER_PAIR * num_tokens ** 2
        + ACTIVATION_BASE_BYTES
    )
    budget = float(device_bytes) - irreducible
    if budget <= 0:
        raise MemoryBudgetError(
            num_tokens, max(budget, 0.0),
            min_feasible_workspace_bytes(num_tokens),
            detail=(
                f"(weights + pair stack alone need "
                f"{irreducible / GIB:.1f} GiB of the "
                f"{device_bytes / GIB:.1f} GiB device — no attention "
                f"schedule can fit this input)"
            ),
        )
    return plan_memory(num_tokens, budget, allow_resident=allow_resident)


def resolve_schedule(
    schedule: AttentionSchedule, num_tokens: int, device_bytes: float,
    budget_bytes: Optional[float] = None,
) -> Tuple[AttentionSchedule, Optional[MemoryPlan]]:
    """Plan an unplanned tiled schedule's block (never resident)
    against ``budget_bytes`` of workspace, else the whole device; any
    other schedule comes back as is, with no plan.  An infeasible plan
    raises :class:`MemoryBudgetError`."""
    if schedule.name != "tiled" or schedule.block is not None:
        return schedule, None
    if budget_bytes is not None:
        plan = plan_memory(num_tokens, budget_bytes, allow_resident=False)
    else:
        plan = plan_for_device(num_tokens, device_bytes, allow_resident=False)
    return AttentionSchedule("tiled", plan.attention_block), plan


def functional_attention_peak_bytes(
    num_tokens: int, heads: int, rows: Optional[int] = None
) -> float:
    """Predicted peak live bytes of the *functional* (numpy) triangle
    attention core, for the tracemalloc regression band.

    The resident core holds :data:`FUNCTIONAL_LOGITS_LIVE_COPIES`
    float64 copies of the (rows, heads, N, N) logits around the
    softmax; a tiled plan bounds ``rows`` at the block size.
    """
    live_rows = num_tokens if rows is None else min(rows, num_tokens)
    logits_elems = float(live_rows) * heads * num_tokens * num_tokens
    return (
        FUNCTIONAL_LOGITS_LIVE_COPIES
        * FUNCTIONAL_LOGITS_ITEMSIZE
        * logits_elems
    )
