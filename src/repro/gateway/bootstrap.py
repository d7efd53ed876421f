"""Deterministic gateway assembly shared by the CLI, CI smoke and benchmarks.

Everything the demo gateway serves is synthesized reproducibly from seeds
(zoo model weights, synthetic calibration corpus, MILLION codebooks), so two
processes that call :func:`build_gateway` with the same :class:`GatewayConfig`
hold *identical* engines, whether their codebooks were trained or loaded
from the codebook cache (which stores them bit for bit).  That property is
what the CI smoke test leans on: it streams a completion from a gateway
subprocess and compares the tokens against a direct
:meth:`BatchedMillionEngine.run` on an engine it built itself — token
identity across the HTTP boundary, asserted end to end.

Calibration runs once; replicas share the read-only quantizers but each gets
its own model instance and its own block pool — one per replica, shared by
every quality tier (engines step concurrently on executor threads, so no
mutable state may be shared between replicas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.calibration import (
    calibrate_million,
    collect_kv_samples,
    measure_sensitivity,
    train_million_quantizers,
)
from repro.core.codebook_cache import default_cache_dir
from repro.core.config import MillionConfig
from repro.core.million_cache import MillionCacheFactory
from repro.data.corpus import load_corpus
from repro.models.model_zoo import load_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.health import HealthEngine, HealthPolicy
from repro.obs.prof import PhaseProfiler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.quant.policy import QuantPolicy, derive_policy, million_variant
from repro.serving.engine import BatchedMillionEngine
from repro.serving.scheduler import SloPolicy
from repro.serving.memory import PooledPolicyCacheFactory

from repro.gateway.runner import AsyncEngineRunner
from repro.gateway.router import ReplicaRouter
from repro.gateway.server import GatewayServer


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for the self-contained demo gateway (all defaults are tiny).

    ``tiers=True`` additionally calibrates per-request quality tiers:
    ``"quality"`` (mixed policy at 1.5x the default uniform byte budget),
    ``"balanced"`` (the default policy, sharing its blocks) and
    ``"compact"`` (mixed policy below the default budget).  Clients pick one
    with the request's ``tier`` field; tiers decode through the same stacked
    forward as untiered requests and allocate from the replica's one pool of
    ``pool_blocks`` blocks, so capacity moves between tiers.  Each bit width
    a tier uses calibrates its own codebooks at startup, hence the default
    is off.
    """

    model: str = "llama-2-7b-tiny"
    seed: int = 0
    max_seq_len: int = 1024
    replicas: int = 1
    max_batch_size: int = 4
    max_queue_size: int = 64
    pool_blocks: int = 512
    block_tokens: int = 16
    calibration_tokens: int = 768
    bits: int = 4
    tiers: bool = False
    # Ring-buffer capacity (events) of the shared request-lifecycle trace
    # recorder; 0 disables tracing (hooks cost one attribute check).
    trace_capacity: int = 65536
    # Priority-class admission: 0 collapses the interactive/best_effort
    # queues into one FIFO (the pre-priority baseline the serving.slo_load
    # benchmark compares against).  Integer because every non-model knob
    # becomes a ``type=int`` CLI flag.
    priority_aware: int = 1
    # Per-class queue-wait SLOs in milliseconds; 0 disables that class's SLO
    # (submissions are then only refused at the max_queue_size hard cap).
    interactive_ttft_slo_ms: int = 0
    best_effort_ttft_slo_ms: int = 0
    # Phase profiler (repro.obs.prof): 1 gives every replica a profiler —
    # /debug/prof and the repro_engine_phase_seconds family light up; 0
    # leaves the no-op profiler (each hook costs one attribute check).
    profiler: int = 1
    # Health engine rolling window, seconds (deltas between scrapes).
    health_window_s: int = 60
    # Per-class TTFT SLOs (milliseconds) for the health engine's burn-rate
    # rules; 0 inherits the admission SLO knob of the same class, and if
    # both are 0 the class has no burn rule.  Separate knobs because the
    # admission gate *sheds* load while the burn rule only *reports* —
    # an operator may want alerting well before refusing requests.
    burn_interactive_slo_ms: int = 0
    burn_best_effort_slo_ms: int = 0
    # Chunked prefill (Sarathi-style stall-free batching): picks the
    # per-step prefill token budget of every pooled replica.  1 caps each
    # step at ``prefill_token_budget`` tokens, so long prompts prefill in
    # block-aligned chunks interleaved with the fused decode batch; 0 sets
    # no cap, so every admitted prompt prefills in one chunk within its
    # admission step.  Both run the same chunk schedule; the chunk size
    # moves the quantized/full-precision split, so flipping this knob
    # changes sampled tokens — compare like against like.  A budget also
    # lets a shared prefix that ends on a chunk boundary be adopted.
    chunked_prefill: int = 0
    # Per-step prefill token budget when ``chunked_prefill`` is 1; 0
    # derives 8 blocks' worth, i.e. ``8 * block_tokens``.
    prefill_token_budget: int = 0
    # Directory of the content-addressed codebook cache
    # (repro.core.codebook_cache): a start whose calibration inputs match an
    # earlier one loads its codebooks instead of retraining them.  ``None``
    # resolves to $REPRO_CACHE_DIR, else $XDG_CACHE_HOME/repro, else
    # ~/.cache/repro, when engines are built; ``''`` disables the cache.  A
    # deployment path, not a tuning knob: it never changes what is served.
    codebook_cache: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.pool_blocks < 1:
            raise ValueError("pool_blocks must be >= 1: every replica serves from a block pool")


def _tier_policies(model_config, sensitivity, bits: int) -> dict[str, QuantPolicy]:
    """Every named tier's policy (all-MILLION, poolable); ``"balanced"`` is
    the default tier's uniform ``bits`` policy."""
    b2 = QuantPolicy.uniform(model_config, "million", 2).bytes_per_token()
    b4 = QuantPolicy.uniform(model_config, "million", 4).bytes_per_token()
    return {
        "balanced": QuantPolicy.uniform(model_config, "million", bits),
        "quality": derive_policy(
            model_config, sensitivity, 1.5 * b4, schemes=("million",)
        ),
        "compact": derive_policy(
            model_config, sensitivity, (b2 + b4) / 2.0, schemes=("million",)
        ),
    }


def prefill_token_budget(config: GatewayConfig) -> Optional[int]:
    """The engine budget ``chunked_prefill``/``prefill_token_budget`` imply."""
    if not config.chunked_prefill:
        return None
    return config.prefill_token_budget or 8 * config.block_tokens


def build_engines(
    config: GatewayConfig, trace: Optional[TraceRecorder] = None
) -> list[BatchedMillionEngine]:
    """One engine per replica; weights and codebooks identical across calls.

    ``trace`` is the shared recorder every replica records into (each on its
    own ``replica-<i>`` track); ``None`` builds one from
    ``config.trace_capacity`` (0 = tracing disabled).
    """
    if trace is None and config.trace_capacity > 0:
        trace = TraceRecorder(capacity=config.trace_capacity)
    models = [
        load_model(config.model, seed=config.seed, max_seq_len=config.max_seq_len)
        for _ in range(config.replicas)
    ]
    vocab = models[0].config.vocab_size
    calibration = load_corpus(
        "wikitext2-syn", "train", config.calibration_tokens, seed=config.seed
    ) % vocab
    million = MillionConfig.for_equivalent_bits(
        models[0].config.head_dim,
        bits=config.bits,
        kmeans_iters=4,
        calibration_samples=1536,
    )
    cache_dir = (
        default_cache_dir() if config.codebook_cache is None else config.codebook_cache
    )
    base_factory = calibrate_million(models[0], calibration, million, cache_dir=cache_dir)
    tier_policies: dict[str, QuantPolicy] = {}
    factory_bank: dict[int, MillionCacheFactory] = {config.bits: base_factory}
    if config.tiers:
        collector = collect_kv_samples(
            models[0], calibration, max_samples_per_layer=1536, seed=config.seed
        )
        sensitivity = measure_sensitivity(collector, kmeans_iters=4)
        tier_policies = _tier_policies(models[0].config, sensitivity, config.bits)
        needed_bits = {
            assignment.bits
            for policy in tier_policies.values()
            for assignment in policy.distinct_assignments()
        }
        for bits in sorted(needed_bits - set(factory_bank)):
            variant = million_variant(
                models[0].config.head_dim,
                bits,
                kmeans_iters=4,
                calibration_samples=1536,
            )
            factory_bank[bits] = MillionCacheFactory(
                train_million_quantizers(collector, variant), variant
            )
    engines = []
    for replica_index, model in enumerate(models):
        # One pool per replica, whatever the tiers: "balanced" shares the
        # default policy's units and blocks, so balanced requests are token-
        # and accounting-identical to untiered ones.
        factory = PooledPolicyCacheFactory(
            model.config,
            factory_bank,
            num_blocks=config.pool_blocks,
            block_tokens=config.block_tokens,
            policy=QuantPolicy.uniform(model.config, "million", config.bits),
            tiers=tier_policies,
        )
        slo_policy = None
        if config.interactive_ttft_slo_ms > 0 or config.best_effort_ttft_slo_ms > 0:
            slo_policy = SloPolicy(
                interactive_slo_s=(
                    config.interactive_ttft_slo_ms / 1000.0
                    if config.interactive_ttft_slo_ms > 0
                    else None
                ),
                best_effort_slo_s=(
                    config.best_effort_ttft_slo_ms / 1000.0
                    if config.best_effort_ttft_slo_ms > 0
                    else None
                ),
            )
        engines.append(
            BatchedMillionEngine(
                model,
                factory,
                max_batch_size=config.max_batch_size,
                max_queue_size=config.max_queue_size,
                trace=trace,
                trace_track=f"replica-{replica_index}",
                priority_aware=bool(config.priority_aware),
                slo_policy=slo_policy,
                prof=PhaseProfiler() if config.profiler else None,
                prefill_token_budget=prefill_token_budget(config),
            )
        )
    return engines


def health_policy_from_config(config: GatewayConfig) -> HealthPolicy:
    """The health engine thresholds a :class:`GatewayConfig` implies."""
    ttft_slo_s: dict[str, float] = {}
    interactive_ms = (
        config.burn_interactive_slo_ms or config.interactive_ttft_slo_ms
    )
    best_effort_ms = (
        config.burn_best_effort_slo_ms or config.best_effort_ttft_slo_ms
    )
    if interactive_ms > 0:
        ttft_slo_s["interactive"] = interactive_ms / 1000.0
    if best_effort_ms > 0:
        ttft_slo_s["best_effort"] = best_effort_ms / 1000.0
    return HealthPolicy(
        window_s=float(config.health_window_s), ttft_slo_s=ttft_slo_s
    )


def build_gateway(config: GatewayConfig) -> GatewayServer:
    """Assemble runners, router, health engine and server (not yet started)."""
    trace = (
        TraceRecorder(capacity=config.trace_capacity)
        if config.trace_capacity > 0
        else None
    )
    engines = build_engines(config, trace=trace)
    runners = [
        AsyncEngineRunner(engine, name=f"replica-{i}")
        for i, engine in enumerate(engines)
    ]
    router = ReplicaRouter(runners)
    health = HealthEngine(
        health_policy_from_config(config),
        trace=trace if trace is not None else NULL_RECORDER,
    )
    return GatewayServer(
        router,
        tokenizer=ByteTokenizer(),
        model_name=config.model,
        health=health,
    )


__all__ = [
    "GatewayConfig",
    "build_engines",
    "build_gateway",
    "health_policy_from_config",
]
