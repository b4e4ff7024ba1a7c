//! Virtual usage and freeness — the paper's Algorithm 1.
//!
//! Virtual usage unifies Llumnix's scheduling goals into one load metric:
//!
//! * normal case — a request's virtual usage is its physical KV usage
//!   (routine load balancing);
//! * head-of-line queuing request — its *demand*, so queue pressure makes
//!   the instance look overloaded and load balancing de-fragments it;
//! * terminating instance — a fake request of infinite usage, so load
//!   balancing drains the instance;
//! * high execution priority — physical usage plus a headroom that keeps the
//!   instance's real load below the interference-free target, shared among
//!   co-located high-priority requests.
//!
//! Freeness is `F = (M − ΣV)/B` with usage measured in tokens and `B` the
//! batch size, i.e. *the number of decode steps the batch can still run for*
//! (§4.4.3) — each step consumes one token per running request.

use llumnix_engine::{InstanceEngine, Priority};
use llumnix_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::serving::ConfigError;

/// How a head-of-line queuing request's demand enters the virtual usage.
///
/// §4.4.2 names the trade-off explicitly: counting the full demand favours
/// reducing queuing delays (the rule Llumnix ships with), while "gradually
/// increasing the virtual usage of a queuing request until it reaches the
/// real memory demand" favours load balancing. Both are implemented so the
/// ablation benches can quantify the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum QueuingRule {
    /// Count the head-of-line request's full demand immediately (paper
    /// default, Algorithm 1 line 4).
    #[default]
    FullDemand,
    /// Ramp the counted demand linearly from 0 to the full demand over
    /// `ramp_secs` of queuing time.
    Gradual {
        /// Seconds of queuing after which the full demand is counted.
        ramp_secs: f64,
    },
}

impl QueuingRule {
    /// The fraction of the demand counted after `queued_secs` of waiting.
    pub fn fraction(&self, queued_secs: f64) -> f64 {
        match self {
            QueuingRule::FullDemand => 1.0,
            QueuingRule::Gradual { ramp_secs } => {
                if *ramp_secs <= 0.0 {
                    1.0
                } else {
                    (queued_secs / ramp_secs).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// Virtual-usage policy configuration: execution-priority headroom and the
/// queuing-demand rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadroomConfig {
    /// Target physical load (tokens) that preserves the ideal decode speed
    /// for high-priority requests. The paper measures 1,600 tokens on an A10
    /// (§6.4, from Figure 4 profiling). `None` disables priority headroom
    /// (Llumnix-base).
    pub high_priority_target_tokens: Option<u32>,
    /// Queuing-demand accounting rule.
    pub queuing_rule: QueuingRule,
}

impl HeadroomConfig {
    /// Priority-agnostic configuration (Llumnix-base).
    pub const DISABLED: HeadroomConfig = HeadroomConfig {
        high_priority_target_tokens: None,
        queuing_rule: QueuingRule::FullDemand,
    };

    /// The paper's §6.4 setting.
    pub fn paper_default() -> Self {
        HeadroomConfig {
            high_priority_target_tokens: Some(1_600),
            queuing_rule: QueuingRule::FullDemand,
        }
    }

    /// Replaces the queuing-demand rule.
    pub fn with_queuing_rule(mut self, rule: QueuingRule) -> Self {
        self.queuing_rule = rule;
        self
    }

    /// Checks that the headroom target fits the instance geometry.
    ///
    /// A target above the KV capacity is a misconfiguration — [`Self::headroom_for`]
    /// would silently clamp it to zero headroom, which *looks* like "no free
    /// space for high priority" instead of failing loudly. The config alone
    /// does not know the capacity, so [`crate::ServingConfig::validate`]
    /// calls this where it pairs the config with an instance spec.
    pub fn validate_for_capacity(&self, capacity_tokens: u32) -> Result<(), ConfigError> {
        match self.high_priority_target_tokens {
            Some(target_tokens) if target_tokens > capacity_tokens => {
                Err(ConfigError::HeadroomAboveCapacity {
                    target_tokens,
                    capacity_tokens,
                })
            }
            _ => Ok(()),
        }
    }

    /// Total headroom (tokens) granted to priority `p` on an instance with
    /// `capacity_tokens` of KV space.
    ///
    /// The subtraction saturates: if `target > capacity_tokens` the headroom
    /// clamps to 0 (no free space ever reported to high priority) rather than
    /// wrapping. That configuration is invalid: [`Self::validate_for_capacity`]
    /// rejects it, and [`crate::ServingSim::new`] refuses to run it.
    pub fn headroom_for(&self, p: Priority, capacity_tokens: u32) -> f64 {
        match (p, self.high_priority_target_tokens) {
            (Priority::High, Some(target)) => capacity_tokens.saturating_sub(target) as f64,
            _ => 0.0,
        }
    }
}

/// A request as the virtual-usage calculation sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestView {
    /// Physical KV usage in tokens (block-rounded).
    pub physical_tokens: u32,
    /// Memory demand in tokens (for queuing requests).
    pub demand_tokens: u32,
    /// Whether the request is waiting in the queue.
    pub is_queuing: bool,
    /// Whether it is the head-of-line queuing request.
    pub is_head_of_line: bool,
    /// How long the request has been queuing, in seconds (0 if resident).
    pub queued_secs: f64,
    /// Execution priority.
    pub execution_priority: Priority,
}

/// An instance as the freeness calculation sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceView {
    /// Total KV capacity in tokens (`M`).
    pub capacity_tokens: u32,
    /// Running batch size (`B`).
    pub batch_size: usize,
    /// Whether the instance is draining for termination (fake ∞ request).
    pub terminating: bool,
    /// Per-request views (queued and resident).
    pub requests: Vec<RequestView>,
}

impl InstanceView {
    /// Builds the view from a live engine. This is Algorithm 1's reference
    /// input: load reports use the one-pass [`engine_freeness`], which
    /// tests compare against [`freeness`] over this view.
    pub fn from_engine(engine: &InstanceEngine, terminating: bool, now: SimTime) -> Self {
        let geometry = engine.spec().geometry;
        let mut requests = Vec::new();
        for s in engine.residents() {
            requests.push(RequestView {
                physical_tokens: s.blocks_held * geometry.block_tokens,
                demand_tokens: s.required_tokens(),
                is_queuing: false,
                is_head_of_line: false,
                queued_secs: 0.0,
                execution_priority: s.meta.priority.execution,
            });
        }
        for (i, id) in engine.waiting_ids().into_iter().enumerate() {
            let s = engine.state(id).expect("queued request has state");
            let demand_blocks = geometry.blocks_for_tokens(s.required_tokens());
            requests.push(RequestView {
                physical_tokens: 0,
                demand_tokens: demand_blocks * geometry.block_tokens,
                is_queuing: true,
                is_head_of_line: i == 0,
                queued_secs: now.since(s.enqueued_at).as_secs_f64(),
                execution_priority: s.meta.priority.execution,
            });
        }
        // Blocks held by draining (mid-migration) requests and by incoming
        // migration reservations are real memory pressure too; account for
        // them as one anonymous normal-priority resident usage.
        let accounted: u32 = engine.residents().map(|s| s.blocks_held).sum();
        let used = engine.total_blocks() - engine.free_blocks();
        let other = used.saturating_sub(accounted);
        if other > 0 {
            requests.push(RequestView {
                physical_tokens: other * geometry.block_tokens,
                demand_tokens: 0,
                is_queuing: false,
                is_head_of_line: false,
                queued_secs: 0.0,
                execution_priority: Priority::Normal,
            });
        }
        InstanceView {
            capacity_tokens: geometry.capacity_tokens(),
            batch_size: engine.batch_size(),
            terminating,
            requests,
        }
    }

    /// The number of resident requests per execution priority (the headroom
    /// divisor in Algorithm 1's `GetHeadroom`).
    fn resident_count(&self, p: Priority) -> usize {
        self.requests
            .iter()
            .filter(|r| !r.is_queuing && r.execution_priority == p)
            .count()
    }
}

/// Algorithm 1, `CalcVirtualUsage`: the virtual usage (tokens) of one request.
pub fn virtual_usage(req: &RequestView, instance: &InstanceView, cfg: &HeadroomConfig) -> f64 {
    if req.is_queuing {
        if req.is_head_of_line {
            return req.demand_tokens as f64 * cfg.queuing_rule.fraction(req.queued_secs);
        }
        return 0.0;
    }
    let count = instance.resident_count(req.execution_priority).max(1);
    req.physical_tokens as f64
        + cfg.headroom_for(req.execution_priority, instance.capacity_tokens) / count as f64
}

/// Algorithm 1, `CalcFreeness`: `(M − ΣV)/B`, in decode steps.
///
/// A terminating instance carries a fake request of infinite virtual usage
/// and reports `-∞`. An empty batch divides by 1.
///
/// # Examples
///
/// ```
/// use llumnix_core::{freeness, HeadroomConfig, InstanceView, RequestView};
/// use llumnix_engine::Priority;
///
/// let view = InstanceView {
///     capacity_tokens: 13_616,
///     batch_size: 4,
///     terminating: false,
///     requests: vec![RequestView {
///         physical_tokens: 1_616,
///         demand_tokens: 1_616,
///         is_queuing: false,
///         is_head_of_line: false,
///         queued_secs: 0.0,
///         execution_priority: Priority::Normal,
///     }],
/// };
/// // 12,000 free tokens across a batch of 4: 3,000 decode steps of slack.
/// assert_eq!(freeness(&view, &HeadroomConfig::DISABLED), 3_000.0);
/// ```
pub fn freeness(instance: &InstanceView, cfg: &HeadroomConfig) -> f64 {
    if instance.terminating {
        return f64::NEG_INFINITY;
    }
    let total_virtual: f64 = instance
        .requests
        .iter()
        .map(|r| virtual_usage(r, instance, cfg))
        .sum();
    let b = instance.batch_size.max(1) as f64;
    (instance.capacity_tokens as f64 - total_virtual) / b
}

/// Freeness straight from an engine, with and without execution-priority
/// headroom: `(freeness, freeness_physical)`, the pair a load report carries.
///
/// This is the production path. It makes no allocation and reads the
/// engine's resident ledgers, the head of the queue and the block ledger; it
/// walks the residents only when high-priority residents share a headroom.
/// [`freeness`] over [`InstanceView::from_engine`] walks the whole queue and
/// recounts residents for every request. The two are bit-identical, under
/// `cfg` and under `cfg` with the headroom target removed, because this
/// pass adds the same terms in the same order: the residents in batch
/// order, then the head-of-line demand, then the blocks no resident
/// accounts for. Without a headroom share the residents' terms are whole
/// token counts, which a float sums exactly in any order, so the ledger's
/// total stands in for them. The pass skips only terms that are exactly
/// `+0.0`: the queued requests behind the head, and an absent untracked
/// term. Adding `+0.0` to a non-negative sum leaves it unchanged.
pub fn engine_freeness(
    engine: &InstanceEngine,
    terminating: bool,
    now: SimTime,
    cfg: &HeadroomConfig,
) -> (f64, f64) {
    if terminating {
        return (f64::NEG_INFINITY, f64::NEG_INFINITY);
    }
    let geometry = engine.spec().geometry;
    let capacity = geometry.capacity_tokens();
    // Without headroom a resident's virtual usage is `physical + 0.0 / n`,
    // which is exactly its physical usage.
    let accounted = engine.resident_blocks();
    let mut used_physical = (accounted * geometry.block_tokens) as f64;
    // Algorithm 1's `GetHeadroom`: the high-priority residents share the
    // headroom. The untracked term below counts as a normal resident, so
    // `high` is the reference's divisor too.
    let high = engine.resident_high();
    let headroom = cfg.headroom_for(Priority::High, capacity);
    let mut used_virtual = used_physical;
    if headroom != 0.0 && high > 0 {
        // The shares are not whole numbers, so the sum keeps batch order.
        let share = headroom / high as f64;
        used_virtual = 0.0;
        for s in engine.residents() {
            let tokens = (s.blocks_held * geometry.block_tokens) as f64;
            used_virtual += if s.meta.priority.execution == Priority::High {
                tokens + share
            } else {
                tokens
            };
        }
    }
    if let Some((head, blocks)) = engine.head_of_line_demand() {
        let s = engine.state(head).expect("queued request has state");
        let queued_secs = now.since(s.enqueued_at).as_secs_f64();
        let demand =
            (blocks * geometry.block_tokens) as f64 * cfg.queuing_rule.fraction(queued_secs);
        used_physical += demand;
        used_virtual += demand;
    }
    // Blocks held by draining requests and incoming migration reservations.
    let used = engine.total_blocks() - engine.free_blocks();
    let untracked = used.saturating_sub(accounted);
    if untracked > 0 {
        let tokens = (untracked * geometry.block_tokens) as f64;
        used_physical += tokens;
        used_virtual += tokens;
    }
    let b = engine.batch_size().max(1) as f64;
    (
        (capacity as f64 - used_virtual) / b,
        (capacity as f64 - used_physical) / b,
    )
}

/// The INFaaS++ baseline's load signal: used blocks plus queued demand, as a
/// fraction of capacity (§6.1: "focus on the GPU memory load … also counts
/// in the memory required by queuing requests").
pub fn infaas_memory_load(engine: &InstanceEngine) -> f64 {
    let total = engine.total_blocks() as f64;
    if total == 0.0 {
        return 1.0;
    }
    let used = (engine.total_blocks() - engine.free_blocks()) as f64;
    let queued = engine.queued_demand_blocks() as f64;
    (used + queued) / total
}

/// An INFaaS-style freeness equivalent used so the baseline can share the
/// auto-scaler's thresholds (§6.5 gives both systems the same scaling
/// strategy): free tokens after queued demand, per batch member.
pub fn infaas_equivalent_freeness(engine: &InstanceEngine) -> f64 {
    let geometry = engine.spec().geometry;
    let capacity = geometry.capacity_tokens() as f64;
    let used = ((engine.total_blocks() - engine.free_blocks()) * geometry.block_tokens) as f64;
    let queued = (engine.queued_demand_blocks() * geometry.block_tokens) as f64;
    let b = engine.batch_size().max(1) as f64;
    (capacity - used - queued) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(tokens: u32, p: Priority) -> RequestView {
        RequestView {
            physical_tokens: tokens,
            demand_tokens: tokens,
            is_queuing: false,
            is_head_of_line: false,
            queued_secs: 0.0,
            execution_priority: p,
        }
    }

    fn queued(demand: u32, head: bool) -> RequestView {
        RequestView {
            physical_tokens: 0,
            demand_tokens: demand,
            is_queuing: true,
            is_head_of_line: head,
            queued_secs: 10.0,
            execution_priority: Priority::Normal,
        }
    }

    fn view(requests: Vec<RequestView>) -> InstanceView {
        let batch = requests.iter().filter(|r| !r.is_queuing).count();
        InstanceView {
            capacity_tokens: 13_616,
            batch_size: batch,
            terminating: false,
            requests,
        }
    }

    #[test]
    fn normal_case_virtual_equals_physical() {
        let v = view(vec![resident(1000, Priority::Normal)]);
        let cfg = HeadroomConfig::paper_default();
        assert_eq!(virtual_usage(&v.requests[0], &v, &cfg), 1000.0);
        let f = freeness(&v, &cfg);
        assert!((f - 12_616.0).abs() < 1e-9);
    }

    #[test]
    fn head_of_line_demand_counts() {
        let v = view(vec![
            resident(12_000, Priority::Normal),
            queued(3_000, true),
            queued(2_000, false),
        ]);
        let cfg = HeadroomConfig::paper_default();
        // HOL contributes its demand; the second queued request contributes 0.
        assert_eq!(virtual_usage(&v.requests[1], &v, &cfg), 3_000.0);
        assert_eq!(virtual_usage(&v.requests[2], &v, &cfg), 0.0);
        // 13,616 − 12,000 − 3,000 < 0 → negative freeness flags overload.
        assert!(freeness(&v, &cfg) < 0.0);
    }

    #[test]
    fn high_priority_headroom_shared() {
        let cfg = HeadroomConfig::paper_default();
        // One high-priority request: full headroom (capacity − 1600).
        let v1 = view(vec![resident(500, Priority::High)]);
        let u1 = virtual_usage(&v1.requests[0], &v1, &cfg);
        assert!((u1 - (500.0 + (13_616.0 - 1_600.0))).abs() < 1e-9);
        // Two high-priority requests split the headroom.
        let v2 = view(vec![
            resident(500, Priority::High),
            resident(300, Priority::High),
        ]);
        let u2 = virtual_usage(&v2.requests[0], &v2, &cfg);
        assert!((u2 - (500.0 + (13_616.0 - 1_600.0) / 2.0)).abs() < 1e-9);
        // Normal requests on the same instance get no headroom.
        let v3 = view(vec![
            resident(500, Priority::High),
            resident(300, Priority::Normal),
        ]);
        let u3 = virtual_usage(&v3.requests[1], &v3, &cfg);
        assert_eq!(u3, 300.0);
    }

    #[test]
    fn headroom_caps_real_load_at_target() {
        // With one high-priority request, total virtual usage reaches
        // capacity exactly when physical load reaches the target.
        let cfg = HeadroomConfig::paper_default();
        let v = view(vec![
            resident(400, Priority::High),
            resident(1_300, Priority::Normal),
        ]);
        // Physical = 1,700 > 1,600 target ⇒ ΣV > capacity ⇒ negative freeness.
        assert!(freeness(&v, &cfg) < 0.0);
        let v_ok = view(vec![
            resident(400, Priority::High),
            resident(1_100, Priority::Normal),
        ]);
        // Physical = 1,500 < target ⇒ freeness still positive.
        assert!(freeness(&v_ok, &cfg) > 0.0);
    }

    #[test]
    fn disabled_headroom_ignores_priority() {
        let cfg = HeadroomConfig::DISABLED;
        let v = view(vec![resident(500, Priority::High)]);
        assert_eq!(virtual_usage(&v.requests[0], &v, &cfg), 500.0);
    }

    #[test]
    fn validate_accepts_target_within_capacity() {
        assert_eq!(
            HeadroomConfig::paper_default().validate_for_capacity(13_616),
            Ok(())
        );
        assert_eq!(HeadroomConfig::DISABLED.validate_for_capacity(0), Ok(()));
        // Boundary: target == capacity is legal (zero headroom by intent).
        let cfg = HeadroomConfig {
            high_priority_target_tokens: Some(2_048),
            queuing_rule: QueuingRule::FullDemand,
        };
        assert_eq!(cfg.validate_for_capacity(2_048), Ok(()));
    }

    #[test]
    fn validate_rejects_oversized_target() {
        let cfg = HeadroomConfig {
            high_priority_target_tokens: Some(20_000),
            queuing_rule: QueuingRule::FullDemand,
        };
        let err = cfg.validate_for_capacity(13_616).unwrap_err();
        assert_eq!(
            err,
            ConfigError::HeadroomAboveCapacity {
                target_tokens: 20_000,
                capacity_tokens: 13_616
            }
        );
        assert!(err.to_string().contains("exceeds instance KV capacity"));
    }

    #[test]
    fn oversized_target_clamps_headroom_to_zero() {
        // Release-mode behaviour of the documented clamp.
        let cfg = HeadroomConfig {
            high_priority_target_tokens: Some(20_000),
            queuing_rule: QueuingRule::FullDemand,
        };
        assert_eq!(cfg.headroom_for(Priority::High, 13_616), 0.0);
    }

    #[test]
    fn terminating_instance_is_infinitely_loaded() {
        let mut v = view(vec![resident(100, Priority::Normal)]);
        v.terminating = true;
        assert_eq!(freeness(&v, &HeadroomConfig::DISABLED), f64::NEG_INFINITY);
    }

    #[test]
    fn freeness_counts_steps_remaining() {
        // 4 running requests, 13,616 − 1,616 = 12,000 free tokens
        // ⇒ 3,000 steps per request.
        let v = view(vec![
            resident(404, Priority::Normal),
            resident(404, Priority::Normal),
            resident(404, Priority::Normal),
            resident(404, Priority::Normal),
        ]);
        let f = freeness(&v, &HeadroomConfig::DISABLED);
        assert!((f - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_instance_freeness_is_capacity() {
        let v = view(vec![]);
        assert_eq!(freeness(&v, &HeadroomConfig::DISABLED), 13_616.0);
    }

    #[test]
    fn gradual_queuing_rule_ramps_demand() {
        let rule = QueuingRule::Gradual { ramp_secs: 10.0 };
        assert_eq!(rule.fraction(0.0), 0.0);
        assert!((rule.fraction(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(rule.fraction(10.0), 1.0);
        assert_eq!(rule.fraction(100.0), 1.0);
        assert_eq!(QueuingRule::Gradual { ramp_secs: 0.0 }.fraction(0.0), 1.0);
        assert_eq!(QueuingRule::FullDemand.fraction(0.0), 1.0);

        // A freshly queued HOL request counts nothing under the gradual
        // rule, its full demand under the default rule.
        let mut v = view(vec![resident(12_000, Priority::Normal)]);
        v.requests.push(RequestView {
            physical_tokens: 0,
            demand_tokens: 3_000,
            is_queuing: true,
            is_head_of_line: true,
            queued_secs: 0.0,
            execution_priority: Priority::Normal,
        });
        let full = HeadroomConfig::DISABLED;
        let gradual =
            HeadroomConfig::DISABLED.with_queuing_rule(QueuingRule::Gradual { ramp_secs: 10.0 });
        assert!(freeness(&v, &full) < 0.0, "full demand overloads");
        assert!(freeness(&v, &gradual) > 0.0, "gradual rule does not, yet");
        // After 10 s of queuing both rules agree.
        v.requests.last_mut().expect("hol").queued_secs = 10.0;
        assert!((freeness(&v, &gradual) - freeness(&v, &full)).abs() < 1e-9);
    }

    #[test]
    fn engine_view_and_loads() {
        use llumnix_engine::{
            EngineConfig, InstanceEngine, InstanceId, PriorityPair, RequestId, RequestMeta,
        };
        use llumnix_model::InstanceSpec;
        use llumnix_sim::SimTime;

        let mut e = InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::tiny_for_tests(160),
            EngineConfig::default(),
        );
        let free = |e: &InstanceEngine, terminating: bool| {
            let now = SimTime::from_secs(2);
            let (f, f_physical) = engine_freeness(e, terminating, now, &HeadroomConfig::DISABLED);
            let view = InstanceView::from_engine(e, terminating, now);
            assert_eq!(
                f.to_bits(),
                freeness(&view, &HeadroomConfig::DISABLED).to_bits()
            );
            assert_eq!(f.to_bits(), f_physical.to_bits(), "no headroom configured");
            f
        };
        // Empty engine: freeness = capacity, infaas load = 0.
        assert_eq!(free(&e, false), 160.0);
        assert_eq!(infaas_memory_load(&e), 0.0);
        e.add_request(
            RequestMeta {
                id: RequestId(1),
                input_len: 100,
                output_len: 10,
                priority: PriorityPair::NORMAL,
                arrival: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        e.complete_step(p.finish_at());
        // 100 tokens → 7 blocks → 112 tokens physical.
        let f = free(&e, false);
        assert!((f - 48.0).abs() < 1e-9, "freeness {f}");
        assert!((infaas_memory_load(&e) - 0.7).abs() < 1e-9);
        // A queued second request shows up in demand-aware loads.
        e.add_request(
            RequestMeta {
                id: RequestId(2),
                input_len: 64,
                output_len: 4,
                priority: PriorityPair::NORMAL,
                arrival: SimTime::from_secs(1),
            },
            SimTime::from_secs(1),
        );
        let f2 = free(&e, false);
        assert!(f2 < 0.0, "queued HOL demand should overload: {f2}");
        assert!(infaas_memory_load(&e) > 1.0);
        assert!(infaas_equivalent_freeness(&e) < 0.0);
        // Terminating flag dominates.
        assert_eq!(free(&e, true), f64::NEG_INFINITY);
    }
}
