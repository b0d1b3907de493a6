//! Static fleet analysis (`E110`–`E114`, `W110`–`W111`): proves — before
//! any instance spins up — that a [`FleetConfig`] (registry state, tenant
//! bindings, instance assignment) can actually be deployed.
//!
//! # What is proved
//!
//! * **Aggregate residency** (`E110`/`W110`): every instance's pinned
//!   live version, charged to cores through the real round-robin
//!   placement ([`enode_hw::mapping::per_core_weight_bytes`]), fits the
//!   per-core weight-SRAM envelope — with an advisory when less than 1/8
//!   headroom remains for rollback versions.
//! * **Rebalance feasibility** (`E111`): for the nominal fleet *and*
//!   every single-instance-loss scenario, each instance's load — its
//!   model's tenant rates split over the surviving replicas by the
//!   consistent hash — must stay within its policy's declared
//!   `design_rate_rps`, and every model with bound tenants must keep a
//!   surviving instance.
//! * **SLA coverage** (`E112`): every tenant's SLA deadline is reachable
//!   by at least one tier of its policy's degradation ladder, under the
//!   simulator-calibrated service times of `COST_TABLE.json` scaled to
//!   the tenant's tolerance class (the same tier points and step-count
//!   law [`crate::schedcheck`] uses).
//! * **Version provenance** (`E113`): every published [`ModelHandle`](enode_serve::registry::ModelHandle)'s
//!   recorded fingerprint matches the FNV-1a digest recomputed from its
//!   name, version, and ladder — a registry entry cannot silently drift
//!   from the policy it claims to serve.
//! * **Structure** (`E114`): the hardware configuration is valid, the
//!   fleet has instances and hash-ring vnodes, the assignment names a
//!   live model per instance and every tenant's model is served
//!   somewhere.
//!
//! Like `E093` in [`crate::schedcheck`], the structural and provenance
//! checks short-circuit: verdicts derived from a malformed fleet or a
//! stale registry would be unsound, so nothing else runs until they pass.

use crate::benchjson::ParsedCostTable;
use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::schedcheck::{class_service_us, resolve_points};
use enode_hw::mapping::per_core_weight_bytes;
use enode_serve::fingerprint as ladder_fingerprint;
use enode_serve::fleet::FleetConfig;
use enode_serve::registry::version_fingerprint;

/// A core must keep `1/HEADROOM_DENOM` of its weight buffer free after
/// the live set is pinned, or `W110` fires: a publish with less headroom
/// evicts rollback versions immediately.
pub const HEADROOM_DENOM: u64 = 8;

/// Instances still serving `model` with instance `lost` down (`None` =
/// nominal): the consistent-hash split denominator.
fn survivors(config: &FleetConfig, lost: Option<usize>, model: &str) -> u64 {
    config
        .assignment
        .iter()
        .enumerate()
        .filter(|&(j, m)| lost != Some(j) && m == model)
        .count() as u64
}

/// Per-instance offered load in milli-req/s with instance `lost` down
/// (`None` = nominal): the sum over its model's tenants of each tenant's
/// per-survivor share (ceiling division keeps the bound conservative).
/// `None` for the lost instance and for an instance no tenant feeds.
pub(crate) fn instance_loads(config: &FleetConfig, lost: Option<usize>) -> Vec<Option<u64>> {
    config
        .assignment
        .iter()
        .enumerate()
        .map(|(i, model)| {
            let rates: Vec<u64> = config
                .registry
                .tenants
                .iter()
                .filter(|b| b.model == *model)
                .map(|b| (b.rate_rps * 1_000.0).round() as u64)
                .collect();
            if lost == Some(i) || rates.is_empty() {
                return None;
            }
            let share = survivors(config, lost, model);
            Some(rates.iter().map(|r| r.div_ceil(share)).sum())
        })
        .collect()
}

/// Lints one fleet config against one parsed cost table. Split out from
/// [`lint_shipped_fleet`] so mutation and golden tests can inject
/// doctored registries, assignments, and envelopes.
pub fn lint_fleet(config: &FleetConfig, table: &ParsedCostTable) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = format!("fleet {}", config.name);
    let registry = &config.registry;

    // --- E114 first: structural soundness gates everything else. ---
    if let Err(why) = config.hw.validate() {
        ds.push(Diagnostic::new(
            Code::E114FleetConfigMalformed,
            &subject,
            format!("hardware configuration is invalid: {why}"),
        ));
    }
    if config.instances == 0 {
        ds.push(Diagnostic::new(
            Code::E114FleetConfigMalformed,
            &subject,
            "fleet declares zero instances: nothing can serve",
        ));
    }
    if config.vnodes == 0 {
        ds.push(Diagnostic::new(
            Code::E114FleetConfigMalformed,
            &subject,
            "fleet declares zero vnodes: the hash ring has no points to route to",
        ));
    }
    if config.assignment.len() != config.instances {
        ds.push(
            Diagnostic::new(
                Code::E114FleetConfigMalformed,
                &subject,
                format!(
                    "assignment names {} model(s) for {} instance(s): every instance \
                     needs exactly one served model",
                    config.assignment.len(),
                    config.instances
                ),
            )
            .with_note("assignment_len", config.assignment.len())
            .with_note("instances", config.instances),
        );
    }
    for (i, name) in config.assignment.iter().enumerate() {
        if registry.live(name).is_none() {
            ds.push(
                Diagnostic::new(
                    Code::E114FleetConfigMalformed,
                    &subject,
                    format!(
                        "instance {i} is assigned model {name}, which has no live \
                         published version in the registry"
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name),
            );
        }
    }
    for b in &registry.tenants {
        if !config.assignment.contains(&b.model) {
            ds.push(
                Diagnostic::new(
                    Code::E114FleetConfigMalformed,
                    &subject,
                    format!(
                        "tenant {} is bound to model {}, which no instance serves",
                        b.tenant, b.model
                    ),
                )
                .with_note("tenant", &b.tenant)
                .with_note("model", &b.model),
            );
        }
    }
    if !ds.is_empty() {
        return ds;
    }

    // --- E113 next: a stale registry entry poisons every other verdict
    // (the policy the checks would read is not the one that was
    // published), so provenance short-circuits too. ---
    for h in &registry.models {
        let want = version_fingerprint(&h.name, h.version, &h.policy);
        if h.fingerprint != want {
            ds.push(
                Diagnostic::new(
                    Code::E113FleetStaleFingerprint,
                    &subject,
                    format!(
                        "published {} v{} records fingerprint {} but its name, version, \
                         and ladder hash to {want}: the registry entry is stale or was \
                         edited outside publish",
                        h.name, h.version, h.fingerprint
                    ),
                )
                .with_note("model", &h.name)
                .with_note("version", h.version)
                .with_note("recorded_fingerprint", &h.fingerprint)
                .with_note("computed_fingerprint", want),
            );
        }
    }
    if !ds.is_empty() {
        return ds;
    }

    // --- E110/W110: per-instance aggregate residency. ---
    let capacity = config.hw.weight_buffer_bytes;
    for (i, name) in config.assignment.iter().enumerate() {
        let handle = registry.live(name).expect("E114 checked");
        let per_core = per_core_weight_bytes(&handle.layer_weight_bytes(), config.hw.cores);
        let (worst_core, &worst) = per_core
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .expect("cores > 0");
        if worst > capacity {
            ds.push(
                Diagnostic::new(
                    Code::E110FleetResidencyOverflow,
                    &subject,
                    format!(
                        "instance {i} must pin {name} v{} but core {worst_core}'s share \
                         {worst}B overflows the {capacity}B weight buffer: the fleet \
                         cannot warm up",
                        handle.version
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name)
                .with_note("core", worst_core)
                .with_note("need_bytes", worst)
                .with_note("capacity_bytes", capacity),
            );
        } else if worst > capacity - capacity / HEADROOM_DENOM {
            ds.push(
                Diagnostic::new(
                    Code::W110FleetResidencyHeadroom,
                    &subject,
                    format!(
                        "instance {i}'s live set uses {worst}B of core {worst_core}'s \
                         {capacity}B weight buffer, leaving under 1/{HEADROOM_DENOM} \
                         headroom: the next publish evicts rollback versions immediately",
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name)
                .with_note("core", worst_core)
                .with_note("used_bytes", worst)
                .with_note("capacity_bytes", capacity),
            );
        }
    }

    // --- E111: rebalance feasibility, for the nominal fleet and every
    // single-instance loss. ---
    let scenarios = std::iter::once(None).chain((0..config.instances).map(Some));
    for lost in scenarios {
        let label = match lost {
            None => "nominal".to_string(),
            Some(i) => format!("loss of instance {i}"),
        };
        // A model with bound tenants but no surviving instance is
        // unservable outright.
        for b in &registry.tenants {
            if survivors(config, lost, &b.model) == 0 {
                ds.push(
                    Diagnostic::new(
                        Code::E111FleetRebalanceInfeasible,
                        &subject,
                        format!(
                            "{label} leaves no instance serving {}: tenant {}'s load \
                             has nowhere to rebalance",
                            b.model, b.tenant
                        ),
                    )
                    .with_note("scenario", &label)
                    .with_note("model", &b.model)
                    .with_note("tenant", &b.tenant),
                );
            }
        }
        let loads = instance_loads(config, lost);
        for (i, (name, load)) in config.assignment.iter().zip(loads).enumerate() {
            let Some(load_milli) = load else {
                continue; // lost, or no tenant feeds this instance
            };
            let policy = &registry.live(name).expect("E114 checked").policy;
            let design_milli = (policy.design_rate_rps * 1_000.0).round() as u64;
            if load_milli > design_milli {
                ds.push(
                    Diagnostic::new(
                        Code::E111FleetRebalanceInfeasible,
                        &subject,
                        format!(
                            "{label}: instance {i} ({name}) absorbs {}.{:03} req/s of \
                             rebalanced tenant load, above the policy's design rate \
                             {} req/s — shedding becomes the steady state",
                            load_milli / 1_000,
                            load_milli % 1_000,
                            policy.design_rate_rps
                        ),
                    )
                    .with_note("scenario", &label)
                    .with_note("instance", i)
                    .with_note("load_milli_rps", load_milli)
                    .with_note("design_milli_rps", design_milli),
                );
            }
        }
    }

    // --- E112: every tenant's SLA must be coverable by some tier. A
    // tier covers the SLA when its admission threshold admits it and the
    // window plus one in-flight batch plus its own dispatch fit. Table
    // provenance is schedcheck's job (E093): a policy whose ladder
    // drifted from the table, or whose rows are missing or corrupt
    // (E094/E095), is skipped here, not double-reported. ---
    for b in &registry.tenants {
        let policy = &registry.live(&b.model).expect("E114 checked").policy;
        if table.fingerprint(policy.name) != Some(ladder_fingerprint(policy).as_str()) {
            continue;
        }
        let Some(points) = resolve_points(policy, table, &mut Diagnostics::new(), &subject) else {
            continue;
        };
        let covered = policy
            .tiers
            .iter()
            .zip(&points)
            .enumerate()
            .any(|(t_ix, (t, point))| {
                let service = class_service_us(policy, t_ix, point, b.class);
                t.min_slack_us <= b.sla_deadline_us
                    && policy.batch_window_us + 2 * service <= b.sla_deadline_us
            });
        if !covered {
            ds.push(
                Diagnostic::new(
                    Code::E112FleetSlaUncovered,
                    &subject,
                    format!(
                        "tenant {}'s {}µs SLA on {} is covered by no tier of the \
                         ladder at the {} class: every admitted request is shed or \
                         served past its deadline",
                        b.tenant,
                        b.sla_deadline_us,
                        b.model,
                        b.class.as_str()
                    ),
                )
                .with_note("tenant", &b.tenant)
                .with_note("model", &b.model)
                .with_note("sla_deadline_us", b.sla_deadline_us)
                .with_note("class", b.class.as_str()),
            );
        }
    }

    // --- W111: quota oversubscription per model. ---
    let mut seen: Vec<&str> = Vec::new();
    for name in &config.assignment {
        if seen.contains(&name.as_str()) {
            continue;
        }
        seen.push(name);
        let quota_sum: usize = registry
            .tenants
            .iter()
            .filter(|b| b.model == *name)
            .map(|b| b.quota)
            .sum();
        let queue_sum = survivors(config, None, name) as usize
            * registry
                .live(name)
                .expect("E114 checked")
                .policy
                .queue_capacity;
        if quota_sum > queue_sum {
            ds.push(
                Diagnostic::new(
                    Code::W111FleetQuotaOversubscribed,
                    &subject,
                    format!(
                        "tenant quotas against {name} total {quota_sum} outstanding \
                         requests but its instances buffer only {queue_sum}: admission \
                         can overcommit the fleet's queues"
                    ),
                )
                .with_note("model", name)
                .with_note("quota_sum", quota_sum)
                .with_note("queue_sum", queue_sum),
            );
        }
    }

    ds
}

/// Lints the shipped fleet against the committed cost table — the entry
/// point `lint_everything` and `enode-lint` use. The shipped fleet must
/// be clean.
pub fn lint_shipped_fleet() -> Diagnostics {
    let table = match crate::schedcheck::shipped_table() {
        Ok(t) => t,
        Err(ds) => return ds,
    };
    lint_fleet(&FleetConfig::shipped(), &table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::config::LayerDims;
    use enode_serve::registry::Registry;
    use enode_serve::ServeConfig;

    fn table() -> ParsedCostTable {
        crate::schedcheck::shipped_table().expect("committed table parses")
    }

    fn shipped() -> FleetConfig {
        FleetConfig::shipped()
    }

    #[test]
    fn shipped_fleet_is_clean() {
        let ds = lint_shipped_fleet();
        assert!(ds.is_empty(), "shipped fleet must be deployable:\n{ds}");
    }

    #[test]
    fn oversized_live_version_fires_e110() {
        let mut cfg = shipped();
        // Republish the edge model with a profile whose per-core share
        // dwarfs the 2.25MB envelope: 8 convs of 512ch are 8·512·512·9·2
        // ≈ 37.7MB, so each of config_a's 4 cores gets ~9.4MB.
        let reg = Registry::from_snapshot(cfg.registry.clone());
        reg.publish_with_profile(
            "edge_default",
            ServeConfig::edge_default(),
            LayerDims::new(64, 64, 512),
            8,
        );
        cfg.registry = (*reg.snapshot()).clone();
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E110FleetResidencyOverflow), "{ds}");
        assert!(!ds.has_code(Code::W110FleetResidencyHeadroom), "{ds}");
    }

    #[test]
    fn thin_residency_headroom_fires_w110() {
        let mut cfg = shipped();
        // The edge live set puts 1152B on a core; an envelope of 1200B
        // fits it but leaves under 1/8 headroom.
        cfg.hw.weight_buffer_bytes = 1_200;
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::W110FleetResidencyHeadroom), "{ds}");
        assert!(!ds.has_code(Code::E110FleetResidencyOverflow), "{ds}");
    }

    #[test]
    fn single_instance_per_model_fires_e111_on_loss() {
        let mut cfg = shipped();
        cfg.instances = 2;
        cfg.assignment = vec!["edge_default".into(), "streaming_keyword".into()];
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E111FleetRebalanceInfeasible), "{ds}");
        // The verdict names the unservable model, not a rate overload.
        assert!(
            ds.items()
                .iter()
                .any(|d| d.message.contains("nowhere to rebalance")),
            "{ds}"
        );
    }

    #[test]
    fn post_loss_overload_fires_e111_with_the_split_load() {
        let mut cfg = shipped();
        // 150 req/s per edge tenant: fine across two instances (150 each,
        // design 200), infeasible on the single survivor (300).
        for b in &mut cfg.registry.tenants {
            if b.model == "edge_default" {
                b.rate_rps = 150.0;
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E111FleetRebalanceInfeasible), "{ds}");
        let overloads: Vec<_> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::E111FleetRebalanceInfeasible)
            .collect();
        // Only the two loss-of-an-edge-instance scenarios fire.
        assert_eq!(overloads.len(), 2, "{ds}");
        assert!(overloads
            .iter()
            .all(|d| d.message.contains("loss of instance")));
    }

    #[test]
    fn skewed_sla_fires_e112() {
        let mut cfg = shipped();
        // 100µs cannot even absorb the edge policy's 2000µs batch window,
        // let alone a dispatch: no tier can cover it.
        for b in &mut cfg.registry.tenants {
            if b.tenant == "vision_a" {
                b.sla_deadline_us = 100;
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E112FleetSlaUncovered), "{ds}");
        let hits: Vec<_> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::E112FleetSlaUncovered)
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("vision_a"));
    }

    #[test]
    fn unsound_table_rows_leave_e112_to_schedcheck() {
        // Drop edge_default's tier-2 rows: schedcheck reports E094 for the
        // table, so E112 derives no coverage verdict from it either, even
        // for an SLA no tier could cover.
        let mut cfg = shipped();
        for b in &mut cfg.registry.tenants {
            if b.tenant == "vision_a" {
                b.sla_deadline_us = 100;
            }
        }
        let mut t = table();
        t.rows
            .retain(|r| !(r.policy == "edge_default" && r.tier == 2));
        let ds = lint_fleet(&cfg, &t);
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn tampered_fingerprint_fires_e113_and_short_circuits() {
        let mut cfg = shipped();
        cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
        // Also skew an SLA: the stale registry must suppress E112.
        cfg.registry.tenants[0].sla_deadline_us = 100;
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E113FleetStaleFingerprint), "{ds}");
        assert!(!ds.has_code(Code::E112FleetSlaUncovered), "{ds}");
    }

    #[test]
    fn malformed_config_fires_e114_and_short_circuits() {
        let mut cfg = shipped();
        cfg.assignment = vec!["edge_default".into(); 4];
        // keyword tenants now have no serving instance; and a tampered
        // fingerprint must stay unreported until the structure is fixed.
        cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E114FleetConfigMalformed), "{ds}");
        assert!(!ds.has_code(Code::E113FleetStaleFingerprint), "{ds}");
        assert_eq!(ds.error_count(), 2, "one per orphaned tenant:\n{ds}");
    }

    #[test]
    fn quota_oversubscription_fires_w111() {
        let mut cfg = shipped();
        for b in &mut cfg.registry.tenants {
            if b.model == "streaming_keyword" {
                b.quota = 32; // 64 total vs 2×8 buffered
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::W111FleetQuotaOversubscribed), "{ds}");
        assert_eq!(ds.error_count(), 0, "{ds}");
    }

    #[test]
    fn wcrt_table_and_fleet_loads_are_pinned() {
        // The per-policy serving facts both families derive from, pinned
        // as literals so any change to how they are computed must
        // reproduce them exactly. `wcrt[class][tier]`, classes strict /
        // standard / relaxed: standard tier 0 of edge_default is
        // 2 backlog batches × 6481 (strict drain) + 2000 window + 1397
        // service.
        let t = table();
        let wcrt = |p: &ServeConfig| {
            let mut ds = Diagnostics::new();
            let points = crate::schedcheck::resolve_points(p, &t, &mut ds, "test")
                .expect("shipped policies resolve");
            crate::schedcheck::response_times(p, &points)
        };
        assert_eq!(
            wcrt(&ServeConfig::edge_default()),
            [
                [21_443, 17_527, 15_411],
                [16_359, 15_506, 15_079],
                [15_273, 15_196, 15_079]
            ]
        );
        assert_eq!(
            wcrt(&ServeConfig::streaming_keyword()),
            [[2_436, 1_737], [1_799, 1_639], [1_663, 1_639]]
        );

        // Per-instance load in milli-req/s of the shipped fleet (two edge
        // instances at 2 × 60 req/s, two streaming instances at
        // 2 × 30 req/s): the hash split shares each model's tenants over
        // its surviving replicas, and a lost instance carries nothing.
        let cfg = shipped();
        let loads = |lost| instance_loads(&cfg, lost);
        assert_eq!(
            loads(None),
            [Some(60_000), Some(60_000), Some(30_000), Some(30_000)]
        );
        assert_eq!(
            loads(Some(0)),
            [None, Some(120_000), Some(30_000), Some(30_000)]
        );
        assert_eq!(
            loads(Some(1)),
            [Some(120_000), None, Some(30_000), Some(30_000)]
        );
        assert_eq!(
            loads(Some(2)),
            [Some(60_000), Some(60_000), None, Some(60_000)]
        );
        assert_eq!(
            loads(Some(3)),
            [Some(60_000), Some(60_000), Some(60_000), None]
        );
    }
}
