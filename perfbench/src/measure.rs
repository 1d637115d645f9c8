//! The untraced run: end-to-end metrics, tracing off.
//!
//! A run repeats its workload — one pass over the roster, or one
//! evacuation — while the next pass still fits in `--seconds`, at least
//! once. Every pass replays the same seeded inputs, so the simulated
//! results must repeat exactly; a pass that differs from the first fails
//! the VM. Host-time metrics are medians over passes (or over VMs).

use std::time::{Duration, Instant};

use cluster::{evacuate, EvacOutcome, EvacuationPlan, FleetPolicy, PlacementPolicy};
use javmm_bench::evacuate::evacuate48_plan;
use migrate::report::MigrationReport;
use migrate::sla::SlaModel;
use simkit::Recorder;

use crate::report::{median, ratio, Outcome};
use crate::roster::{cycle, first_mismatch, launch_java, output_failure, Cycle, VmSpec};

/// Keeps a run going while one more pass of the mean length so far still
/// ends within the budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
    passes: u32,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            passes: 0,
        }
    }

    /// Whether to start another pass (always the first).
    pub fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go = self.passes == 0 || elapsed + elapsed / f64::from(self.passes) <= self.seconds;
        if go {
            self.passes += 1;
        }
        go
    }
}

/// The simulated end-to-end metrics of a single-VM roster pass. On these
/// workloads eviction time and SLA cost describe draining the roster's
/// host serially, one VM after another, under the web SLA model the
/// fleet uses for latency-sensitive tenants.
pub fn sim_metrics(out: &mut Outcome, reports: &[&MigrationReport], tput: &[f64]) {
    let secs: Vec<f64> = reports
        .iter()
        .map(|r| r.total_duration.as_secs_f64())
        .collect();
    let downtime: Vec<f64> = reports
        .iter()
        .map(|r| r.downtime.workload_downtime().as_secs_f64() * 1e3)
        .collect();
    let sla = SlaModel::default_web();
    out.metric("sim_total_s", median(&secs), "s");
    out.metric("sim_downtime_ms", median(&downtime), "ms");
    out.metric(
        "sim_wire_mb",
        reports.iter().map(|r| r.total_bytes as f64).sum::<f64>() / 1e6,
        "MB",
    );
    out.metric("sim_tput_ratio", median(tput), "ratio");
    out.metric("sim_eviction_s", secs.iter().sum(), "s");
    out.metric(
        "sim_sla_cost",
        reports.iter().map(|r| sla.cost(r).total()).sum(),
        "cost",
    );
}

/// The host-time end-to-end metrics.
pub fn host_metrics(out: &mut Outcome, wall_s: f64, sim_per_wall: f64, vm_ms: f64, setup_s: f64) {
    out.metric("wall_s", wall_s, "s");
    out.metric("sim_s_per_wall_s", sim_per_wall, "s/s");
    out.metric("vm_wall_ms.p50", vm_ms, "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-time samples of one roster VM across passes, seconds.
#[derive(Debug, Default)]
struct VmSamples {
    launch: Vec<f64>,
    cycle: Vec<f64>,
    simulating: Vec<f64>,
}

/// Runs a single-VM roster untraced. Host times are taken VM by VM: the
/// median pass is the sum over the roster of each VM's median across
/// passes, which keeps one slow VM in one pass from moving the figure.
pub fn single(roster: &[VmSpec], seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut budget = Budget::new(seconds);
    let mut samples: Vec<VmSamples> = roster.iter().map(|_| VmSamples::default()).collect();
    // Pass 0's cycles, per VM (None = failed).
    let mut first: Vec<Option<Cycle>> = Vec::new();
    let mut pass_walls = Vec::new();
    let mut pass = 0;
    while budget.another() {
        let t_pass = Instant::now();
        for (i, spec) in roster.iter().enumerate() {
            out.attempted += 1;
            let t_vm = Instant::now();
            let (mut vm, _) = launch_java(spec);
            let launch = t_vm.elapsed();
            let result = cycle(&mut vm, spec, Recorder::disabled(), &mut |_| {});
            let c = match result {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("{}: migration error: {e}", spec.name));
                    if pass == 0 {
                        first.push(None);
                    }
                    continue;
                }
            };
            samples[i].launch.push(launch.as_secs_f64());
            samples[i].cycle.push(t_vm.elapsed().as_secs_f64());
            samples[i]
                .simulating
                .push((c.warmup_wall + c.migrate_wall).as_secs_f64());
            if let Some(why) = output_failure(&c.report) {
                out.fail(format!("{}: {why}", spec.name));
            }
            if pass == 0 {
                first.push(Some(c));
            } else if let Some(Some(c0)) = first.get(i) {
                if let Some(diff) = first_mismatch(&c0.report, &c.report) {
                    out.fail(format!(
                        "{}: pass {pass} differs from pass 0 on {diff}",
                        spec.name
                    ));
                }
            }
        }
        pass_walls.push(t_pass.elapsed().as_secs_f64());
        pass += 1;
    }

    let median_sum =
        |f: fn(&VmSamples) -> &Vec<f64>| -> f64 { samples.iter().map(|v| median(f(v))).sum() };
    let all_cycles_ms: Vec<f64> = samples
        .iter()
        .flat_map(|v| v.cycle.iter().map(|s| s * 1e3))
        .collect();
    let ok: Vec<&Cycle> = first.iter().flatten().collect();
    host_metrics(
        &mut out,
        median_sum(|v| &v.cycle),
        ratio(
            ok.iter().map(|c| c.sim_secs).sum(),
            median_sum(|v| &v.simulating),
        ),
        median(&all_cycles_ms),
        median_sum(|v| &v.launch),
    );
    let reports: Vec<&MigrationReport> = ok.iter().map(|c| &c.report).collect();
    let tput: Vec<f64> = ok.iter().map(|c| c.tput_ratio).collect();
    sim_metrics(&mut out, &reports, &tput);
    out.notes.push(format!(
        "{pass} passes of {} VMs, pass walls {}; vm_wall_ms.p50 over {} samples",
        roster.len(),
        seconds_list(&pass_walls),
        all_cycles_ms.len()
    ));
    out
}

/// `[1.234 s, 1.301 s]`.
fn seconds_list(walls: &[f64]) -> String {
    let items: Vec<String> = walls.iter().map(|w| format!("{w:.3} s")).collect();
    format!("[{}]", items.join(", "))
}

/// The evac48 admission policy: cycle-aware.
pub const EVAC_POLICY: FleetPolicy = FleetPolicy::CycleAware;

/// Builds and validates the evac48 plan (SLA-aware placement) and
/// launches each of its tenants once through `VmTenant::launch` — the
/// call the drain makes for every guest — returning the plan and the
/// launch host times.
pub fn evac_setup(seed: u64) -> Result<(EvacuationPlan, Vec<Duration>), String> {
    let plan = evacuate48_plan(seed, PlacementPolicy::SlaAware);
    plan.validate()
        .map_err(|e| format!("evac48 plan invalid: {e}"))?;
    let launches = plan
        .sources
        .iter()
        .flat_map(|h| &h.tenants)
        .map(|tenant| {
            let t = Instant::now();
            let vm = tenant.launch();
            let d = t.elapsed();
            drop(std::hint::black_box(vm));
            d
        })
        .collect();
    Ok((plan, launches))
}

/// Every migration of an evacuation with its VM name, in host then
/// roster order.
pub fn evac_reports(out: &EvacOutcome) -> Vec<(&str, &MigrationReport)> {
    out.hosts
        .iter()
        .zip(&out.reports)
        .flat_map(|(host, reports)| {
            host.vms
                .iter()
                .map(|v| v.digest.meta.name.as_str())
                .zip(reports)
        })
        .collect()
}

/// Checks every VM of an evacuation and, after the first drain, that the
/// drain repeated the first one's simulated results exactly.
pub fn check_evac(
    outcome: &mut Outcome,
    evac: &EvacOutcome,
    first: Option<&EvacOutcome>,
    drain: usize,
) {
    let reports = evac_reports(evac);
    for &(name, r) in &reports {
        if let Some(why) = output_failure(r) {
            outcome.fail(format!("evac48 {name}: {why}"));
        }
    }
    if let Some(f) = first {
        for ((name, a), (_, b)) in evac_reports(f).into_iter().zip(reports) {
            if let Some(diff) = first_mismatch(a, b) {
                outcome.fail(format!(
                    "evac48 {name}: drain {drain} differs from drain 0 on {diff}"
                ));
            }
        }
        if f.eviction_ns != evac.eviction_ns {
            outcome.fail(format!(
                "evac48: drain {drain} eviction {} ns differs from drain 0's {} ns",
                evac.eviction_ns, f.eviction_ns
            ));
        }
    }
}

/// Simulated guest-seconds an evacuation advanced: every tenant runs
/// through the warm-up, its queueing and migration, and its tail.
pub fn evac_guest_secs(plan: &EvacuationPlan, evac: &EvacOutcome) -> f64 {
    plan.sources
        .iter()
        .zip(&evac.hosts)
        .map(|(spec, host)| {
            host.vms
                .iter()
                .map(|v| (spec.warmup + spec.tail).as_secs_f64() + v.ended_at_ns as f64 / 1e9)
                .sum::<f64>()
        })
        .sum()
}

/// Runs the evac48 workload untraced.
pub fn evac48(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut budget = Budget::new(seconds);
    let (mut walls, mut setups, mut first) = (Vec::new(), Vec::new(), None::<EvacOutcome>);
    let mut guest_secs = 0.0;
    let mut drain = 0;
    while budget.another() {
        let t = Instant::now();
        let plan = match evac_setup(seed) {
            Ok((plan, _)) => plan,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        let population = plan.population() as u64;
        out.attempted += population;
        let t = Instant::now();
        let evac = match evacuate(&plan, EVAC_POLICY) {
            Ok(evac) => evac,
            Err(e) => {
                out.fail(format!("evac48: drain error: {e}"));
                break;
            }
        };
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        guest_secs = evac_guest_secs(&plan, &evac);
        check_evac(&mut out, &evac, first.as_ref(), drain);
        if first.is_none() {
            first = Some(evac);
        }
        drain += 1;
    }

    let population = first.as_ref().map_or(0, |e| evac_reports(e).len());
    host_metrics(
        &mut out,
        median(&walls),
        ratio(guest_secs, median(&walls)),
        ratio(median(&walls) * 1e3, population as f64),
        median(&setups),
    );
    match &first {
        Some(evac) => evac_sim_metrics(&mut out, evac),
        None => sim_metrics(&mut out, &[], &[]),
    }
    out.notes.push(format!(
        "{drain} drains of {population} VMs, drain walls {}; vm_wall_ms.p50 is drain wall / VMs",
        seconds_list(&walls)
    ));
    out
}

/// The simulated end-to-end metrics of an evacuation. The fleet's guests
/// run inside `cluster`, out of the analyzer's reach, so the throughput
/// ratio is the live share of migration time, `1 - Σ downtime / Σ
/// migration time`: what a steady workload keeps if only the outage
/// stops it.
pub fn evac_sim_metrics(out: &mut Outcome, evac: &EvacOutcome) {
    let reports: Vec<&MigrationReport> = evac_reports(evac).into_iter().map(|(_, r)| r).collect();
    let secs: Vec<f64> = reports
        .iter()
        .map(|r| r.total_duration.as_secs_f64())
        .collect();
    let downtime: Vec<f64> = reports
        .iter()
        .map(|r| r.downtime.workload_downtime().as_secs_f64())
        .collect();
    let downtime_ms: Vec<f64> = downtime.iter().map(|d| d * 1e3).collect();
    out.metric("sim_total_s", median(&secs), "s");
    out.metric("sim_downtime_ms", median(&downtime_ms), "ms");
    out.metric(
        "sim_wire_mb",
        reports.iter().map(|r| r.total_bytes as f64).sum::<f64>() / 1e6,
        "MB",
    );
    out.metric(
        "sim_tput_ratio",
        1.0 - ratio(downtime.iter().sum(), secs.iter().sum()),
        "ratio",
    );
    out.metric("sim_eviction_s", evac.eviction_ns as f64 / 1e9, "s");
    out.metric("sim_sla_cost", evac.sla_total.total(), "cost");
}
