//! The traced run: per-layer host time and counts.
//!
//! Every VM of a single-VM roster runs three times from the same seed:
//! untraced through the program's `JavaVm` (the reference), through the
//! [`TimedVm`] adapter (layer timers), and through `JavaVm` again with a
//! flight recorder attached (engine scan counters, digest and export
//! costs, recorder overhead). The adapter's and the recorder's reports
//! must equal the reference field for field, or the VM fails: the layer
//! split never measures a different program. Layer times cover the whole
//! cycle (warm-up + migration) and are reported per VM.

use std::path::Path;
use std::time::{Duration, Instant};

use cluster::evacuate;
use guestos::kernel::{GuestKernel, GuestOsConfig};
use javmm::JavaVmConfig;
use jheap::JvmConfig;
use migrate::config::MigrationConfig;
use migrate::digest::{DigestMeta, Json, RunDigest};
use migrate::report::MigrationReport;
use simkit::telemetry::export::{chrome_trace_to_string, prometheus_to_string};
use simkit::telemetry::Subsystem;
use simkit::units::MIB;
use simkit::{DetRng, Recorder, SimDuration};
use vmem::{PageClass, Vaddr, PAGE_SIZE};
use workloads::catalog;

use crate::adapter::{Acc, LayerTimers, TimedVm};
use crate::measure::{check_evac, evac_reports, evac_setup, Budget, EVAC_POLICY};
use crate::report::{median, ratio, Outcome};
use crate::roster::{
    cycle, first_mismatch, launch_java, launch_timed, output_failure, pages_skipped_dirty, VmSpec,
    Workload,
};
use crate::spans::SpanLog;

/// Per-layer sums over the traced VMs.
#[derive(Debug, Default)]
struct Totals {
    vms: u64,
    timers: LayerTimers,
    engine_self_ns: u64,
    cycle_ns: u64,
    reference_ns: u64,
    migrate_timers: LayerTimers,
    migrate_ns: u64,
    launch_ns: u64,
    pages_written: u64,
    log_dirty_faults: u64,
    gc_pause_ns: u64,
    final_update_ns: u64,
    app_ops: u64,
    engine: EngineSums,
    recorder_ns: i64,
}

/// Engine counters and telemetry costs, from reports.
#[derive(Debug, Default)]
struct EngineSums {
    reports: u64,
    pages_scanned: u64,
    pages_sent: u64,
    pages_skipped: u64,
    iterations: u64,
    first_pass_pages: u64,
    cold_deferred: u64,
    delta_hits: u64,
    delta_lookups: u64,
    delta_wire: u64,
    delta_full: u64,
    digest_ns: u64,
    export_ns: u64,
    wire_bytes: f64,
    link_capacity_bytes: f64,
}

impl EngineSums {
    /// Folds one report in; `bandwidth` is the migration link's rate
    /// (bytes/s), or `None` when the link is shared and its timeline is
    /// measured elsewhere.
    fn add(&mut self, name: &str, report: &MigrationReport, bandwidth: Option<f64>) {
        self.reports += 1;
        self.pages_scanned += report
            .telemetry
            .counter(Subsystem::Engine, "pages_scanned")
            .unwrap_or(0);
        self.pages_sent += report.pages_sent();
        self.pages_skipped += report.pages_skipped_transfer() + pages_skipped_dirty(report);
        self.iterations += u64::from(report.iteration_count());
        self.first_pass_pages += report.iterations.first().map_or(0, |i| i.pages_sent);
        if let Some(c) = report.cold {
            self.cold_deferred += c.deferred_pages;
            self.delta_hits += c.delta_hits;
            self.delta_lookups += c.delta_hits + c.delta_misses;
            self.delta_wire += c.delta_wire_bytes;
            self.delta_full += c.delta_full_bytes;
        }
        if let Some(bps) = bandwidth {
            self.wire_bytes += report.total_bytes as f64;
            self.link_capacity_bytes += bps * report.total_duration.as_secs_f64();
        }
        // The metadata only labels the digest; its build cost is the same.
        let meta = DigestMeta {
            name: name.to_string(),
            workload: name.to_string(),
            assisted: report.lkm.is_some(),
            seed: 0,
        };
        let t = Instant::now();
        std::hint::black_box(RunDigest::from_report(meta, report).to_json());
        self.digest_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        std::hint::black_box(prometheus_to_string(&report.telemetry));
        std::hint::black_box(chrome_trace_to_string(&report.telemetry));
        self.export_ns += t.elapsed().as_nanos() as u64;
    }
}

/// The cluster layer's figures (evac48 only).
#[derive(Debug, Default)]
struct ClusterStats {
    evacuate_ms: f64,
    vms: usize,
    causal_events: usize,
    eta_predictions: u64,
    core_busy_frac: f64,
}

/// Host cost per page of `GuestKernel::write_range` over an Eden-sized
/// range, dirty log off and on.
#[derive(Debug, Default, Clone, Copy)]
struct WriteProbe {
    plain_ns: f64,
    logged_ns: f64,
}

/// Times `write_range` on a probe guest of its own: a paper-sized guest
/// with one Eden-sized mapping (the paper's 1 GiB Young generation
/// split 8:1:1). Logged writes clear the dirty log before each repetition,
/// so every page takes a log-dirty fault as the first write of an
/// iteration does.
fn write_probe() -> WriteProbe {
    const REPS: usize = 7;
    let mut kernel = GuestKernel::boot(GuestOsConfig::paper_guest(), DetRng::new(0x9e37));
    let pid = kernel.spawn("write-probe");
    let (eden, _) = JvmConfig::with_young_max(1024 * MIB).split_young(1024 * MIB);
    let Some(range) = kernel.alloc_map(
        pid,
        Vaddr(0x10_0000_0000),
        eden / PAGE_SIZE,
        PageClass::HeapYoung,
    ) else {
        return WriteProbe::default();
    };
    let time = |kernel: &mut GuestKernel, logged: bool| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                if logged {
                    kernel.memory_mut().dirty_log_mut().read_and_clear();
                }
                let t = Instant::now();
                let w = kernel.write_range(pid, range, PageClass::HeapYoung);
                ratio(t.elapsed().as_nanos() as f64, w.pages as f64)
            })
            .collect();
        median(&samples)
    };
    let plain_ns = time(&mut kernel, false);
    kernel.memory_mut().dirty_log_mut().enable();
    let logged_ns = time(&mut kernel, true);
    WriteProbe {
        plain_ns,
        logged_ns,
    }
}

/// The names of the committed digest scenarios a workload replays through
/// the adapter.
fn digest_scenarios(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::JavmmSpecjvm => &["crypto-assisted-seed9", "derby-assisted-seed3"],
        Workload::XenSpecjvm => &["derby-xen-seed1"],
        Workload::ColdCache | Workload::Evac48 => &[],
    }
}

/// Replays one committed digest scenario through the adapter and compares
/// its totals with `results/DIGEST_<name>.json`.
fn check_digest(name: &str) -> Result<(), String> {
    let s = javmm_bench::digests::scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("digest scenario {name} is not in the roster"))?;
    let workload = catalog::by_name(s.workload)
        .ok_or_else(|| format!("digest scenario {name}: unknown workload {}", s.workload))?;
    let spec = VmSpec {
        name: name.to_string(),
        vm: JavaVmConfig::paper(workload, s.assisted, s.seed),
        cache: None,
        migration: if s.assisted {
            MigrationConfig::javmm_default()
        } else {
            MigrationConfig::xen_default()
        },
        warmup: SimDuration::from_secs(20),
    };
    let mut vm = launch_timed(&spec);
    let c = cycle(&mut vm, &spec, Recorder::disabled(), &mut |_| {})
        .map_err(|e| format!("digest scenario {name}: migration error: {e}"))?;
    let meta = DigestMeta {
        name: name.to_string(),
        workload: s.workload.to_string(),
        assisted: s.assisted,
        seed: s.seed,
    };
    let d = RunDigest::from_report(meta, &c.report);
    let path = format!("results/DIGEST_{name}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let fields: [(&[&str], u64); 15] = [
        (&["totals", "total_duration_ns"], d.total_duration_ns),
        (&["totals", "total_bytes"], d.total_bytes),
        (&["totals", "cpu_time_ns"], d.cpu_time_ns),
        (&["totals", "iterations"], u64::from(d.iterations)),
        (&["totals", "stragglers"], u64::from(d.stragglers)),
        (&["pages", "sent"], d.pages_sent),
        (&["pages", "skipped_transfer"], d.pages_skipped_transfer),
        (&["pages", "skipped_dirty"], d.pages_skipped_dirty),
        (&["downtime_ns", "workload"], d.downtime_workload_ns),
        (&["downtime_ns", "vm"], d.downtime_vm_ns),
        (&["downtime_ns", "safepoint_wait"], d.safepoint_wait_ns),
        (&["downtime_ns", "enforced_gc"], d.enforced_gc_ns),
        (&["downtime_ns", "final_update"], d.final_update_ns),
        (&["downtime_ns", "last_iteration"], d.last_iteration_ns),
        (&["downtime_ns", "resume"], d.resume_ns),
    ];
    for (path_keys, got) in fields {
        let want = doc.get(path_keys).and_then(Json::as_f64);
        if want != Some(got as f64) {
            return Err(format!(
                "digest scenario {name}: {} is {got}, committed {want:?}",
                path_keys.join(".")
            ));
        }
    }
    for (path_keys, got) in [
        (["outcome", "kind"], d.outcome_kind),
        (["outcome", "stop_reason"], d.stop_reason),
    ] {
        let want = doc.get(&path_keys).and_then(Json::as_str);
        if want != Some(got) {
            return Err(format!(
                "digest scenario {name}: {} is {got}, committed {want:?}",
                path_keys.join(".")
            ));
        }
    }
    Ok(())
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs one VM three ways and folds it into `totals`.
fn traced_vm(
    spec: &VmSpec,
    trace: u64,
    spans: &mut SpanLog,
    totals: &mut Totals,
    out: &mut Outcome,
) {
    out.attempted += 1;
    let name = spec.name.as_str();

    // The reference: the program's own JavaVm, untraced.
    let t_ref = Instant::now();
    let (mut vm, launch) = launch_java(spec);
    let reference = match cycle(&mut vm, spec, Recorder::disabled(), &mut |_| {}) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("{name}: migration error: {e}"));
            return;
        }
    };
    drop(vm);
    spans.span(trace, None, "reference", t_ref, Instant::now());
    if let Some(why) = output_failure(&reference.report) {
        out.fail(format!("{name}: {why}"));
    }

    // The timing adapter.
    let t_root = Instant::now();
    let mut tv = launch_timed(spec);
    let t_warm = Instant::now();
    let (mut warm, mut t_mig) = (LayerTimers::default(), t_warm);
    let traced = cycle(&mut tv, spec, Recorder::disabled(), &mut |v: &TimedVm| {
        warm = v.timers;
        t_mig = Instant::now();
    });
    let t_end = Instant::now();
    let traced = match traced {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("{name}: adapter migration error: {e}"));
            return;
        }
    };
    if let Some(diff) = first_mismatch(&reference.report, &traced.report) {
        out.fail(format!("{name}: timing adapter parity mismatch on {diff}"));
    }
    let mig = tv.timers.since(warm);
    let engine_self = ns(traced.migrate_wall).saturating_sub(mig.guest.ns);

    let root = spans.span(trace, None, name, t_root, t_end);
    spans.span(trace, Some(root), "setup", t_root, t_warm);
    let warm_id = spans.span(trace, Some(root), "warmup", t_warm, t_mig);
    guest_spans(spans, trace, warm_id, t_warm, warm);
    let mig_id = spans.span(trace, Some(root), "migrate", t_mig, t_end);
    let engine = Acc {
        ns: engine_self,
        calls: 1,
    };
    spans.aggregate(trace, mig_id, "engine", t_mig, engine);
    guest_spans(
        spans,
        trace,
        mig_id,
        t_mig + Duration::from_nanos(engine_self),
        mig,
    );

    let stats = tv.jvm().stats();
    totals.vms += 1;
    totals.timers = sum_timers(totals.timers, tv.timers);
    totals.migrate_timers = sum_timers(totals.migrate_timers, mig);
    totals.engine_self_ns += engine_self;
    totals.cycle_ns += ns(traced.warmup_wall + traced.migrate_wall);
    totals.migrate_ns += ns(traced.migrate_wall);
    totals.reference_ns += ns(reference.warmup_wall + reference.migrate_wall);
    totals.launch_ns += ns(launch);
    totals.pages_written += stats.pages_written;
    totals.log_dirty_faults += stats.faults;
    totals.gc_pause_ns += stats.gc_pause.as_nanos();
    totals.final_update_ns += traced
        .report
        .lkm
        .map_or(0, |l| l.final_update_duration.as_nanos());
    totals.app_ops += tv.app_ops();
    drop(tv);

    // The same VM with a flight recorder attached.
    let t_rec = Instant::now();
    let (mut vm, _) = launch_java(spec);
    let recorded = match cycle(&mut vm, spec, Recorder::new(), &mut |_| {}) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("{name}: recorded migration error: {e}"));
            return;
        }
    };
    drop(vm);
    spans.span(trace, None, "recorded", t_rec, Instant::now());
    if let Some(diff) = first_mismatch(&reference.report, &recorded.report) {
        out.fail(format!("{name}: recording changed the run on {diff}"));
    }
    totals.recorder_ns += ns(recorded.migrate_wall) as i64 - ns(reference.migrate_wall) as i64;
    totals.engine.add(
        name,
        &recorded.report,
        Some(spec.migration.bandwidth.bytes_per_sec()),
    );
}

fn sum_timers(a: LayerTimers, b: LayerTimers) -> LayerTimers {
    let s = |x: Acc, y: Acc| Acc {
        ns: x.ns + y.ns,
        calls: x.calls + y.calls,
    };
    LayerTimers {
        lkm: s(a.lkm, b.lkm),
        noise: s(a.noise, b.noise),
        jheap: s(a.jheap, b.jheap),
        apps: s(a.apps, b.apps),
        guest: s(a.guest, b.guest),
    }
}

/// The guest child of a phase span and its per-layer aggregates.
fn guest_spans(spans: &mut SpanLog, trace: u64, parent: u64, start: Instant, t: LayerTimers) {
    let guest = spans.aggregate(trace, parent, "guest", start, t.guest);
    let other = Acc {
        ns: t.unattributed_ns(),
        calls: t.guest.calls,
    };
    spans.aggregates(
        trace,
        guest,
        start,
        &[
            ("guestos.lkm", t.lkm),
            ("guestos.noise", t.noise),
            ("jheap", t.jheap),
            ("workloads.apps", t.apps),
            ("unattributed", other),
        ],
    );
}

/// Runs a single-VM roster traced.
pub fn single(workload: Workload, roster: &[VmSpec], seconds: f64, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    for name in digest_scenarios(workload) {
        out.attempted += 1;
        if let Err(e) = check_digest(name) {
            out.fail(e);
        }
    }
    let probe = write_probe();
    let mut totals = Totals::default();
    let mut budget = Budget::new(seconds);
    let mut pass = 0;
    while budget.another() {
        for (i, spec) in roster.iter().enumerate() {
            traced_vm(
                spec,
                (pass * roster.len() + i) as u64 + 1,
                spans,
                &mut totals,
                &mut out,
            );
        }
        pass += 1;
    }
    let m = totals.migrate_timers;
    let per_vm = |x: u64| ratio(x as f64, totals.vms as f64);
    out.notes.push(format!(
        "{pass} traced passes of {} VMs; migrate phase per VM: wall {:.1} ms = engine self {:.1} \
         + lkm {:.1} + noise {:.1} + jheap {:.1} + apps {:.1} + unattributed {:.1} ms",
        roster.len(),
        per_vm(totals.migrate_ns) / 1e6,
        per_vm(totals.engine_self_ns) / 1e6,
        per_vm(m.lkm.ns) / 1e6,
        per_vm(m.noise.ns) / 1e6,
        per_vm(m.jheap.ns) / 1e6,
        per_vm(m.apps.ns) / 1e6,
        per_vm(totals.migrate_ns.saturating_sub(
            totals.engine_self_ns + m.lkm.ns + m.noise.ns + m.jheap.ns + m.apps.ns
        )) / 1e6,
    ));
    layer_metrics(&mut out, &totals, probe, None, None);
    out
}

/// Runs the evac48 workload traced: one untraced drain for the overhead
/// baseline, then one drain inside a span, both checked.
pub fn evac48(seed: u64, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let probe = write_probe();
    let t_setup = Instant::now();
    let (plan, launches) = match evac_setup(seed) {
        Ok(x) => x,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let mut totals = Totals {
        launch_ns: launches.iter().map(|d| ns(*d)).sum(),
        ..Totals::default()
    };
    let t = Instant::now();
    let baseline = match evacuate(&plan, EVAC_POLICY) {
        Ok(e) => e,
        Err(e) => {
            out.fail(format!("evac48: drain error: {e}"));
            return out;
        }
    };
    let baseline_wall = t.elapsed();
    out.attempted += plan.population() as u64;
    check_evac(&mut out, &baseline, None, 0);

    let t_drain = Instant::now();
    let traced = match evacuate(&plan, EVAC_POLICY) {
        Ok(e) => e,
        Err(e) => {
            out.fail(format!("evac48: drain error: {e}"));
            return out;
        }
    };
    let t_end = Instant::now();
    out.attempted += plan.population() as u64;
    check_evac(&mut out, &traced, Some(&baseline), 1);
    let root = spans.span(0, None, "evac48", t_setup, t_end);
    spans.span(0, Some(root), "setup", t_setup, t);
    spans.span(0, Some(root), "drain.untraced", t, t_drain);
    spans.span(0, Some(root), "drain", t_drain, t_end);

    let reports = evac_reports(&traced);
    for &(name, r) in &reports {
        totals.engine.add(name, r, None);
    }
    let wall = t_end - t_drain;
    totals.cycle_ns = ns(wall);
    totals.reference_ns = ns(baseline_wall);
    let mission = &traced.mission;
    let cluster = ClusterStats {
        evacuate_ms: wall.as_secs_f64() * 1e3,
        vms: reports.len(),
        causal_events: mission.causal.len(),
        eta_predictions: mission.eta.predictions,
        core_busy_frac: mission
            .pipes
            .pipes()
            .iter()
            .find(|p| p.name == plan.core.as_ref().map_or("", |c| c.name.as_str()))
            .map_or(0.0, |p| p.utilization.mean()),
    };
    out.notes.push(format!(
        "evac48: {} VMs, launches {:.1} ms total, drain {:.1} ms (untraced {:.1} ms)",
        reports.len(),
        totals.launch_ns as f64 / 1e6,
        cluster.evacuate_ms,
        baseline_wall.as_secs_f64() * 1e3
    ));
    layer_metrics(
        &mut out,
        &totals,
        probe,
        Some(&cluster),
        Some(launches.len()),
    );
    out
}

/// Emits every per-layer metric. Layers a workload does not run report 0;
/// times and counts are per VM unless the name says otherwise.
fn layer_metrics(
    out: &mut Outcome,
    t: &Totals,
    probe: WriteProbe,
    cluster: Option<&ClusterStats>,
    launches: Option<usize>,
) {
    let vms = t.vms as f64;
    let per_vm = |x: u64| ratio(x as f64, vms);
    let ms = |x: u64| per_vm(x) / 1e6;
    let e = &t.engine;
    let per_report = |x: u64| ratio(x as f64, e.reports as f64);

    out.metric("jheap.advance_ms", ms(t.timers.jheap.ns), "ms");
    out.metric("jheap.pages_written", per_vm(t.pages_written), "count");
    out.metric(
        "jheap.ns_per_page_written",
        ratio(t.timers.jheap.ns as f64, t.pages_written as f64),
        "ns",
    );
    out.metric(
        "jheap.log_dirty_faults",
        per_vm(t.log_dirty_faults),
        "count",
    );
    out.metric("jheap.gc_pause_sim_ms", ms(t.gc_pause_ns), "ms");
    out.metric("guestos.write_range_ns_per_page", probe.plain_ns, "ns");
    out.metric(
        "guestos.write_range_logged_ns_per_page",
        probe.logged_ns,
        "ns",
    );
    out.metric("guestos.lkm_ms", ms(t.timers.lkm.ns), "ms");
    out.metric("guestos.lkm_calls", per_vm(t.timers.lkm.calls), "count");
    out.metric("guestos.noise_ms", ms(t.timers.noise.ns), "ms");
    out.metric(
        "guestos.lkm_final_update_sim_us",
        per_vm(t.final_update_ns) / 1e3,
        "us",
    );
    out.metric("workloads.cacheapp_ms", ms(t.timers.apps.ns), "ms");
    out.metric("workloads.cacheapp_ops", per_vm(t.app_ops), "count");
    out.metric("migrate.engine_self_ms", ms(t.engine_self_ns), "ms");
    out.metric(
        "migrate.engine_ns_per_page_scanned",
        ratio(t.engine_self_ns as f64, e.pages_scanned as f64),
        "ns",
    );
    out.metric(
        "migrate.pages_scanned",
        per_report(e.pages_scanned),
        "count",
    );
    out.metric("migrate.pages_sent", per_report(e.pages_sent), "count");
    out.metric(
        "migrate.pages_skipped",
        per_report(e.pages_skipped),
        "count",
    );
    out.metric("migrate.iterations", per_report(e.iterations), "count");
    out.metric(
        "migrate.sent_per_needed",
        ratio(e.pages_sent as f64, e.first_pass_pages as f64),
        "ratio",
    );
    out.metric(
        "migrate.cold_deferred_pages",
        per_report(e.cold_deferred),
        "count",
    );
    out.metric(
        "migrate.delta_hit_ratio",
        ratio(e.delta_hits as f64, e.delta_lookups as f64),
        "ratio",
    );
    out.metric(
        "migrate.delta_saved_ratio",
        if e.delta_full == 0 {
            0.0
        } else {
            1.0 - e.delta_wire as f64 / e.delta_full as f64
        },
        "ratio",
    );
    out.metric("migrate.digest_ms", per_report(e.digest_ns) / 1e6, "ms");
    out.metric(
        "simkit.recorder_ms",
        ratio(t.recorder_ns as f64, vms) / 1e6,
        "ms",
    );
    out.metric("simkit.export_ms", per_report(e.export_ns) / 1e6, "ms");
    let (evacuate_ms, causal, eta, busy) = match cluster {
        Some(c) => (
            c.evacuate_ms,
            c.causal_events as f64,
            c.eta_predictions as f64,
            c.core_busy_frac,
        ),
        None => (0.0, 0.0, 0.0, ratio(e.wire_bytes, e.link_capacity_bytes)),
    };
    let cluster_vms = cluster.map_or(0.0, |c| c.vms as f64);
    out.metric("cluster.evacuate_ms", evacuate_ms, "ms");
    out.metric("cluster.ms_per_vm", ratio(evacuate_ms, cluster_vms), "ms");
    out.metric("cluster.causal_events", causal, "count");
    out.metric("cluster.eta_predictions", eta, "count");
    out.metric("netsim.link_busy_frac", busy, "ratio");
    let launch_count = launches.map_or(vms, |n| n as f64);
    out.metric(
        "core.launch_ms",
        ratio(t.launch_ns as f64, launch_count) / 1e6,
        "ms",
    );
    out.metric(
        "bench.trace_overhead_pct",
        (ratio(t.cycle_ns as f64, t.reference_ns as f64) - 1.0) * 100.0,
        "%",
    );
    let attributed = t.engine_self_ns
        + t.timers.lkm.ns
        + t.timers.noise.ns
        + t.timers.jheap.ns
        + t.timers.apps.ns;
    out.metric(
        "bench.unattributed_ms",
        if cluster.is_some() {
            0.0
        } else {
            ms(t.cycle_ns.saturating_sub(attributed))
        },
        "ms",
    );
}

/// Where a traced run writes its spans.
pub fn span_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    Path::new("perfbench")
        .join("out")
        .join(format!("trace-{}-seed{seed}.json", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{host_metrics, sim_metrics};

    /// The metric names `BENCHMARK.json` lists under `key`, in order.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(&[key]) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get(&["name"]).and_then(Json::as_str);
                name.expect("every metric has a name").to_string()
            })
            .collect()
    }

    fn names(out: &Outcome) -> Vec<String> {
        out.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn end_to_end_metrics_match_the_benchmark_file() {
        let mut out = Outcome::default();
        host_metrics(&mut out, 1.0, 1.0, 1.0, 1.0);
        sim_metrics(&mut out, &[], &[]);
        assert_eq!(names(&out), listed("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_the_benchmark_file() {
        let mut out = Outcome::default();
        layer_metrics(
            &mut out,
            &Totals::default(),
            WriteProbe::default(),
            None,
            None,
        );
        assert_eq!(names(&out), listed("per_layer"));
    }
}
