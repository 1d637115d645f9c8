//! The benchmark's workloads and the migration procedure every VM runs.
//!
//! Each single-VM workload is a fixed roster of guests whose seeds derive
//! from the benchmark's `--seed`; the roster's composition never changes
//! with the seed, only the guests' random streams do. A VM's cycle is the
//! repo's scenario procedure: launch, warm up, migrate with
//! [`PrecopyEngine`] — one VM after another on one thread.

use std::time::{Duration, Instant};

use javmm::{JavaVm, JavaVmConfig};
use migrate::config::MigrationConfig;
use migrate::error::MigrateError;
use migrate::precopy::PrecopyEngine;
use migrate::report::MigrationReport;
use migrate::ColdAssistConfig;
use simkit::units::{Bandwidth, MIB};
use simkit::{DetRng, Recorder, SimClock, SimDuration};
use workloads::cacheapp::{CacheApp, CacheAppConfig};
use workloads::catalog;

use crate::adapter::{Guest, TimedVm};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// JAVMM-assisted migrations of allocation-heavy SPECjvm guests.
    JavmmSpecjvm,
    /// The same roster migrated unassisted (Xen pre-copy).
    XenSpecjvm,
    /// The cacheapp cold ladder on a 32 MB/s uplink, defer + delta on.
    ColdCache,
    /// The 48-VM four-rack evacuation.
    Evac48,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::JavmmSpecjvm,
        Workload::XenSpecjvm,
        Workload::ColdCache,
        Workload::Evac48,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JavmmSpecjvm => "javmm-specjvm",
            Workload::XenSpecjvm => "xen-specjvm",
            Workload::ColdCache => "cold-cache",
            Workload::Evac48 => "evac48",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: derives independent, well-mixed VM seeds from the
/// benchmark seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cache server launched into the guest next to the JVM.
#[derive(Debug, Clone)]
pub struct CacheSpec {
    /// The cache server's configuration.
    pub config: CacheAppConfig,
    /// Seed of its random stream.
    pub seed: u64,
}

/// One guest of a single-VM roster.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Roster label, e.g. `derby-0`.
    pub name: String,
    /// The VM under test.
    pub vm: JavaVmConfig,
    /// An optional cache server next to the JVM.
    pub cache: Option<CacheSpec>,
    /// The migration engine configuration (fault-free).
    pub migration: MigrationConfig,
    /// Workload runtime before migration begins.
    pub warmup: SimDuration,
}

/// The paper's allocation-heavy SPECjvm2008 profiles the SPECjvm rosters
/// migrate, one guest each per roster. An odd count keeps the per-VM
/// median inside one profile's samples.
fn specjvm_profiles() -> Vec<workloads::spec::WorkloadSpec> {
    vec![
        catalog::derby(),
        catalog::compiler(),
        catalog::xml(),
        catalog::sunflow(),
        catalog::crypto(),
    ]
}

/// The repo's cold-ladder uplink, a quarter-gigabit share.
const COLD_UPLINK_MBYTES_PER_SEC: f64 = 32.0;

/// The cold ladder: fraction of the cache held by the long-tail resident
/// set, one guest per point.
const COLD_LADDER: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// The roster of a single-VM workload; `None` for `evac48`.
pub fn roster(workload: Workload, seed: u64) -> Option<Vec<VmSpec>> {
    let specjvm = |assisted: bool| {
        specjvm_profiles()
            .into_iter()
            .enumerate()
            .map(|(i, profile)| VmSpec {
                name: format!("{}-{i}", profile.name),
                vm: JavaVmConfig::paper(profile, assisted, derive_seed(seed, i as u64)),
                cache: None,
                migration: if assisted {
                    MigrationConfig::javmm_default()
                } else {
                    MigrationConfig::xen_default()
                },
                warmup: SimDuration::from_secs(20),
            })
            .collect()
    };
    match workload {
        Workload::JavmmSpecjvm => Some(specjvm(true)),
        Workload::XenSpecjvm => Some(specjvm(false)),
        Workload::ColdCache => Some(
            COLD_LADDER
                .iter()
                .enumerate()
                .map(|(i, &cold_fraction)| {
                    let vm_seed = derive_seed(seed, 100 + i as u64);
                    let mut vm = JavaVmConfig::paper(catalog::mpeg(), true, vm_seed);
                    vm.young_max = Some(256 * MIB);
                    let mut migration = MigrationConfig::javmm_default();
                    migration.bandwidth =
                        Bandwidth::from_mbytes_per_sec(COLD_UPLINK_MBYTES_PER_SEC);
                    migration.cold = ColdAssistConfig {
                        delta_cache_pages: 524_288,
                        ..ColdAssistConfig::full()
                    };
                    VmSpec {
                        name: format!("cold{:02}", (cold_fraction * 100.0).round() as u32),
                        vm,
                        cache: Some(CacheSpec {
                            config: CacheAppConfig {
                                cache_bytes: 512 * MIB,
                                skip_fraction: 0.1,
                                write_rate: 30e6,
                                ops_per_sec: 10_000.0,
                                miss_penalty: 0.3,
                                refill_secs: 30.0,
                                cold_fraction,
                            },
                            seed: vm_seed.wrapping_mul(31).wrapping_add(11),
                        }),
                        migration,
                        warmup: SimDuration::from_secs(20),
                    }
                })
                .collect(),
        ),
        Workload::Evac48 => None,
    }
}

/// Launches `spec`'s guest through the program's [`JavaVm::launch`].
/// Returns the VM and the host time of the JVM launch alone.
pub fn launch_java(spec: &VmSpec) -> (JavaVm, Duration) {
    let t = Instant::now();
    let mut vm = JavaVm::launch(spec.vm.clone());
    let core = t.elapsed();
    add_cache(&mut vm, spec);
    (vm, core)
}

/// Launches `spec`'s guest as a [`TimedVm`].
pub fn launch_timed(spec: &VmSpec) -> TimedVm {
    let mut vm = TimedVm::launch(spec.vm.clone());
    add_cache(&mut vm, spec);
    vm
}

fn add_cache<V: Guest>(vm: &mut V, spec: &VmSpec) {
    if let Some(cache) = &spec.cache {
        let app = CacheApp::launch(
            vm.kernel_handle(),
            cache.config.clone(),
            spec.vm.assisted,
            DetRng::new(cache.seed),
        );
        vm.add_app(Box::new(app));
    }
}

/// What one warm-up + migration of a VM produced.
#[derive(Debug)]
pub struct Cycle {
    /// The engine's report.
    pub report: MigrationReport,
    /// Host time of the warm-up.
    pub warmup_wall: Duration,
    /// Host time of `PrecopyEngine::migrate_recorded`.
    pub migrate_wall: Duration,
    /// Simulated guest seconds advanced (warm-up + migration).
    pub sim_secs: f64,
    /// Ops/s during migration ÷ ops/s over the second half of warm-up, as
    /// the throughput analyzer's counter reports them.
    pub tput_ratio: f64,
}

/// Warms `vm` up and migrates it. `on_phase` runs when the migration
/// starts, so a traced guest can close its warm-up accumulators.
pub fn cycle<V: Guest>(
    vm: &mut V,
    spec: &VmSpec,
    recorder: Recorder,
    on_phase: &mut dyn FnMut(&V),
) -> Result<Cycle, MigrateError> {
    let mut clock = SimClock::new();
    let half = spec.warmup / 2;
    let t0 = Instant::now();
    vm.run_for(&mut clock, half);
    let ops_half = vm.ops_completed();
    vm.run_for(&mut clock, spec.warmup - half);
    let ops_start = vm.ops_completed();
    let warmup_wall = t0.elapsed();
    on_phase(vm);

    let t1 = Instant::now();
    let report =
        PrecopyEngine::new(spec.migration.clone()).migrate_recorded(vm, &mut clock, recorder)?;
    let migrate_wall = t1.elapsed();

    let migration_secs = report.total_duration.as_secs_f64();
    let before = (ops_start - ops_half) as f64 / half.as_secs_f64();
    let during = (vm.ops_completed() - ops_start) as f64 / migration_secs;
    Ok(Cycle {
        warmup_wall,
        migrate_wall,
        sim_secs: spec.warmup.as_secs_f64() + migration_secs,
        tput_ratio: if before > 0.0 { during / before } else { 0.0 },
        report,
    })
}

/// Why a VM's run counts as failed, if it does: the output check of every
/// run. The benchmark's plans are fault-free, so a degraded run is a
/// failure too.
pub fn output_failure(report: &MigrationReport) -> Option<String> {
    if !report.verification.is_correct() {
        Some(format!(
            "destination verification found {} mismatched pages",
            report.verification.mismatched
        ))
    } else if report.outcome.is_degraded() {
        Some(format!(
            "degraded to vanilla pre-copy on a fault-free plan ({:?})",
            report.outcome
        ))
    } else {
        None
    }
}

/// The report fields the parity and determinism checks compare.
pub fn fingerprint(r: &MigrationReport) -> Vec<(&'static str, u64)> {
    let d = &r.downtime;
    let v = &r.verification;
    vec![
        ("total_duration_ns", r.total_duration.as_nanos()),
        ("total_bytes", r.total_bytes),
        ("cpu_time_ns", r.cpu_time.as_nanos()),
        ("downtime.safepoint_wait_ns", d.safepoint_wait.as_nanos()),
        ("downtime.enforced_gc_ns", d.enforced_gc.as_nanos()),
        ("downtime.final_update_ns", d.final_update.as_nanos()),
        ("downtime.last_iteration_ns", d.last_iteration.as_nanos()),
        ("downtime.resume_ns", d.resume.as_nanos()),
        ("pages_sent", r.pages_sent()),
        ("pages_skipped_transfer", r.pages_skipped_transfer()),
        ("pages_skipped_dirty", pages_skipped_dirty(r)),
        ("iterations", u64::from(r.iteration_count())),
        ("stragglers", u64::from(r.stragglers)),
        ("verify.matching", v.matching),
        ("verify.excused_skipped", v.excused_skipped),
        ("verify.excused_free", v.excused_free),
        ("verify.mismatched", v.mismatched),
        ("degraded", u64::from(r.outcome.is_degraded())),
    ]
}

/// Pages skipped because they were re-dirtied before their send.
pub fn pages_skipped_dirty(r: &MigrationReport) -> u64 {
    r.iterations.iter().map(|i| i.pages_skipped_dirty).sum()
}

/// The first field on which two reports differ, as `field: a vs b`.
pub fn first_mismatch(a: &MigrationReport, b: &MigrationReport) -> Option<String> {
    fingerprint(a)
        .into_iter()
        .zip(fingerprint(b))
        .find(|((_, x), (_, y))| x != y)
        .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
}
