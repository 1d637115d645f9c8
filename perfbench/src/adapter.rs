//! The timing adapter: a migratable guest assembled from the stack's
//! public parts that times every layer call around `advance_guest`.
//!
//! [`TimedVm`] is built exactly like [`javmm::JavaVm`] (same boot, LKM,
//! JVM launch and RNG forks) and advances the guest in the same order, so
//! a migration through it must reproduce the untraced `JavaVm` report
//! field for field — the traced run checks that on every VM. The only
//! difference is an `Instant` read between layer calls.

use std::time::{Duration, Instant};

use guestos::app::GuestApp;
use guestos::kernel::GuestKernel;
use guestos::lkm::DaemonPort;
use javmm::{Collector, JavaVm, JavaVmConfig};
use jheap::gc::GcKind;
use jheap::jvm::JvmProcess;
use migrate::vmhost::MigratableVm;
use simkit::{DetRng, Recorder, SimClock, SimDuration, SimTime};
use workloads::analyzer::Analyzer;

/// The guest tick outside migration, as the repo's scenarios use it.
pub const TICK: SimDuration = SimDuration::from_millis(2);

/// Host time and call count accumulated at one seam.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Host nanoseconds spent inside the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Acc {
    fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.calls += 1;
    }

    /// `self - earlier`, for per-phase deltas.
    pub fn since(self, earlier: Acc) -> Acc {
        Acc {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
        }
    }
}

/// Per-layer accumulators of the guest side of the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimers {
    /// `GuestKernel::service_lkm`.
    pub lkm: Acc,
    /// `GuestKernel::tick_noise`.
    pub noise: Acc,
    /// `JvmProcess::advance` (mutator + GC + agent).
    pub jheap: Acc,
    /// `GuestApp::advance` over the extra applications (the cache server).
    pub apps: Acc,
    /// The whole `advance_guest` call, timer reads and analyzer included.
    pub guest: Acc,
}

impl LayerTimers {
    /// Per-layer deltas since `earlier`.
    pub fn since(self, earlier: LayerTimers) -> LayerTimers {
        LayerTimers {
            lkm: self.lkm.since(earlier.lkm),
            noise: self.noise.since(earlier.noise),
            jheap: self.jheap.since(earlier.jheap),
            apps: self.apps.since(earlier.apps),
            guest: self.guest.since(earlier.guest),
        }
    }

    /// Guest time not attributed to a layer call: timer reads, the
    /// analyzer probe and the ops sum.
    pub fn unattributed_ns(&self) -> u64 {
        self.guest
            .ns
            .saturating_sub(self.lkm.ns + self.noise.ns + self.jheap.ns + self.apps.ns)
    }
}

/// A guest the benchmark's migration procedure can drive: the program's
/// own [`JavaVm`] (untraced) or the [`TimedVm`] adapter (traced).
pub trait Guest: MigratableVm {
    /// Runs the guest (no migration in progress) for `total`.
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration);

    /// Adds another guest application.
    fn add_app(&mut self, app: Box<dyn GuestApp>);

    /// The guest kernel, to launch further applications.
    fn kernel_handle(&mut self) -> &mut GuestKernel;
}

impl Guest for JavaVm {
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration) {
        JavaVm::run_for(self, clock, total, TICK);
    }

    fn add_app(&mut self, app: Box<dyn GuestApp>) {
        JavaVm::add_app(self, app);
    }

    fn kernel_handle(&mut self) -> &mut GuestKernel {
        JavaVm::kernel_handle(self)
    }
}

/// The timing adapter.
pub struct TimedVm {
    kernel: GuestKernel,
    jvm: JvmProcess,
    apps: Vec<Box<dyn GuestApp>>,
    /// Never read: kept so each quantum does the work `JavaVm`'s does.
    analyzer: Analyzer,
    port: DaemonPort,
    /// Accumulated layer host time since launch.
    pub timers: LayerTimers,
}

impl TimedVm {
    /// Boots the guest, loads the LKM and launches the JVM exactly as
    /// [`JavaVm::launch`] does.
    pub fn launch(config: JavaVmConfig) -> Self {
        let root = DetRng::new(config.seed);
        let mut kernel = GuestKernel::boot(config.os.clone(), root.fork(1));
        let port = kernel.load_lkm(config.lkm.clone());
        let young_max = config
            .young_max
            .unwrap_or(config.workload.default_young_max);
        let jvm_config = config.workload.jvm_config(young_max);
        let mutator = config.workload.mutator();
        let jvm = match config.collector {
            Collector::Parallel => JvmProcess::launch(
                &mut kernel,
                jvm_config,
                mutator,
                config.assisted,
                root.fork(2),
            ),
            Collector::G1 { region_bytes } => JvmProcess::launch_g1(
                &mut kernel,
                jvm_config,
                region_bytes,
                mutator,
                config.assisted,
                root.fork(2),
            ),
        };
        Self {
            kernel,
            jvm,
            apps: Vec::new(),
            analyzer: Analyzer::new(),
            port,
            timers: LayerTimers::default(),
        }
    }

    /// The JVM under test.
    pub fn jvm(&self) -> &JvmProcess {
        &self.jvm
    }

    /// Operations completed by the extra applications.
    pub fn app_ops(&self) -> u64 {
        self.apps.iter().map(|a| a.ops_completed()).sum()
    }
}

impl Guest for TimedVm {
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration) {
        // The stepping of `JavaVm::run_for`, so both guests see the same
        // quanta.
        let end = clock.now() + total;
        while clock.now() < end {
            let dt = TICK.min(end.saturating_since(clock.now()));
            self.advance_guest(clock.now(), dt);
            clock.advance(dt);
        }
    }

    fn add_app(&mut self, app: Box<dyn GuestApp>) {
        self.apps.push(app);
    }

    fn kernel_handle(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }
}

impl MigratableVm for TimedVm {
    fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }

    fn advance_guest(&mut self, now: SimTime, dt: SimDuration) {
        let t0 = Instant::now();
        self.kernel.service_lkm(now);
        let t1 = Instant::now();
        self.kernel.tick_noise(now, dt);
        let t2 = Instant::now();
        self.jvm.advance(now, dt, &mut self.kernel);
        let t3 = Instant::now();
        for app in &mut self.apps {
            app.advance(now, dt, &mut self.kernel);
        }
        let t4 = Instant::now();
        let total_ops = self.ops_completed();
        self.analyzer.observe(now + dt, total_ops);
        let t5 = Instant::now();
        self.timers.lkm.add(t1 - t0);
        self.timers.noise.add(t2 - t1);
        self.timers.jheap.add(t3 - t2);
        self.timers.apps.add(t4 - t3);
        self.timers.guest.add(t5 - t0);
    }

    fn ops_completed(&self) -> u64 {
        self.jvm.ops_completed() + self.app_ops()
    }

    fn daemon_port(&self) -> Option<DaemonPort> {
        Some(self.port.clone())
    }

    fn enforced_gc_duration(&self) -> Option<SimDuration> {
        self.jvm
            .heap()
            .gc_log()
            .records()
            .iter()
            .rev()
            .find(|r| r.kind == GcKind::EnforcedMinor)
            .map(|r| r.duration)
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.kernel.attach_telemetry(recorder.clone());
        self.port.attach_telemetry(recorder.clone());
        self.jvm.attach_telemetry(recorder);
    }

    fn install_faults(&mut self, plan: &simkit::FaultPlan) {
        if !plan.is_active() {
            return;
        }
        let root = DetRng::new(plan.seed);
        if plan.evtchn.is_active() {
            self.port.install_faults(plan.evtchn, root.fork(1));
        }
        if plan.netlink.is_active() {
            self.kernel
                .install_netlink_faults(plan.netlink, root.fork(2));
        }
        self.jvm.set_agent_stall(plan.agent_stall);
        self.jvm.set_gc_overrun(plan.gc_overrun);
        self.jvm.set_phase_shift(plan.phase_shift);
    }
}
