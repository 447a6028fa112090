//! One device's session: a per-device governor stack over the shared
//! [`PlanStore`], stepped once per scheduler tick.
//!
//! A session owns its application, one plan handle per kernel of it
//! (resolved against the store when the session is built, so a warm step
//! neither looks a plan up nor hashes a kernel), its governor stack (the
//! shared oracle, optionally wrapped in the core [`CappedGovernor`] when
//! the fleet enforces a cluster cap), and its accounting — total time,
//! card energy, a rolling FNV-1a digest of every granted configuration,
//! and the cap telemetry the
//! [`ClusterGovernor`](crate::cluster::ClusterGovernor) water-fills on.
//! Each kernel also keeps a step memo of its last phase key's decision,
//! projections and grant, so a step whose phase and grant held takes no
//! plan lock at all. Everything a step touches is either session-local or
//! goes through the store's per-kernel locks, so stepping devices in
//! parallel is safe and their accounting is interleaving-independent.

use crate::cluster::DeviceDemand;
use crate::store::{PlanHandle, PlanStore, SharedOracleGovernor};
use harmonia::governor::{activity_of, CappedGovernor, Governor};
use harmonia_sim::{KernelProfile, SimResult};
use harmonia_types::{HwConfig, Joules, Seconds, Watts};
use harmonia_workloads::Application;

/// The per-device policy stack: the shared-store oracle, bare or under a
/// power-cap clamp. The session asks the store for the oracle's decision
/// through its own plan handles and hands it to the clamp's
/// [`grant`](CappedGovernor::grant), so neither variant's `decide` runs
/// on the hot path.
enum DeviceGovernor<'s, 'a> {
    Oracle(SharedOracleGovernor<'s, 'a>),
    Capped(CappedGovernor<'s, SharedOracleGovernor<'s, 'a>>),
}

/// What one device contributes to a tick's serial merge: its peak power
/// during the tick plus the demand telemetry the next re-balance
/// water-fills on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// Peak projected card power across the tick's invocations, watts.
    pub tick_power_w: f64,
    /// Cap telemetry for the next partition (capped fleets only).
    pub demand: DeviceDemand,
}

/// A device's final, deterministic accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device id (fleet index).
    pub id: usize,
    /// Device class (index into the store's registered classes).
    pub class: usize,
    /// Application the device ran.
    pub app: String,
    /// Governor stack name (reflects the final cap share when capped).
    pub governor: String,
    /// Total kernel execution time, seconds.
    pub total_time: Seconds,
    /// Total card energy, joules.
    pub card_energy: Joules,
    /// Energy·delay² over the whole session.
    pub ed2: f64,
    /// Decisions made (kernel invocations governed).
    pub decisions: u64,
    /// Device-local cap violations (the clamp's 5%-tolerance accounting).
    pub cap_violations: u64,
    /// FNV-1a digest of the granted configuration sequence.
    pub config_digest: u64,
    /// The device's final cap share, when the fleet ran capped.
    pub final_cap_w: Option<f64>,
}

/// One concurrent device session.
pub struct DeviceSession<'s, 'a> {
    id: usize,
    class: usize,
    app: Application,
    /// `app.kernels[i]`'s plan and step memo.
    kernels: Vec<KernelState>,
    governor: DeviceGovernor<'s, 'a>,
    store: &'s PlanStore<'a>,
    total_time: Seconds,
    card_energy: Joules,
    decisions: u64,
    digest: u64,
}

/// One kernel of the session's application.
struct KernelState {
    /// The kernel's plan, resolved once at construction. The kernel's
    /// fingerprint lives here rather than in the profile, whose fields
    /// are public and could change under a cached hash.
    plan: PlanHandle,
    /// What the kernel's last step computed; `None` before its first.
    memo: Option<StepMemo>,
}

/// The plan memo's and the sim cache's key for one invocation: the
/// phase scale's bit patterns, plus the iteration when the class model
/// is not phase-determined. Every value a [`StepMemo`] holds is a
/// function of it (and, for the grant part, of the granted config).
type PhaseKey = (u64, u64, u64);

/// One kernel's step, memoized for its phase key: a step whose key
/// matches replays all of it instead of asking the store again, and a
/// step whose grant also matches replays the granted simulation. A key
/// change or a grant change refreshes the memo through the store, so
/// every replayed value is bit-identical to a recomputed one.
struct StepMemo {
    key: PhaseKey,
    /// The plan's unconstrained ED²-optimal configuration.
    want: HwConfig,
    /// Projected card power at the class's grid floor, watts (capped
    /// sessions only, like the two terms below).
    floor_w: f64,
    /// Projected card power at `want`, watts.
    want_w: f64,
    /// ED² lost by running at the floor instead of at `want`: the
    /// marginal benefit the headroom buys.
    lost_ed2: f64,
    /// The last granted configuration under this key, `None` until the
    /// first grant.
    grant: Option<Grant>,
}

/// A granted configuration with its simulation and projected card power.
struct Grant {
    config: HwConfig,
    result: SimResult,
    card: Watts,
}

impl StepMemo {
    /// Decides `kernel` afresh for a new phase key through the store: the
    /// plan's decision and, under a cap, the floor and want projections
    /// the partition water-fills on.
    fn decide(
        store: &PlanStore<'_>,
        class: usize,
        plan: &PlanHandle,
        kernel: &KernelProfile,
        tick: u64,
        key: PhaseKey,
        capped: bool,
    ) -> Self {
        let desired = store.decide_with(plan, kernel, tick);
        let (mut floor_w, mut want_w, mut lost_ed2) = (0.0, 0.0, 0.0);
        if capped {
            // The floor sim is a cache hit whenever a cold sweep covered
            // the whole grid at this key.
            let (power, floor_cfg) = (store.power_of(class), store.floor_of(class));
            let floor = store.simulate_with(plan, kernel, floor_cfg, tick);
            floor_w = power.card_pwr(floor_cfg, &activity_of(&floor.counters)).value();
            want_w = power.card_pwr(desired.config, &activity_of(&desired.result.counters)).value();
            let t_f = floor.time.value();
            lost_ed2 = (floor_w * t_f * t_f * t_f - desired.objective).max(0.0);
        }
        Self {
            key,
            want: desired.config,
            floor_w,
            want_w,
            lost_ed2,
            grant: None,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut digest: u64, words: &[u64]) -> u64 {
    for &w in words {
        for shift in [0, 16, 32, 48] {
            digest ^= (w >> shift) & 0xffff;
            digest = digest.wrapping_mul(FNV_PRIME);
        }
    }
    digest
}

impl<'s, 'a> DeviceSession<'s, 'a> {
    /// An uncapped class-0 session: the shared oracle governs directly.
    pub fn oracle(id: usize, app: Application, store: &'s PlanStore<'a>) -> Self {
        Self::oracle_in_class(id, 0, app, store)
    }

    /// An uncapped session of device class `class`.
    pub fn oracle_in_class(id: usize, class: usize, app: Application, store: &'s PlanStore<'a>) -> Self {
        Self::build(
            id,
            class,
            app,
            store,
            DeviceGovernor::Oracle(SharedOracleGovernor::for_class(store, class)),
        )
    }

    /// A capped class-0 session: the shared oracle under a
    /// [`CappedGovernor`] clamp at the device's initial cap share.
    pub fn capped(id: usize, app: Application, store: &'s PlanStore<'a>, cap: Watts) -> Self {
        Self::capped_in_class(id, 0, app, store, cap)
    }

    /// A capped session of device class `class`: the clamp projects power
    /// with that class's power model and steps along its grid.
    pub fn capped_in_class(
        id: usize,
        class: usize,
        app: Application,
        store: &'s PlanStore<'a>,
        cap: Watts,
    ) -> Self {
        let clamp = CappedGovernor::new(
            SharedOracleGovernor::for_class(store, class),
            store.power_of(class),
            cap,
        );
        Self::build(id, class, app, store, DeviceGovernor::Capped(clamp))
    }

    fn build(
        id: usize,
        class: usize,
        app: Application,
        store: &'s PlanStore<'a>,
        governor: DeviceGovernor<'s, 'a>,
    ) -> Self {
        let kernels = app
            .kernels
            .iter()
            .map(|k| KernelState { plan: store.handle(class, k), memo: None })
            .collect();
        Self {
            id,
            class,
            app,
            kernels,
            governor,
            store,
            total_time: Seconds(0.0),
            card_energy: Joules(0.0),
            decisions: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Device id (fleet index).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The session's device class.
    pub fn class(&self) -> usize {
        self.class
    }

    /// Re-targets the device's cap share (no-op for uncapped sessions).
    /// Called by the scheduler's serial re-balance phase.
    pub fn set_cap(&mut self, cap: Watts) {
        if let DeviceGovernor::Capped(g) = &mut self.governor {
            g.set_cap(cap);
        }
    }

    /// Runs one invocation of every kernel in the device's application at
    /// iteration `tick`, accumulating time/energy/digest and returning the
    /// tick's merge contribution. Safe to call from any pool worker: all
    /// shared state goes through the store's per-kernel locks.
    ///
    /// A kernel whose phase key still matches its step memo replays the
    /// decision and the floor/want projections from it, and — while the
    /// clamp keeps its grant — the granted simulation and card power too.
    pub fn step(&mut self, tick: u64) -> TickOutcome {
        let store = self.store;
        let power = store.power_of(self.class);
        let phase_determined = store.phase_determined(self.class);
        let capped = matches!(self.governor, DeviceGovernor::Capped(_));
        let mut tick_power = 0.0_f64;
        let mut demand = DeviceDemand { floor: 0.0, demand: 0.0, weight: 0.0 };
        let mut benefit = 0.0_f64;
        let kernels = self.app.kernels.iter().zip(&mut self.kernels);
        for (ki, (kernel, state)) in kernels.enumerate() {
            // The plan memo's and the sim cache's key: everything the
            // decision and every simulation of this invocation depend on.
            let scale = kernel.phase.scale_for(tick);
            let key = (
                scale.compute.to_bits(),
                scale.memory.to_bits(),
                if phase_determined { 0 } else { tick },
            );
            let memo = match &mut state.memo {
                Some(memo) if memo.key == key => memo,
                stale => stale.insert(StepMemo::decide(
                    store, self.class, &state.plan, kernel, tick, key, capped,
                )),
            };
            // The unconstrained optimum is the oracle's grant, and under a
            // cap the clamp's input.
            let granted = match &mut self.governor {
                DeviceGovernor::Oracle(_) => memo.want,
                DeviceGovernor::Capped(g) => g.grant(kernel, tick, memo.want),
            };
            let grant = match &mut memo.grant {
                Some(grant) if grant.config == granted => grant,
                stale => {
                    let result = store.simulate_with(&state.plan, kernel, granted, tick);
                    let card = power.card_pwr(granted, &activity_of(&result.counters));
                    stale.insert(Grant { config: granted, result, card })
                }
            };
            let dt = grant.result.time;
            self.total_time += dt;
            self.card_energy += grant.card * dt;
            tick_power = tick_power.max(grant.card.value());
            self.digest = fnv(
                self.digest,
                &[
                    ki as u64,
                    u64::from(granted.compute.cu_count()),
                    u64::from(granted.compute.freq().value()),
                    u64::from(granted.memory.bus_freq().value()),
                ],
            );
            self.decisions += 1;
            // The shared oracle observes nothing; only the clamp learns.
            if let DeviceGovernor::Capped(g) = &mut self.governor {
                g.observe_projected(kernel, tick, granted, &grant.result.counters, grant.card);
                demand.floor = demand.floor.max(memo.floor_w);
                demand.demand = demand.demand.max(memo.want_w);
                benefit += memo.lost_ed2;
            }
        }
        let gap = demand.demand - demand.floor;
        demand.weight = if gap > 0.0 { (benefit / gap).max(0.0) } else { 0.0 };
        TickOutcome { tick_power_w: tick_power, demand }
    }

    /// The device's final accounting. The cap-violation count is the
    /// clamp's own 5%-tolerance ledger; uncapped sessions report zero.
    pub fn report(&self) -> DeviceReport {
        let (governor, cap_violations, final_cap_w) = match &self.governor {
            DeviceGovernor::Oracle(g) => (g.name().to_string(), 0, None),
            DeviceGovernor::Capped(g) => {
                (g.name().to_string(), g.cap_violations(), Some(g.cap().value()))
            }
        };
        DeviceReport {
            id: self.id,
            class: self.class,
            app: self.app.name.clone(),
            governor,
            total_time: self.total_time,
            card_energy: self.card_energy,
            ed2: self.card_energy.value() * self.total_time.value() * self.total_time.value(),
            decisions: self.decisions,
            cap_violations,
            config_digest: self.digest,
            final_cap_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_power::{Activity, PowerModel};
    use harmonia_sim::IntervalModel;
    use harmonia_workloads::suite;

    #[test]
    fn an_uncapped_step_accumulates_time_energy_and_digest() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let mut dev = DeviceSession::oracle(0, suite::stencil(), &store);
        let out = dev.step(0);
        assert!(out.tick_power_w > 0.0);
        let r = dev.report();
        assert!(r.total_time.value() > 0.0);
        assert!(r.card_energy.value() > 0.0);
        assert_eq!(r.decisions, suite::stencil().kernels.len() as u64);
        assert_ne!(r.config_digest, FNV_OFFSET);
        assert_eq!(r.final_cap_w, None);
        assert_eq!(r.cap_violations, 0);
    }

    #[test]
    fn identical_devices_produce_identical_reports() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let mut a = DeviceSession::oracle(0, suite::stencil(), &store);
        let mut b = DeviceSession::oracle(1, suite::stencil(), &store);
        for tick in 0..4 {
            a.step(tick);
            b.step(tick);
        }
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.total_time.value().to_bits(), rb.total_time.value().to_bits());
        assert_eq!(ra.card_energy.value().to_bits(), rb.card_energy.value().to_bits());
        assert_eq!(ra.ed2.to_bits(), rb.ed2.to_bits());
        assert_eq!(ra.config_digest, rb.config_digest);
    }

    #[test]
    fn a_tight_cap_shows_up_in_power_and_telemetry() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let mut free = DeviceSession::oracle(0, suite::maxflops(), &store);
        let mut tight = DeviceSession::capped(1, suite::maxflops(), &store, Watts(120.0));
        let free_out = free.step(0);
        let tight_out = tight.step(0);
        assert!(
            tight_out.tick_power_w < free_out.tick_power_w,
            "clamped device must draw less: {} vs {}",
            tight_out.tick_power_w,
            free_out.tick_power_w
        );
        let d = tight_out.demand;
        assert!(d.floor > 0.0 && d.demand > d.floor, "telemetry: {d:?}");
        assert!(d.weight >= 0.0);
        assert!(tight.report().final_cap_w == Some(120.0));
    }

    /// A session stepped the way it was before plan handles: every lookup
    /// keyed by (class, kernel), and under a cap the oracle decides twice —
    /// once as demand telemetry, once inside the clamp's `decide`.
    struct KeyedSession<'s, 'a> {
        class: usize,
        app: Application,
        store: &'s PlanStore<'a>,
        clamp: Option<CappedGovernor<'s, SharedOracleGovernor<'s, 'a>>>,
        total_time: Seconds,
        card_energy: Joules,
        decisions: u64,
        digest: u64,
    }

    impl<'s, 'a> KeyedSession<'s, 'a> {
        fn new(
            class: usize,
            app: Application,
            store: &'s PlanStore<'a>,
            cap: Option<Watts>,
        ) -> Self {
            let oracle = SharedOracleGovernor::for_class(store, class);
            Self {
                class,
                app,
                store,
                clamp: cap.map(|cap| CappedGovernor::new(oracle, store.power_of(class), cap)),
                total_time: Seconds(0.0),
                card_energy: Joules(0.0),
                decisions: 0,
                digest: FNV_OFFSET,
            }
        }

        fn step(&mut self, tick: u64) -> TickOutcome {
            let (store, class) = (self.store, self.class);
            let power = store.power_of(class);
            let floor_cfg = store.floor_of(class);
            let act = |r: &harmonia_sim::SimResult| Activity {
                valu_activity: r.counters.valu_activity(),
                dram_bytes_per_sec: r.counters.dram_bytes_per_sec(),
                dram_traffic_fraction: r.counters.ic_activity,
            };
            let mut tick_power = 0.0_f64;
            let (mut floor, mut want, mut benefit) = (0.0_f64, 0.0_f64, 0.0_f64);
            for (ki, kernel) in self.app.kernels.iter().enumerate() {
                let desired = store.decide_for(class, kernel, tick);
                let granted = match &mut self.clamp {
                    Some(g) => g.decide(kernel, tick),
                    None => SharedOracleGovernor::for_class(store, class).decide(kernel, tick),
                };
                let result = store.simulate_for(class, kernel, granted, tick);
                let card = power.breakdown(granted, &act(&result)).card_pwr();
                self.total_time += result.time;
                self.card_energy += card * result.time;
                tick_power = tick_power.max(card.value());
                let (cu, f) = (granted.compute.cu_count(), granted.compute.freq().value());
                let words = [
                    ki as u64,
                    cu.into(),
                    f.into(),
                    granted.memory.bus_freq().value().into(),
                ];
                self.digest = fnv(self.digest, &words);
                self.decisions += 1;
                if let Some(g) = &mut self.clamp {
                    g.observe(kernel, tick, granted, &result.counters);
                    let floor_res = store.simulate_for(class, kernel, floor_cfg, tick);
                    let p_floor = power.card_pwr(floor_cfg, &act(&floor_res)).value();
                    let p_want = power.card_pwr(desired.config, &act(&desired.result));
                    floor = floor.max(p_floor);
                    want = want.max(p_want.value());
                    let t_f = floor_res.time.value();
                    benefit += (p_floor * t_f * t_f * t_f - desired.objective).max(0.0);
                }
            }
            let gap = want - floor;
            let weight = if gap > 0.0 {
                (benefit / gap).max(0.0)
            } else {
                0.0
            };
            let demand = DeviceDemand {
                floor,
                demand: want,
                weight,
            };
            TickOutcome {
                tick_power_w: tick_power,
                demand,
            }
        }

        fn report(&self, id: usize) -> DeviceReport {
            let oracle = SharedOracleGovernor::for_class(self.store, self.class);
            let (time, energy) = (self.total_time.value(), self.card_energy.value());
            DeviceReport {
                id,
                class: self.class,
                app: self.app.name.clone(),
                governor: self
                    .clamp
                    .as_ref()
                    .map_or(oracle.name(), |g| g.name())
                    .to_string(),
                total_time: self.total_time,
                card_energy: self.card_energy,
                ed2: energy * time * time,
                decisions: self.decisions,
                cap_violations: self.clamp.as_ref().map_or(0, |g| g.cap_violations()),
                config_digest: self.digest,
                final_cap_w: self.clamp.as_ref().map(|g| g.cap().value()),
            }
        }
    }

    fn outcome_bits(o: &TickOutcome) -> [u64; 4] {
        [
            o.tick_power_w,
            o.demand.floor,
            o.demand.demand,
            o.demand.weight,
        ]
        .map(f64::to_bits)
    }

    fn report_bits(r: &DeviceReport) -> [u64; 3] {
        [r.total_time.value(), r.card_energy.value(), r.ed2].map(f64::to_bits)
    }

    /// Steps a memoized session beside a [`KeyedSession`] for `caps.len()`
    /// ticks and pins every outcome, the final report, and how often the
    /// session asks the plan: once per kernel on its first step and on
    /// every phase-key change, never on a tick whose key held.
    fn assert_steps_match(
        store: &PlanStore<'_>,
        class: usize,
        app: &Application,
        cap: Option<Watts>,
        caps: &[Watts],
        label: &str,
    ) {
        let mut keyed = KeyedSession::new(class, app.clone(), store, cap);
        let mut session = match cap {
            Some(w) => DeviceSession::capped_in_class(3, class, app.clone(), store, w),
            None => DeviceSession::oracle_in_class(3, class, app.clone(), store),
        };
        let phase_determined = store.phase_determined(class);
        for (tick, &w) in (0u64..).zip(caps) {
            if let Some(g) = &mut keyed.clamp {
                g.set_cap(w);
            }
            session.set_cap(w);
            let want = keyed.step(tick);
            let asked_before = store.plan_stats().memo_hits;
            let got = session.step(tick);
            let asked = store.plan_stats().memo_hits - asked_before;
            assert_eq!(outcome_bits(&got), outcome_bits(&want), "{label} tick {tick}");
            let key_moves = app
                .kernels
                .iter()
                .filter(|k| {
                    tick == 0
                        || !phase_determined
                        || k.phase.scale_for(tick) != k.phase.scale_for(tick - 1)
                })
                .count();
            assert_eq!(asked, key_moves, "{label} tick {tick}: plan asks");
        }
        let (got, want) = (session.report(), keyed.report(3));
        assert_eq!(got, want, "{label}");
        assert_eq!(report_bits(&got), report_bits(&want), "{label}");
    }

    #[test]
    fn handle_steps_match_keyed_steps_bit_for_bit() {
        use harmonia_types::DeviceSpec;
        let hd = IntervalModel::default();
        let hd_power = PowerModel::for_device(&"hd7970".parse().expect("a catalog device"));
        let v100 = DeviceSpec::v100();
        let v100_model = IntervalModel::new(v100.gpu);
        let v100_power = PowerModel::for_device(&v100);
        let mut store = PlanStore::new(&hd, &hd_power);
        let v100_class = store.add_class(&v100_model, &v100_power);
        // Two of Graph500's eight-step phase cycles, under a cap that
        // moves every tick through binding and slack shares, and under
        // one that flips the grant back and forth.
        let moving = [120.0, 260.0, 90.0, 150.0, 400.0, 110.0, 180.0].map(Watts);
        let moving: Vec<Watts> = moving.iter().copied().cycle().take(16).collect();
        let flipping: Vec<Watts> = (0..16)
            .map(|t| Watts(if t % 2 == 0 { 110.0 } else { 400.0 }))
            .collect();
        for class in [0, v100_class] {
            for app in [suite::maxflops(), suite::graph500(), suite::lud()] {
                for cap in [None, Some(moving[0])] {
                    for (caps, name) in [(&moving, "moving"), (&flipping, "flipping")] {
                        let label = format!("class {class} {} cap {cap:?} {name}", app.name);
                        assert_steps_match(&store, class, &app, cap, caps, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn a_flipping_grant_re_simulates_and_a_held_grant_does_not() {
        let model = IntervalModel::default();
        let power = PowerModel::for_device(&"hd7970".parse().expect("a catalog device"));
        let store = PlanStore::new(&model, &power);
        let app = suite::maxflops();
        let mut session = DeviceSession::capped(0, app.clone(), &store, Watts(110.0));
        session.step(0);
        let lookups = || {
            let c = store.cache_stats();
            c.hits + c.misses
        };
        // maxflops is phase-stable: only a grant change reaches the cache.
        for (tick, cap, resims) in [(1, 400.0, true), (2, 400.0, false), (3, 110.0, true)] {
            session.set_cap(Watts(cap));
            let before = lookups();
            session.step(tick);
            let sims = lookups() - before;
            assert_eq!(sims, if resims { app.kernels.len() } else { 0 }, "tick {tick}");
        }
    }

    #[test]
    fn a_model_that_is_not_phase_determined_refreshes_every_tick() {
        use harmonia_sim::NoisyModel;
        let noisy = NoisyModel::new(IntervalModel::default(), 0.05, 3);
        let power = PowerModel::for_device(&"hd7970".parse().expect("a catalog device"));
        let store = PlanStore::new(&noisy, &power);
        assert!(!store.phase_determined(0));
        let caps: Vec<Watts> = (0..6).map(|t| Watts(if t % 3 == 0 { 110.0 } else { 300.0 })).collect();
        for app in [suite::maxflops(), suite::graph500()] {
            for cap in [None, Some(caps[0])] {
                let label = format!("noisy {} cap {cap:?}", app.name);
                assert_steps_match(&store, 0, &app, cap, &caps, &label);
            }
        }
    }
}
