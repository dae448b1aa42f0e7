//! Typed scenario specification: the composable front door of the
//! co-simulation.
//!
//! A [`ScenarioSpec`] names *what* to simulate — stack geometry (preset
//! tier counts or a custom [`Stack3d`]), cooling medium (air, single-phase
//! water, two-phase refrigerant), thermal grid, workload, policy, an
//! optional [`FlowSchedule`] overriding the policy's pump commands,
//! duration and seed — and validates the combination **at build time**,
//! so a mismatched policy/coolant pair or a ragged custom trace fails with
//! a [`CmosaicError::Config`] before any matrix is assembled, instead of
//! deep inside `Simulator::new`.
//!
//! [`ScenarioSpec::build`] resolves the spec into a [`Scenario`]: stack
//! constructed, trace generated, simulation config frozen. A `Scenario`
//! runs directly ([`Scenario::run`], [`Scenario::run_observed`]) or as one
//! cell of a [`Study`](crate::study::Study) matrix executed by the
//! [`BatchRunner`](crate::batch::BatchRunner).
//!
//! ```
//! use cmosaic::scenario::ScenarioSpec;
//! use cmosaic::policy::PolicyKind;
//! use cmosaic_power::trace::WorkloadKind;
//!
//! # fn main() -> Result<(), cmosaic::CmosaicError> {
//! let metrics = ScenarioSpec::new()
//!     .tiers(2)
//!     .policy(PolicyKind::LcFuzzy)
//!     .workload(WorkloadKind::WebServer)
//!     .seconds(30)
//!     .seed(1)
//!     .build()?
//!     .run()?;
//! assert!(metrics.peak_temperature.to_celsius().0 < 85.0);
//! # Ok(())
//! # }
//! ```

use cmosaic_floorplan::plan::ElementKind;
use cmosaic_floorplan::stack::{presets, Stack3d};
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::{Celsius, VolumetricFlow};
use cmosaic_power::trace::{WorkloadKind, WorkloadTrace};
use cmosaic_power::AllocatorPreset;
use cmosaic_thermal::{Coolant, SolverBackend, ThermalParams, TwoPhaseCoolant};

use crate::fault::FaultPlan;
use crate::metrics::RunMetrics;
use crate::observe::Observer;
use crate::policy::{make_policy, PolicyKind};
use crate::sim::{SimConfig, Simulator};
use crate::CmosaicError;

/// The cooling medium of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum CoolantChoice {
    /// Back-side air cooling through a lumped heat sink (no cavities).
    Air,
    /// Single-phase water through inter-tier micro-channel cavities; the
    /// flow rate is set at run time by the policy or a [`FlowSchedule`].
    Water,
    /// Two-phase refrigerant through the cavities (§III); the operating
    /// point is fixed, so flow commands are ignored.
    TwoPhase(TwoPhaseCoolant),
}

impl CoolantChoice {
    /// `true` for the cavity-based (liquid) cooling media.
    pub fn is_liquid(&self) -> bool {
        !matches!(self, CoolantChoice::Air)
    }
}

impl std::fmt::Display for CoolantChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoolantChoice::Air => "air",
            CoolantChoice::Water => "water",
            CoolantChoice::TwoPhase(_) => "two-phase",
        })
    }
}

/// Stack geometry of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum StackChoice {
    /// The paper's alternating core/cache Niagara preset with `tiers`
    /// tiers; the cooling structure follows the scenario's
    /// [`CoolantChoice`].
    Preset {
        /// Number of tiers (2 and 4 in the paper, any positive count
        /// works).
        tiers: usize,
    },
    /// An explicit user-built stack (its cavity/sink structure must match
    /// the coolant choice).
    Custom(Stack3d),
}

/// Workload of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// A synthetic benchmark-class trace, generated deterministically from
    /// the scenario seed for exactly the scenario duration.
    Synthetic(WorkloadKind),
    /// A recorded (or otherwise precomputed) per-core utilization trace;
    /// wraps around if the scenario outlives it.
    Trace(WorkloadTrace),
}

/// A per-second coolant-flow override applied on top of the policy's
/// decisions — the axis that turns a closed-loop controller study into an
/// open-loop flow-design sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FlowSchedule {
    /// No override: the policy owns the pump (default).
    #[default]
    Policy,
    /// Constant per-cavity flow for the whole run.
    Fixed(VolumetricFlow),
    /// Piecewise-constant steps of `(seconds, flow)`, repeated cyclically.
    Cycle(Vec<(usize, VolumetricFlow)>),
    /// Continuous triangle-wave modulation between `lo` and `hi` over
    /// `period` seconds — every interval visits a slightly different flow,
    /// the regime that exercises the bounded operator caches hardest.
    Sweep {
        /// Lowest flow (start of each period).
        lo: VolumetricFlow,
        /// Highest flow (mid-period).
        hi: VolumetricFlow,
        /// Seconds per full low→high→low excursion.
        period: usize,
    },
}

impl FlowSchedule {
    /// `true` when the waveform has no well-defined value at any instant:
    /// a [`FlowSchedule::Cycle`] whose steps sum to zero seconds
    /// (including the empty cycle) or a [`FlowSchedule::Sweep`] with a
    /// zero period.
    ///
    /// [`ScenarioSpec::build`] rejects degenerate schedules outright, so
    /// validated scenarios never carry one. `flow_at` is nevertheless
    /// callable on *unvalidated* schedules (a `Simulator` can be handed
    /// one directly); both degenerate shapes then take the same documented
    /// path — no override, the policy keeps the pump — rather than
    /// panicking or each inventing its own behaviour.
    pub fn is_degenerate(&self) -> bool {
        match self {
            FlowSchedule::Policy | FlowSchedule::Fixed(_) => false,
            FlowSchedule::Cycle(steps) => steps.iter().map(|(s, _)| s).sum::<usize>() == 0,
            FlowSchedule::Sweep { period, .. } => *period == 0,
        }
    }

    /// The flow override for control interval `t`.
    ///
    /// # Contract
    ///
    /// `None` means "the policy's pump command stays in force". That is
    /// the answer for [`FlowSchedule::Policy`] always, and — deliberately,
    /// see [`FlowSchedule::is_degenerate`] — for degenerate `Cycle`/
    /// `Sweep` specs that slipped past validation: policy fallback on a
    /// malformed schedule is the defined behaviour, not an accident of
    /// the arithmetic.
    pub fn flow_at(&self, t: usize) -> Option<VolumetricFlow> {
        match self {
            FlowSchedule::Policy => None,
            FlowSchedule::Fixed(q) => Some(*q),
            FlowSchedule::Cycle(steps) => {
                let total: usize = steps.iter().map(|(s, _)| s).sum();
                if total == 0 {
                    // Degenerate (`is_degenerate`): no override.
                    return None;
                }
                let mut tt = t % total;
                for (secs, q) in steps {
                    if tt < *secs {
                        return Some(*q);
                    }
                    tt -= secs;
                }
                unreachable!("cycle walk is bounded by the total duration")
            }
            FlowSchedule::Sweep { lo, hi, period } => {
                if *period == 0 {
                    // Degenerate (`is_degenerate`): no override.
                    return None;
                }
                let frac = (t % period) as f64 / *period as f64;
                let tri = 1.0 - (2.0 * frac - 1.0).abs();
                Some(VolumetricFlow(lo.0 + (hi.0 - lo.0) * tri))
            }
        }
    }

    /// `true` when the schedule never overrides the policy.
    pub fn is_policy(&self) -> bool {
        matches!(self, FlowSchedule::Policy)
    }

    fn validate(&self) -> Result<(), CmosaicError> {
        let bad = |detail: String| Err(CmosaicError::Config { detail });
        let check_flow = |q: VolumetricFlow| -> Result<(), CmosaicError> {
            if q.0 > 0.0 && q.0.is_finite() {
                Ok(())
            } else {
                bad(format!("flow-schedule rate must be positive, got {q}"))
            }
        };
        // The degeneracy test is shared with `flow_at`, so validation and
        // the unvalidated-call fallback can never drift apart.
        if self.is_degenerate() {
            return bad(format!(
                "degenerate flow schedule (zero total duration): {self:?}"
            ));
        }
        match self {
            FlowSchedule::Policy => Ok(()),
            FlowSchedule::Fixed(q) => check_flow(*q),
            FlowSchedule::Cycle(steps) => steps.iter().try_for_each(|&(_, q)| check_flow(q)),
            FlowSchedule::Sweep { lo, hi, period } => {
                check_flow(*lo)?;
                check_flow(*hi)?;
                if hi.0 < lo.0 {
                    return bad(format!("flow sweep needs lo <= hi, got {lo} > {hi}"));
                }
                if *period < 2 {
                    return bad(format!("flow sweep period must be >= 2 s, got {period}"));
                }
                Ok(())
            }
        }
    }
}

/// A complete, not-yet-validated description of one co-simulation.
///
/// Construct with [`ScenarioSpec::new`], refine with the chainable
/// setters, then [`build`](ScenarioSpec::build) to validate. The default
/// spec reproduces the paper's baseline experiment: a 2-tier water-cooled
/// stack under `LC_FUZZY` on the web-server workload, 12×12 grid, 120 s,
/// seed 42.
#[derive(Clone, PartialEq)]
pub struct ScenarioSpec {
    label: Option<String>,
    stack: StackChoice,
    coolant: CoolantChoice,
    grid: GridSpec,
    workload: WorkloadSource,
    policy: PolicyKind,
    flow_schedule: FlowSchedule,
    solver: SolverBackend,
    seconds: usize,
    seed: u64,
    thermal_dt: f64,
    control_interval: f64,
    threshold: Celsius,
    sensor_noise_std: f64,
    sensor_seed: u64,
    fault_plan: FaultPlan,
    allocator: AllocatorPreset,
}

/// Fingerprint-stability contract: [`ScenarioSpec::fingerprint`] hashes
/// this rendering, and fingerprints are cross-process cache keys and
/// checkpoint identities. The impl therefore replicates the *derived*
/// rendering for the original fields in declared order, and appends later
/// additions (`allocator`) **only when they differ from their default** —
/// so every spec expressible before an addition keeps its exact
/// fingerprint, while specs exercising the new axis get distinct ones.
/// Extend the same way: append new fields conditionally, at the end.
impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ScenarioSpec");
        d.field("label", &self.label)
            .field("stack", &self.stack)
            .field("coolant", &self.coolant)
            .field("grid", &self.grid)
            .field("workload", &self.workload)
            .field("policy", &self.policy)
            .field("flow_schedule", &self.flow_schedule)
            .field("solver", &self.solver)
            .field("seconds", &self.seconds)
            .field("seed", &self.seed)
            .field("thermal_dt", &self.thermal_dt)
            .field("control_interval", &self.control_interval)
            .field("threshold", &self.threshold)
            .field("sensor_noise_std", &self.sensor_noise_std)
            .field("sensor_seed", &self.sensor_seed)
            .field("fault_plan", &self.fault_plan);
        if self.allocator != AllocatorPreset::default() {
            d.field("allocator", &self.allocator);
        }
        d.finish()
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        let sim = SimConfig::default();
        ScenarioSpec {
            label: None,
            stack: StackChoice::Preset { tiers: 2 },
            coolant: CoolantChoice::Water,
            grid: sim.grid,
            workload: WorkloadSource::Synthetic(WorkloadKind::WebServer),
            policy: PolicyKind::LcFuzzy,
            flow_schedule: FlowSchedule::Policy,
            solver: SolverBackend::DirectLu,
            seconds: 120,
            seed: 42,
            thermal_dt: sim.thermal_dt,
            control_interval: sim.control_interval,
            threshold: sim.threshold,
            sensor_noise_std: sim.sensor_noise_std,
            sensor_seed: sim.sensor_seed,
            fault_plan: FaultPlan::default(),
            allocator: AllocatorPreset::default(),
        }
    }
}

/// Incremental FNV-1a — the one hashing primitive behind spec
/// fingerprints and the checkpoint journal's study binding, so every
/// identity in the system derives from the same bytes-in/u64-out
/// function.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl ScenarioSpec {
    /// The paper-baseline spec (see the type docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the auto-derived label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Uses the alternating core/cache Niagara preset with `tiers` tiers.
    pub fn tiers(mut self, tiers: usize) -> Self {
        self.stack = StackChoice::Preset { tiers };
        self
    }

    /// Uses an explicit custom stack.
    pub fn stack(mut self, stack: Stack3d) -> Self {
        self.stack = StackChoice::Custom(stack);
        self
    }

    /// Selects the cooling medium.
    pub fn coolant(mut self, coolant: CoolantChoice) -> Self {
        self.coolant = coolant;
        self
    }

    /// Shorthand for [`CoolantChoice::Air`].
    pub fn air(self) -> Self {
        self.coolant(CoolantChoice::Air)
    }

    /// Shorthand for [`CoolantChoice::Water`].
    pub fn water(self) -> Self {
        self.coolant(CoolantChoice::Water)
    }

    /// Shorthand for [`CoolantChoice::TwoPhase`].
    pub fn two_phase(self, op: TwoPhaseCoolant) -> Self {
        self.coolant(CoolantChoice::TwoPhase(op))
    }

    /// Sets the thermal grid.
    pub fn grid(mut self, grid: GridSpec) -> Self {
        self.grid = grid;
        self
    }

    /// Uses a synthetic benchmark-class workload.
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.workload = WorkloadSource::Synthetic(kind);
        self
    }

    /// Uses a recorded per-core utilization trace.
    pub fn trace(mut self, trace: WorkloadTrace) -> Self {
        self.workload = WorkloadSource::Trace(trace);
        self
    }

    /// Selects the run-time policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a coolant-flow override schedule.
    pub fn flow_schedule(mut self, schedule: FlowSchedule) -> Self {
        self.flow_schedule = schedule;
        self
    }

    /// Selects the thermal linear-solver backend (default
    /// [`SolverBackend::DirectLu`]; see the [`SolverBackend`] docs for
    /// when the multigrid backend wins and its automatic direct
    /// fallback).
    pub fn solver(mut self, backend: SolverBackend) -> Self {
        self.solver = backend;
        self
    }

    /// Sets the simulated duration in seconds.
    pub fn seconds(mut self, seconds: usize) -> Self {
        self.seconds = seconds;
        self
    }

    /// Sets the trace seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thermal integration step (default 0.25 s).
    pub fn thermal_dt(mut self, dt: f64) -> Self {
        self.thermal_dt = dt;
        self
    }

    /// Sets the control/trace interval (default 1 s).
    pub fn control_interval(mut self, interval: f64) -> Self {
        self.control_interval = interval;
        self
    }

    /// Sets the hot-spot threshold (default 85 °C).
    pub fn threshold(mut self, threshold: Celsius) -> Self {
        self.threshold = threshold;
        self
    }

    /// Adds Gaussian sensor noise of the given σ (kelvin) to the readings
    /// the policy sees, from an independent seed.
    pub fn sensor_noise(mut self, std: f64, seed: u64) -> Self {
        self.sensor_noise_std = std;
        self.sensor_seed = seed;
        self
    }

    /// Schedules deterministic injected faults (test harness; see
    /// [`FaultPlan`]). The default plan is empty and injects nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Selects the per-block power allocator preset (default
    /// [`AllocatorPreset::Niagara`]) — the calibration that prices every
    /// block kind, including heterogeneous DRAM/accelerator tiers.
    pub fn allocator(mut self, preset: AllocatorPreset) -> Self {
        self.allocator = preset;
        self
    }

    // ---- Inspection (what Study axes and aggregators match on).

    /// The preset tier count, or `None` for a custom stack.
    pub fn preset_tiers(&self) -> Option<usize> {
        match self.stack {
            StackChoice::Preset { tiers } => Some(tiers),
            StackChoice::Custom(_) => None,
        }
    }

    /// The stack choice.
    pub fn stack_choice(&self) -> &StackChoice {
        &self.stack
    }

    /// The cooling medium.
    pub fn coolant_choice(&self) -> &CoolantChoice {
        &self.coolant
    }

    /// The thermal grid.
    pub fn grid_spec(&self) -> GridSpec {
        self.grid
    }

    /// The workload class (the recorded trace's tag for custom traces).
    pub fn workload_kind(&self) -> WorkloadKind {
        match &self.workload {
            WorkloadSource::Synthetic(kind) => *kind,
            WorkloadSource::Trace(trace) => trace.kind(),
        }
    }

    /// The policy under test.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy
    }

    /// The flow-override schedule.
    pub fn flow_schedule_spec(&self) -> &FlowSchedule {
        &self.flow_schedule
    }

    /// The thermal solver backend.
    pub fn solver_backend(&self) -> SolverBackend {
        self.solver
    }

    /// The per-block power allocator preset.
    pub fn allocator_preset(&self) -> AllocatorPreset {
        self.allocator
    }

    /// Simulated seconds.
    pub fn duration(&self) -> usize {
        self.seconds
    }

    /// Trace seed.
    pub fn trace_seed(&self) -> u64 {
        self.seed
    }

    /// The label the scenario will report: the explicit one if set,
    /// otherwise derived from the axes.
    pub fn display_label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let stack = match &self.stack {
            StackChoice::Preset { tiers } => format!("{tiers}-tier"),
            StackChoice::Custom(s) => s.name().to_string(),
        };
        let mut label = format!(
            "{stack}/{}/{}/{}",
            self.coolant,
            self.policy,
            self.workload_kind()
        );
        if !self.flow_schedule.is_policy() {
            label.push_str(match self.flow_schedule {
                FlowSchedule::Fixed(_) => "/fixed-flow",
                FlowSchedule::Cycle(_) => "/cycled-flow",
                FlowSchedule::Sweep { .. } => "/swept-flow",
                FlowSchedule::Policy => unreachable!("guarded by is_policy"),
            });
        }
        if self.solver.is_iterative() {
            label.push_str("/bicgstab-mg");
        }
        label
    }

    /// A stable 64-bit fingerprint of the spec: FNV-1a over its debug
    /// rendering, so any field change — axes, seeds, duration, fault
    /// plans — yields a different value. This is the single identity used
    /// both by the checkpoint journal (see
    /// [`checkpoint::fingerprint`](crate::checkpoint::fingerprint), which
    /// folds the per-spec values) and as the cache/memoization key for
    /// services executing specs: after a run, the outcome is a pure
    /// bitwise function of the spec, so equal fingerprints of honest
    /// specs mean interchangeable results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(format!("{self:?}").as_bytes());
        h.finish()
    }

    /// Validates the spec and resolves it into a runnable [`Scenario`].
    ///
    /// # Errors
    ///
    /// [`CmosaicError::Config`] for every cross-field inconsistency:
    /// policy/coolant cooling-mode mismatch, a custom stack whose
    /// cavity/sink structure contradicts the coolant, a custom trace with
    /// the wrong core count, a flow schedule on a stack whose flow is not
    /// adjustable, non-positive timing parameters, or a zero-length run.
    /// Stack-construction errors are forwarded.
    pub fn build(&self) -> Result<Scenario, CmosaicError> {
        let config = |detail: String| CmosaicError::Config { detail };
        if self.seconds == 0 {
            return Err(config("scenario duration must be at least 1 s".into()));
        }
        if !(self.thermal_dt > 0.0 && self.thermal_dt.is_finite()) {
            return Err(config(format!(
                "thermal step must be positive, got {}",
                self.thermal_dt
            )));
        }
        if !(self.control_interval > 0.0 && self.control_interval.is_finite()) {
            return Err(config(format!(
                "control interval must be positive, got {}",
                self.control_interval
            )));
        }
        if self.sensor_noise_std < 0.0 || !self.sensor_noise_std.is_finite() {
            return Err(config(format!(
                "sensor-noise sigma must be finite and non-negative, got {}",
                self.sensor_noise_std
            )));
        }
        if self.policy.is_liquid_cooled() != self.coolant.is_liquid() {
            return Err(config(format!(
                "policy {} does not match {} cooling",
                self.policy, self.coolant
            )));
        }
        self.flow_schedule.validate()?;
        if !self.flow_schedule.is_policy() {
            match &self.coolant {
                CoolantChoice::Air => {
                    return Err(config(
                        "a flow schedule needs cavities; the scenario is air-cooled".into(),
                    ));
                }
                CoolantChoice::TwoPhase(_) => {
                    return Err(config(
                        "two-phase operation fixes the mass flux; a flow schedule cannot \
                         modulate it"
                            .into(),
                    ));
                }
                CoolantChoice::Water => {}
            }
        }

        let stack = match &self.stack {
            StackChoice::Preset { tiers } => {
                if self.coolant.is_liquid() {
                    presets::liquid_cooled_mpsoc(*tiers)?
                } else {
                    presets::air_cooled_mpsoc(*tiers)?
                }
            }
            StackChoice::Custom(stack) => {
                if stack.is_liquid_cooled() != self.coolant.is_liquid() {
                    return Err(config(format!(
                        "custom stack `{}` is {}, but the scenario selects {} cooling",
                        stack.name(),
                        if stack.is_liquid_cooled() {
                            "liquid-cooled"
                        } else {
                            "air-cooled"
                        },
                        self.coolant
                    )));
                }
                stack.clone()
            }
        };

        let n_cores: usize = stack
            .tiers()
            .iter()
            .map(|p| p.indices_of_kind(ElementKind::Core).len())
            .sum();
        if n_cores == 0 {
            return Err(config(format!(
                "stack `{}` has no cores to schedule work on",
                stack.name()
            )));
        }
        let trace = match &self.workload {
            WorkloadSource::Synthetic(kind) => kind.generate(n_cores, self.seconds, self.seed),
            WorkloadSource::Trace(trace) => {
                if trace.cores() != n_cores {
                    return Err(config(format!(
                        "trace has {} cores, stack `{}` has {n_cores}",
                        trace.cores(),
                        stack.name()
                    )));
                }
                // Belt-and-braces: the trace constructor rejects samples
                // outside [0, 1], but a non-finite utilization would NaN
                // the whole power map, so re-check before freezing.
                for t in 0..trace.seconds() {
                    if let Some(&u) = trace.row(t).iter().find(|u| !u.is_finite()) {
                        return Err(config(format!(
                            "trace sample at second {t} is non-finite ({u})"
                        )));
                    }
                }
                trace.clone()
            }
        };

        let coolant = match &self.coolant {
            CoolantChoice::TwoPhase(op) => Coolant::TwoPhase(*op),
            _ => Coolant::Water,
        };
        let sim_config = SimConfig {
            grid: self.grid,
            thermal_dt: self.thermal_dt,
            control_interval: self.control_interval,
            threshold: self.threshold,
            thermal: ThermalParams {
                coolant,
                solver: self.solver,
                ..Default::default()
            },
            sensor_noise_std: self.sensor_noise_std,
            sensor_seed: self.sensor_seed,
            fault_plan: self.fault_plan.clone(),
        };
        Ok(Scenario {
            spec: self.clone(),
            stack,
            trace,
            sim_config,
            n_cores,
        })
    }
}

/// What fixes a scenario's thermal-operator pattern: stack, grid and
/// thermal parameters (see [`Scenario::same_operator_pattern`]).
pub(crate) type OperatorPattern = (Stack3d, GridSpec, ThermalParams);

/// A validated, fully-resolved scenario: stack built, trace generated,
/// simulation config frozen. Produced by [`ScenarioSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    spec: ScenarioSpec,
    stack: Stack3d,
    trace: WorkloadTrace,
    sim_config: SimConfig,
    n_cores: usize,
}

impl Scenario {
    /// The spec this scenario was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Scenario label (for reports).
    pub fn label(&self) -> String {
        self.spec.display_label()
    }

    /// The resolved stack.
    pub fn stack(&self) -> &Stack3d {
        &self.stack
    }

    /// The resolved workload trace.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// Number of cores across the stack.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Simulated seconds.
    pub fn seconds(&self) -> usize {
        self.spec.seconds
    }

    /// `true` when `other` shares this scenario's thermal-operator
    /// sparsity pattern — same stack, grid and thermal parameters — so a
    /// [`SharedAnalysis`](cmosaic_thermal::SharedAnalysis) exported by one
    /// is adoptable by the other.
    pub fn same_operator_pattern(&self, other: &Scenario) -> bool {
        self.stack == other.stack
            && self.sim_config.grid == other.sim_config.grid
            && self.sim_config.thermal == other.sim_config.thermal
    }

    /// An owned copy of exactly what
    /// [`same_operator_pattern`](Self::same_operator_pattern) compares,
    /// matched by equality: the key of a runner's analysis cache.
    pub(crate) fn operator_pattern(&self) -> OperatorPattern {
        (
            self.stack.clone(),
            self.sim_config.grid,
            self.sim_config.thermal.clone(),
        )
    }

    /// A copy with the solver demoted down the backend ladder, multigrid
    /// → direct LU. `None` when the backend is already direct. Demotion
    /// changes the operator pattern; like every retry, a demoted one runs
    /// without its group's shared analysis.
    pub(crate) fn demoted_backend(&self) -> Option<Scenario> {
        if !self.sim_config.thermal.solver.is_iterative() {
            return None;
        }
        let mut s = self.clone();
        s.spec.solver = SolverBackend::DirectLu;
        s.sim_config.thermal.solver = SolverBackend::DirectLu;
        Some(s)
    }

    /// A copy with the thermal timestep halved — the retry ladder's
    /// Δt rung for marginal operating points.
    pub(crate) fn halved_dt(&self) -> Scenario {
        let mut s = self.clone();
        s.spec.thermal_dt /= 2.0;
        s.sim_config.thermal_dt /= 2.0;
        s
    }

    /// Builds the simulator without running it — the entry point the batch
    /// engine uses so it can hand a shared thermal analysis to the
    /// simulator before initialisation.
    ///
    /// # Errors
    ///
    /// Forwards model-construction errors.
    pub fn build_simulator(&self) -> Result<Simulator, CmosaicError> {
        let mut sim = Simulator::new(
            &self.stack,
            make_policy(self.spec.policy, self.n_cores),
            self.trace.clone(),
            self.spec.allocator.build(),
            self.sim_config.clone(),
        )?;
        sim.set_flow_schedule(self.spec.flow_schedule.clone());
        Ok(sim)
    }

    /// Runs the scenario end to end (steady-state init, then the closed
    /// loop for the configured duration).
    ///
    /// # Errors
    ///
    /// Forwards simulation errors.
    pub fn run(&self) -> Result<RunMetrics, CmosaicError> {
        self.run_observed(&mut ())
    }

    /// Runs the scenario with an [`Observer`] hooked into every control
    /// interval.
    ///
    /// # Errors
    ///
    /// Forwards simulation errors.
    pub fn run_observed<O: Observer + ?Sized>(
        &self,
        observer: &mut O,
    ) -> Result<RunMetrics, CmosaicError> {
        let mut sim = self.build_simulator()?;
        sim.initialize()?;
        sim.run_observed(self.spec.seconds, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmosaic_materials::units::Kelvin;

    #[test]
    fn default_spec_builds_and_matches_the_paper_baseline() {
        let scenario = ScenarioSpec::new().seconds(3).build().unwrap();
        assert_eq!(scenario.n_cores(), 8);
        assert_eq!(scenario.stack().tiers().len(), 2);
        assert!(scenario.stack().is_liquid_cooled());
        assert_eq!(scenario.trace().seconds(), 3);
        assert_eq!(scenario.spec().policy_kind(), PolicyKind::LcFuzzy);
    }

    const GOLDEN_DEFAULT_FP: u64 = 0xaddd_ec23_b3d3_6bb4;

    /// The default spec on the multigrid backend. Pinned because the
    /// backend's `Debug` text is in the key: renaming or reshaping the
    /// variant would move every multigrid journal and cache key.
    const GOLDEN_MULTIGRID_FP: u64 = 0x291f_e041_f8e9_ffaf;

    #[test]
    fn fingerprint_is_stable_and_distinguishes_every_axis() {
        // Stability: independently constructed equal specs agree, and the
        // default spec's value is pinned. The golden constant is the
        // cross-process stability contract — if it moves, cache keys and
        // checkpoint journals from earlier builds are invalidated, which
        // is exactly what a reviewer should be forced to notice.
        assert_eq!(
            ScenarioSpec::new().fingerprint(),
            ScenarioSpec::default().fingerprint()
        );
        assert_eq!(ScenarioSpec::new().fingerprint(), GOLDEN_DEFAULT_FP);
        assert_eq!(
            ScenarioSpec::new()
                .solver(SolverBackend::multigrid())
                .fingerprint(),
            GOLDEN_MULTIGRID_FP
        );
        // Distinctness: nudging any axis moves the fingerprint.
        let base = ScenarioSpec::new();
        let variants = [
            base.clone().label("renamed"),
            base.clone().tiers(4),
            base.clone().grid(GridSpec::new(6, 6).unwrap()),
            base.clone().workload(WorkloadKind::Database),
            base.clone().seconds(121),
            base.clone().seed(43),
            base.clone().thermal_dt(0.005),
            base.clone().sensor_noise(0.1, 9),
        ];
        let mut fps: Vec<u64> = variants.iter().map(ScenarioSpec::fingerprint).collect();
        fps.push(base.fingerprint());
        let distinct: std::collections::HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "{fps:?}");
    }

    #[test]
    fn fingerprint_distinguishes_actuation_axes_without_moving_the_golden() {
        // New per-block actuation axes must move the fingerprint — while
        // the default-spec golden (checked above) stays put because the
        // manual Debug impl appends `allocator` only when non-default.
        let base = ScenarioSpec::new();
        assert!(
            !format!("{base:?}").contains("allocator"),
            "default rendering must not mention the allocator axis"
        );
        let variants = [
            base.clone().allocator(AllocatorPreset::MemoryOnLogic),
            base.clone().allocator(AllocatorPreset::MixedAccelerator),
            base.clone().policy(PolicyKind::LcMigration { seed: 42 }),
            base.clone().policy(PolicyKind::LcMigration { seed: 43 }),
            base.clone()
                .policy(PolicyKind::LcMigrationFuzzy { seed: 42 }),
            base.clone().policy(PolicyKind::LcTierDvfs),
            base.clone()
                .stack(presets::memory_on_logic(4).unwrap())
                .allocator(AllocatorPreset::MemoryOnLogic),
            base.clone().stack(presets::accelerated_mpsoc(4).unwrap()),
        ];
        let mut fps: Vec<u64> = variants.iter().map(ScenarioSpec::fingerprint).collect();
        fps.push(base.fingerprint());
        let distinct: std::collections::HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "{fps:?}");
        assert_eq!(base.fingerprint(), GOLDEN_DEFAULT_FP);
    }

    #[test]
    fn heterogeneous_preset_scenarios_build_and_run() {
        let m = ScenarioSpec::new()
            .stack(presets::memory_on_logic(4).unwrap())
            .allocator(AllocatorPreset::MemoryOnLogic)
            .policy(PolicyKind::LcLb)
            .grid(GridSpec::new(6, 6).unwrap())
            .thermal_dt(0.5)
            .seconds(3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.seconds, 3);
        assert!(m.chip_energy > 0.0);
    }

    #[test]
    fn fingerprint_distinguishes_swapped_block_placements() {
        // Placement axes install custom stacks that differ only in where
        // two blocks sit; memoization keys (and checkpoint journals) must
        // see those as distinct scenarios.
        use cmosaic_floorplan::transform::swap_in_tier;
        let base = presets::liquid_cooled_mpsoc(2).unwrap();
        let swapped = swap_in_tier(&base, 0, "core0", "core7").unwrap();
        let a = ScenarioSpec::new().stack(base);
        let b = ScenarioSpec::new().stack(swapped);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn mismatched_policy_and_coolant_fail_at_build_time() {
        let r = ScenarioSpec::new().policy(PolicyKind::AcLb).build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })), "{r:?}");
        let r = ScenarioSpec::new()
            .air()
            .policy(PolicyKind::LcFuzzy)
            .build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
        // The matching pairs build.
        assert!(ScenarioSpec::new()
            .air()
            .policy(PolicyKind::AcLb)
            .build()
            .is_ok());
    }

    #[test]
    fn custom_stack_must_match_the_coolant() {
        let air_stack = presets::air_cooled_mpsoc(2).unwrap();
        let r = ScenarioSpec::new().stack(air_stack.clone()).water().build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
        assert!(ScenarioSpec::new()
            .stack(air_stack)
            .air()
            .policy(PolicyKind::AcLb)
            .build()
            .is_ok());
    }

    #[test]
    fn custom_traces_are_core_count_checked() {
        let short =
            WorkloadTrace::from_samples(WorkloadKind::Database, vec![vec![0.5; 4]; 3]).unwrap();
        let r = ScenarioSpec::new().trace(short).seconds(3).build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
        let right =
            WorkloadTrace::from_samples(WorkloadKind::Database, vec![vec![0.5; 8]; 3]).unwrap();
        assert!(ScenarioSpec::new().trace(right).seconds(3).build().is_ok());
    }

    #[test]
    fn flow_schedules_validate_against_the_coolant() {
        let q = VolumetricFlow::from_ml_per_min(20.0);
        // Air cooling has no pump to schedule.
        let r = ScenarioSpec::new()
            .air()
            .policy(PolicyKind::AcLb)
            .flow_schedule(FlowSchedule::Fixed(q))
            .build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
        // Two-phase fixes the mass flux.
        let r = ScenarioSpec::new()
            .two_phase(TwoPhaseCoolant::r134a_30c(300.0))
            .flow_schedule(FlowSchedule::Fixed(q))
            .build();
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
        // Degenerate schedules are rejected outright.
        for bad in [
            FlowSchedule::Fixed(VolumetricFlow(0.0)),
            FlowSchedule::Cycle(vec![]),
            FlowSchedule::Cycle(vec![(0, q)]),
            FlowSchedule::Sweep {
                lo: q,
                hi: VolumetricFlow(q.0 / 2.0),
                period: 8,
            },
            FlowSchedule::Sweep {
                lo: q,
                hi: q,
                period: 1,
            },
        ] {
            let r = ScenarioSpec::new().flow_schedule(bad.clone()).build();
            assert!(matches!(r, Err(CmosaicError::Config { .. })), "{bad:?}");
        }
        // A sane water schedule builds.
        assert!(ScenarioSpec::new()
            .flow_schedule(FlowSchedule::Cycle(vec![
                (5, q),
                (5, VolumetricFlow(q.0 / 2.0))
            ]))
            .build()
            .is_ok());
    }

    #[test]
    fn bad_timing_parameters_fail_at_build_time() {
        assert!(ScenarioSpec::new().seconds(0).build().is_err());
        assert!(ScenarioSpec::new().thermal_dt(0.0).build().is_err());
        assert!(ScenarioSpec::new().control_interval(-1.0).build().is_err());
        assert!(ScenarioSpec::new().sensor_noise(-2.0, 0).build().is_err());
    }

    #[test]
    fn schedule_waveforms() {
        let q1 = VolumetricFlow(1.0);
        let q2 = VolumetricFlow(2.0);
        assert_eq!(FlowSchedule::Policy.flow_at(5), None);
        assert_eq!(FlowSchedule::Fixed(q1).flow_at(7), Some(q1));
        let cycle = FlowSchedule::Cycle(vec![(2, q1), (1, q2)]);
        let flows: Vec<f64> = (0..6).map(|t| cycle.flow_at(t).unwrap().0).collect();
        assert_eq!(flows, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0]);
        let sweep = FlowSchedule::Sweep {
            lo: q1,
            hi: q2,
            period: 4,
        };
        assert_eq!(sweep.flow_at(0).unwrap().0, 1.0);
        assert_eq!(sweep.flow_at(2).unwrap().0, 2.0);
        assert_eq!(sweep.flow_at(1).unwrap(), sweep.flow_at(3).unwrap());
        assert_eq!(sweep.flow_at(4).unwrap().0, 1.0);
        // Degenerate unvalidated schedules never panic: both shapes take
        // the same documented path — no override, the policy keeps the
        // pump — and `is_degenerate` is the shared test behind it.
        let degenerate_sweep = FlowSchedule::Sweep {
            lo: q1,
            hi: q2,
            period: 0,
        };
        for t in [0usize, 3, 17] {
            assert_eq!(degenerate_sweep.flow_at(t), None);
            assert_eq!(FlowSchedule::Cycle(vec![(0, q1)]).flow_at(t), None);
            assert_eq!(FlowSchedule::Cycle(vec![(0, q1), (0, q2)]).flow_at(t), None);
            assert_eq!(FlowSchedule::Cycle(vec![]).flow_at(t), None);
        }
        assert!(degenerate_sweep.is_degenerate());
        assert!(FlowSchedule::Cycle(vec![]).is_degenerate());
        assert!(FlowSchedule::Cycle(vec![(0, q1)]).is_degenerate());
        assert!(!FlowSchedule::Policy.is_degenerate());
        assert!(!FlowSchedule::Fixed(q1).is_degenerate());
        assert!(!cycle.is_degenerate());
        // Validation rejects exactly what flow_at declines to evaluate
        // (plus the stricter period >= 2 bound on sweeps).
        assert!(degenerate_sweep.validate().is_err());
        assert!(FlowSchedule::Cycle(vec![]).validate().is_err());
    }

    #[test]
    fn degenerate_schedule_on_a_simulator_falls_back_to_the_policy() {
        // A Simulator handed an unvalidated degenerate schedule directly
        // must behave exactly like the policy-owned run.
        let with_schedule = |schedule: Option<FlowSchedule>| {
            let scenario = ScenarioSpec::new()
                .grid(GridSpec::new(6, 6).expect("static"))
                .seconds(3)
                .build()
                .unwrap();
            let mut sim = scenario.build_simulator().unwrap();
            if let Some(s) = schedule {
                sim.set_flow_schedule(s);
            }
            sim.initialize().unwrap();
            sim.run(3).unwrap()
        };
        let baseline = with_schedule(None);
        let degenerate = with_schedule(Some(FlowSchedule::Cycle(vec![])));
        assert_eq!(baseline, degenerate, "policy fallback must be exact");
    }

    #[test]
    fn solver_backend_rides_the_spec() {
        use cmosaic_materials::units::Kelvin;
        assert_eq!(
            ScenarioSpec::new().solver_backend(),
            SolverBackend::DirectLu,
            "direct LU is the default"
        );
        // The multigrid backend gets its own label suffix and runs end to
        // end (6×6 coarsens once, to a 3×3 assembled level).
        let mg = ScenarioSpec::new().solver(SolverBackend::multigrid());
        assert!(mg.solver_backend().is_iterative());
        assert!(mg.display_label().ends_with("/bicgstab-mg"));
        let m = mg
            .grid(GridSpec::new(6, 6).expect("static"))
            .seconds(3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.seconds, 3);
        assert!(m.peak_temperature > Kelvin(0.0));
    }

    #[test]
    fn backend_demotion_steps_one_rung_at_a_time() {
        let s = ScenarioSpec::new()
            .seconds(2)
            .solver(SolverBackend::IterativeMg {
                tolerance: 1e-8,
                max_iterations: 500,
            })
            .build()
            .unwrap();
        // Multigrid demotes to direct LU, the bottom of the ladder.
        let direct = s.demoted_backend().expect("mg has a rung below");
        assert_eq!(direct.spec().solver_backend(), SolverBackend::DirectLu);
        assert!(direct.demoted_backend().is_none());
        // The demotion changes the operator pattern, so demoted retries
        // never share a symbolic analysis with their original group.
        assert!(!s.same_operator_pattern(&direct));
    }

    #[test]
    fn pattern_grouping_follows_stack_grid_and_coolant() {
        let a = ScenarioSpec::new().seconds(2).build().unwrap();
        let b = ScenarioSpec::new()
            .seconds(2)
            .policy(PolicyKind::LcLb)
            .workload(WorkloadKind::Database)
            .seed(9)
            .build()
            .unwrap();
        assert!(
            a.same_operator_pattern(&b),
            "policy/workload/seed are pattern-neutral"
        );
        let four = ScenarioSpec::new().tiers(4).seconds(2).build().unwrap();
        assert!(!a.same_operator_pattern(&four));
        let tp = ScenarioSpec::new()
            .two_phase(TwoPhaseCoolant::r134a_30c(300.0))
            .seconds(2)
            .build()
            .unwrap();
        assert!(!a.same_operator_pattern(&tp), "two-phase operators differ");
    }

    #[test]
    fn labels_summarise_the_axes() {
        let spec = ScenarioSpec::new().tiers(4).policy(PolicyKind::LcLb);
        assert_eq!(spec.display_label(), "4-tier/water/LC_LB/web-server");
        let named = spec.clone().label("my-run");
        assert_eq!(named.display_label(), "my-run");
        let swept = spec.flow_schedule(FlowSchedule::Sweep {
            lo: VolumetricFlow(1e-8),
            hi: VolumetricFlow(2e-8),
            period: 16,
        });
        assert!(swept.display_label().ends_with("/swept-flow"));
    }

    #[test]
    fn two_phase_scenarios_run_end_to_end() {
        // Two-phase stacks were previously unreachable through the
        // co-simulation (initialize() unconditionally set a flow rate).
        let m = ScenarioSpec::new()
            .two_phase(TwoPhaseCoolant::r134a_30c(2800.0))
            .policy(PolicyKind::LcLb)
            .workload(WorkloadKind::Multimedia)
            .grid(GridSpec::new(6, 6).unwrap())
            .thermal_dt(0.5)
            .seconds(4)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(m.seconds, 4);
        assert!(m.chip_energy > 0.0);
        assert_eq!(m.pump_energy, 0.0, "no single-phase pump in the loop");
        assert!(m.mean_flow.is_none());
        assert!(m.peak_temperature > Kelvin(0.0));
    }
}
