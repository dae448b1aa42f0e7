//! The discrete design space an optimizer searches: a base
//! [`ScenarioSpec`] plus named axes of spec transformations.
//!
//! Unlike a [`Study`](crate::study::Study) — which eagerly expands a flat
//! scenario list — a [`DesignSpace`] keeps its axes *indexable*, so an
//! adaptive strategy can move coordinate-wise ("same design, one level
//! more coolant") without materialising the whole cartesian product. A
//! design is a [`DesignPoint`]: one level index per axis; the space turns
//! it back into a concrete, labelled [`ScenarioSpec`].

use std::fmt;
use std::sync::Arc;

use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::{FloorplanError, Stack3d};
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_power::AllocatorPreset;
use cmosaic_thermal::SolverBackend;

use crate::policy::PolicyKind;
use crate::scenario::{CoolantChoice, FlowSchedule, ScenarioSpec, StackChoice};
use crate::CmosaicError;

/// A spec transformation shared by every design that selects this level.
///
/// Fallible: placement-valued levels (see
/// [`DesignAxis::stack_transforms`]) may legitimately fail on some
/// combinations of upstream axes — the [`Evaluator`](super::Evaluator)
/// records such designs as *skipped*, exactly like build-time validation
/// failures.
type ApplyFn = Arc<dyn Fn(ScenarioSpec) -> Result<ScenarioSpec, CmosaicError> + Send + Sync>;

/// A stack transformation used by [`DesignAxis::stack_transforms`]: maps
/// the design's current (resolved) stack to a new one, e.g. the
/// deterministic placement moves of
/// [`cmosaic_floorplan::transform`].
pub type StackTransform = Arc<dyn Fn(&Stack3d) -> Result<Stack3d, FloorplanError> + Send + Sync>;

/// One selectable value of a design axis: a label plus the spec
/// transformation it stands for.
#[derive(Clone)]
pub struct DesignLevel {
    label: String,
    apply: ApplyFn,
}

impl DesignLevel {
    /// A level applying the infallible `f` to the spec, displayed as
    /// `label`.
    pub fn new<F>(label: impl Into<String>, f: F) -> Self
    where
        F: Fn(ScenarioSpec) -> ScenarioSpec + Send + Sync + 'static,
    {
        Self::fallible(label, move |s| Ok(f(s)))
    }

    /// A level whose transformation may fail (an invalid-by-construction
    /// corner of the space); the evaluator skips such designs instead of
    /// aborting the search.
    pub fn fallible<F>(label: impl Into<String>, f: F) -> Self
    where
        F: Fn(ScenarioSpec) -> Result<ScenarioSpec, CmosaicError> + Send + Sync + 'static,
    {
        DesignLevel {
            label: label.into(),
            apply: Arc::new(f),
        }
    }

    /// The level's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Debug for DesignLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DesignLevel").field(&self.label).finish()
    }
}

/// One named, ordered dimension of a design space.
#[derive(Debug, Clone)]
pub struct DesignAxis {
    name: String,
    levels: Vec<DesignLevel>,
}

impl DesignAxis {
    /// A custom axis from explicit levels.
    pub fn new(name: impl Into<String>, levels: Vec<DesignLevel>) -> Self {
        DesignAxis {
            name: name.into(),
            levels,
        }
    }

    /// The one generalized axis builder every preset constructor forwards
    /// through: an axis named `name` with one level per value, labelled by
    /// `label` and applying `apply(spec, &value)`.
    ///
    /// ```
    /// use cmosaic::optimize::DesignAxis;
    ///
    /// let axis = DesignAxis::over("seed", [1u64, 7], |s| format!("seed {s}"), |spec, s| {
    ///     spec.seed(*s)
    /// });
    /// assert_eq!(axis.len(), 2);
    /// assert_eq!(axis.levels()[1].label(), "seed 7");
    /// ```
    pub fn over<T, L, F>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = T>,
        label: L,
        apply: F,
    ) -> Self
    where
        T: Send + Sync + 'static,
        L: Fn(&T) -> String,
        F: Fn(ScenarioSpec, &T) -> ScenarioSpec + Send + Sync + Clone + 'static,
    {
        Self::new(
            name,
            values
                .into_iter()
                .map(|v| {
                    let f = apply.clone();
                    let text = label(&v);
                    DesignLevel::new(text, move |s| f(s, &v))
                })
                .collect(),
        )
    }

    /// A preset tier-count axis (forwards through [`DesignAxis::over`]).
    pub fn tiers(counts: impl IntoIterator<Item = usize>) -> Self {
        Self::over("tiers", counts, |t| format!("{t}-tier"), |s, t| s.tiers(*t))
    }

    /// A fixed per-cavity flow-rate axis ([`FlowSchedule::Fixed`]
    /// schedules, ordered as given; forwards through
    /// [`DesignAxis::over`]).
    pub fn flow_rates(rates: impl IntoIterator<Item = VolumetricFlow>) -> Self {
        Self::over(
            "flow",
            rates,
            |q| format!("{:.1} ml/min", q.to_ml_per_min()),
            |s, q| s.flow_schedule(FlowSchedule::Fixed(*q)),
        )
    }

    /// A runtime-policy axis (labels from the policy's `Display`:
    /// `AC_LB`, `LC_MIG`, …). Like
    /// [`Study::over_policies`](crate::study::Study::over_policies), the
    /// air/water coolant choice follows each policy's cooling mode, so a
    /// policy axis composes with preset stacks without hand-pairing a
    /// coolant axis. Forwards through [`DesignAxis::over`].
    pub fn policies(kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        Self::over("policy", kinds, PolicyKind::to_string, |s, p| {
            let s = s.policy(*p);
            match (p.is_liquid_cooled(), s.coolant_choice()) {
                (false, CoolantChoice::Water) => s.air(),
                (true, CoolantChoice::Air) => s.water(),
                _ => s,
            }
        })
    }

    /// A power-allocator preset axis (labels from the preset's
    /// `Display`: `niagara`, `memory-on-logic`, `mixed-accelerator`;
    /// forwards through [`DesignAxis::over`]).
    pub fn allocators(presets: impl IntoIterator<Item = AllocatorPreset>) -> Self {
        Self::over("allocator", presets, AllocatorPreset::to_string, |s, a| {
            s.allocator(*a)
        })
    }

    /// A coolant axis (forwards through [`DesignAxis::over`]).
    pub fn coolants(choices: impl IntoIterator<Item = CoolantChoice>) -> Self {
        Self::over("coolant", choices, CoolantChoice::to_string, |s, c| {
            s.coolant(c.clone())
        })
    }

    /// A thermal solver-backend axis (labels from the backend's
    /// `Display`: `direct-lu` / `bicgstab-mg(tol …, cap …)`, so two
    /// iterative operating points stay distinguishable; forwards through
    /// [`DesignAxis::over`]).
    pub fn solvers(backends: impl IntoIterator<Item = SolverBackend>) -> Self {
        Self::over("solver", backends, SolverBackend::to_string, |s, b| {
            s.solver(*b)
        })
    }

    /// A labelled flow-schedule axis (forwards through
    /// [`DesignAxis::over`]).
    pub fn flow_schedules(
        entries: impl IntoIterator<Item = (impl Into<String>, FlowSchedule)>,
    ) -> Self {
        Self::over(
            "schedule",
            entries
                .into_iter()
                .map(|(label, sched)| (label.into(), sched))
                .collect::<Vec<(String, FlowSchedule)>>(),
            |e| e.0.clone(),
            |s, e| s.flow_schedule(e.1.clone()),
        )
    }

    /// A placement axis: each level resolves the design's current stack
    /// (custom, or the preset implied by tier count and coolant), passes
    /// it through a deterministic [`StackTransform`] — e.g. the block
    /// swaps, hot-spot spreads and per-gap cavity toggles of
    /// [`cmosaic_floorplan::transform`] — and installs the re-validated
    /// result as a custom stack.
    ///
    /// Order matters: place this axis *after* any `tiers`/`coolants` axis
    /// so the transform sees the stack those axes select. Transform
    /// failures make the design an invalid-by-construction corner (the
    /// evaluator skips it), not a search-aborting error.
    pub fn stack_transforms(
        name: impl Into<String>,
        entries: impl IntoIterator<Item = (impl Into<String>, StackTransform)>,
    ) -> Self {
        Self::new(
            name,
            entries
                .into_iter()
                .map(|(label, transform)| {
                    DesignLevel::fallible(label, move |spec: ScenarioSpec| {
                        let stack = DesignSpace::resolve_stack(&spec)?;
                        let transformed = transform(&stack).map_err(CmosaicError::from)?;
                        Ok(spec.stack(transformed))
                    })
                })
                .collect(),
        )
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axis levels, in index order.
    pub fn levels(&self) -> &[DesignLevel] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when the axis has no levels (it annihilates the space).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// One design: a level index per axis of its [`DesignSpace`], in axis
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint(Vec<usize>);

impl DesignPoint {
    /// A point from explicit level indices.
    pub fn new(indices: Vec<usize>) -> Self {
        DesignPoint(indices)
    }

    /// The level indices, in axis order.
    pub fn indices(&self) -> &[usize] {
        &self.0
    }
}

/// A discrete design space: base spec × named axes.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    base: ScenarioSpec,
    axes: Vec<DesignAxis>,
}

impl DesignSpace {
    /// A space containing only the base design (no axes yet).
    pub fn new(base: ScenarioSpec) -> Self {
        DesignSpace {
            base,
            axes: Vec::new(),
        }
    }

    /// Appends one axis (applied after every axis already present, so
    /// later axes win conflicting spec fields).
    pub fn with_axis(mut self, axis: DesignAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// The base spec every design starts from.
    pub fn base(&self) -> &ScenarioSpec {
        &self.base
    }

    /// The axes, in application order.
    pub fn axes(&self) -> &[DesignAxis] {
        &self.axes
    }

    /// Number of axes.
    pub fn n_axes(&self) -> usize {
        self.axes.len()
    }

    /// Number of designs in the space (the product of the axis sizes; 1
    /// for an axis-less space, 0 if any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(DesignAxis::len).product()
    }

    /// `true` when the space contains no design at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every design of the space in lexicographic order (first axis
    /// slowest), the order an exhaustive grid search evaluates.
    pub fn points(&self) -> Vec<DesignPoint> {
        let total = self.len();
        let mut points = Vec::with_capacity(total);
        if total == 0 {
            return points;
        }
        let mut odometer = vec![0usize; self.axes.len()];
        loop {
            points.push(DesignPoint::new(odometer.clone()));
            // Advance the last axis first; carry leftwards.
            let mut axis = self.axes.len();
            loop {
                if axis == 0 {
                    return points;
                }
                axis -= 1;
                odometer[axis] += 1;
                if odometer[axis] < self.axes[axis].len() {
                    break;
                }
                odometer[axis] = 0;
            }
        }
    }

    /// The human-readable label of a design ("2-tier, 12.0 ml/min").
    ///
    /// # Panics
    ///
    /// Panics if the point does not index this space (wrong axis count or
    /// a level index out of range).
    pub fn label_of(&self, point: &DesignPoint) -> String {
        self.check(point);
        if self.axes.is_empty() {
            return "base design".into();
        }
        self.axes
            .iter()
            .zip(point.indices())
            .map(|(axis, &level)| axis.levels()[level].label().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Resolves a design into its concrete [`ScenarioSpec`], labelled with
    /// [`DesignSpace::label_of`].
    ///
    /// # Errors
    ///
    /// Forwards the first failing level transformation (e.g. a placement
    /// move that does not apply to the stack selected by earlier axes) —
    /// an invalid-by-construction corner of the space, which the
    /// [`Evaluator`](super::Evaluator) records as *skipped*.
    ///
    /// # Panics
    ///
    /// Panics if the point does not index this space (wrong axis count or
    /// a level index out of range).
    pub fn spec(&self, point: &DesignPoint) -> Result<ScenarioSpec, CmosaicError> {
        self.check(point);
        let mut spec = self.base.clone();
        for (axis, &level) in self.axes.iter().zip(point.indices()) {
            spec = (axis.levels()[level].apply)(spec)?;
        }
        Ok(spec.label(self.label_of(point)))
    }

    /// The stack a design with this spec would simulate: the custom stack
    /// if one is installed, otherwise the Niagara preset implied by the
    /// spec's tier count and coolant — the same resolution
    /// `ScenarioSpec::build` performs.
    ///
    /// # Errors
    ///
    /// Forwards preset-construction failures (e.g. a zero tier count).
    pub fn resolve_stack(spec: &ScenarioSpec) -> Result<Stack3d, CmosaicError> {
        match spec.stack_choice() {
            StackChoice::Custom(stack) => Ok(stack.clone()),
            StackChoice::Preset { tiers } => {
                let stack = if spec.coolant_choice().is_liquid() {
                    presets::liquid_cooled_mpsoc(*tiers)
                } else {
                    presets::air_cooled_mpsoc(*tiers)
                }?;
                Ok(stack)
            }
        }
    }

    fn check(&self, point: &DesignPoint) {
        assert_eq!(
            point.indices().len(),
            self.axes.len(),
            "design point has {} indices, space has {} axes",
            point.indices().len(),
            self.axes.len()
        );
        for (axis, &level) in self.axes.iter().zip(point.indices()) {
            assert!(
                level < axis.len(),
                "level {level} out of range for axis `{}` ({} levels)",
                axis.name(),
                axis.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn ml(x: f64) -> VolumetricFlow {
        VolumetricFlow::from_ml_per_min(x)
    }

    fn tiny_space() -> DesignSpace {
        DesignSpace::new(ScenarioSpec::new().policy(PolicyKind::LcLb).seconds(2))
            .with_axis(DesignAxis::tiers([2, 4]))
            .with_axis(DesignAxis::flow_rates([ml(8.0), ml(16.0), ml(32.3)]))
    }

    #[test]
    fn points_enumerate_lexicographically() {
        let space = tiny_space();
        assert_eq!(space.len(), 6);
        let pts = space.points();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].indices(), &[0, 0]);
        assert_eq!(pts[1].indices(), &[0, 1]);
        assert_eq!(pts[3].indices(), &[1, 0]);
        assert_eq!(pts[5].indices(), &[1, 2]);
    }

    #[test]
    fn specs_resolve_with_labels() {
        let space = tiny_space();
        let p = DesignPoint::new(vec![1, 2]);
        assert_eq!(space.label_of(&p), "4-tier, 32.3 ml/min");
        let spec = space.spec(&p).unwrap();
        assert_eq!(spec.preset_tiers(), Some(4));
        assert_eq!(
            spec.flow_schedule_spec(),
            &FlowSchedule::Fixed(ml(32.3)),
            "the flow axis installs a fixed schedule"
        );
        assert_eq!(spec.display_label(), "4-tier, 32.3 ml/min");
        assert!(spec.build().is_ok());
    }

    #[test]
    fn empty_axis_annihilates_and_axisless_is_singleton() {
        let dead = tiny_space().with_axis(DesignAxis::new("void", vec![]));
        assert_eq!(dead.len(), 0);
        assert!(dead.is_empty());
        assert!(dead.points().is_empty());

        let base_only = DesignSpace::new(ScenarioSpec::new().seconds(2));
        assert_eq!(base_only.len(), 1);
        let pts = base_only.points();
        assert_eq!(pts.len(), 1);
        assert!(pts[0].indices().is_empty());
        assert_eq!(base_only.label_of(&pts[0]), "base design");
        assert!(base_only.spec(&pts[0]).unwrap().build().is_ok());
    }

    #[test]
    fn solver_axis_resolves_backends() {
        let space = DesignSpace::new(ScenarioSpec::new().policy(PolicyKind::LcLb).seconds(2))
            .with_axis(DesignAxis::solvers([
                SolverBackend::DirectLu,
                SolverBackend::IterativeMg {
                    tolerance: 1e-8,
                    max_iterations: 500,
                },
                SolverBackend::multigrid(),
            ]));
        assert_eq!(space.len(), 3);
        let pts = space.points();
        assert_eq!(space.label_of(&pts[0]), "direct-lu");
        assert_eq!(space.label_of(&pts[1]), "bicgstab-mg(tol 1e-8, cap 500)");
        assert_eq!(space.label_of(&pts[2]), "bicgstab-mg(tol 1e-10, cap 2000)");
        assert!(!space.spec(&pts[0]).unwrap().solver_backend().is_iterative());
        assert!(space.spec(&pts[1]).unwrap().solver_backend().is_iterative());
        assert!(space.spec(&pts[2]).unwrap().solver_backend().is_iterative());
        assert!(space.spec(&pts[1]).unwrap().build().is_ok());
        assert!(space.spec(&pts[2]).unwrap().build().is_ok());
    }

    #[test]
    fn policy_and_allocator_axes_resolve() {
        let space = DesignSpace::new(ScenarioSpec::new().seconds(2))
            .with_axis(DesignAxis::policies([
                PolicyKind::AcLb,
                PolicyKind::LcMigration { seed: 42 },
            ]))
            .with_axis(DesignAxis::allocators(AllocatorPreset::all()));
        assert_eq!(space.len(), 6);
        let pts = space.points();
        assert_eq!(space.label_of(&pts[0]), "AC_LB, niagara");
        assert_eq!(space.label_of(&pts[5]), "LC_MIG, mixed-accelerator");
        // The policy axis steers the coolant the way a study would.
        let air = space.spec(&pts[0]).unwrap();
        assert_eq!(air.coolant_choice(), &CoolantChoice::Air);
        let wet = space.spec(&pts[5]).unwrap();
        assert_eq!(wet.coolant_choice(), &CoolantChoice::Water);
        assert_eq!(wet.allocator_preset(), AllocatorPreset::MixedAccelerator);
        assert!(air.build().is_ok());
        assert!(wet.build().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_levels_panic() {
        let space = tiny_space();
        space.spec(&DesignPoint::new(vec![0, 9])).unwrap();
    }

    #[test]
    fn stack_transform_axis_installs_custom_stacks() {
        use cmosaic_floorplan::transform::swap_in_tier;

        let baseline: StackTransform = Arc::new(|s: &Stack3d| Ok(s.clone()));
        let swap: StackTransform = Arc::new(|s: &Stack3d| swap_in_tier(s, 0, "core0", "core7"));
        let bad: StackTransform = Arc::new(|s: &Stack3d| swap_in_tier(s, 0, "core0", "nope"));
        let space = DesignSpace::new(ScenarioSpec::new().policy(PolicyKind::LcLb).seconds(2))
            .with_axis(DesignAxis::tiers([2]))
            .with_axis(DesignAxis::stack_transforms(
                "placement",
                [
                    ("baseline", baseline),
                    ("swap core0<->core7", swap),
                    ("broken", bad),
                ],
            ));
        assert_eq!(space.len(), 3);
        let pts = space.points();
        assert_eq!(space.label_of(&pts[1]), "2-tier, swap core0<->core7");

        // The baseline level resolves the 2-tier liquid preset as a custom
        // stack; the swap level moves core0 to core7's rectangle.
        let base_spec = space.spec(&pts[0]).unwrap();
        let swap_spec = space.spec(&pts[1]).unwrap();
        let base_stack = match base_spec.stack_choice() {
            StackChoice::Custom(s) => s.clone(),
            StackChoice::Preset { .. } => panic!("transform installs a custom stack"),
        };
        assert_eq!(base_stack.tiers().len(), 2);
        assert!(swap_spec.build().is_ok());
        assert!(base_spec.build().is_ok());

        // The failing transform is an invalid corner, not a panic.
        assert!(space.spec(&pts[2]).is_err());
    }

    #[test]
    fn resolve_stack_matches_build_resolution() {
        let liquid = ScenarioSpec::new().tiers(4);
        let s = DesignSpace::resolve_stack(&liquid).unwrap();
        assert_eq!(s.name(), "4-tier-liquid-cooled");
        let air = ScenarioSpec::new().tiers(2).coolant(CoolantChoice::Air);
        assert_eq!(
            DesignSpace::resolve_stack(&air).unwrap().name(),
            "2-tier-air-cooled"
        );
    }
}
