//! The traced replay: machine points run layer by layer.
//!
//! `qic::run` applies sweep axes internally, so its time cannot be
//! split by layer from outside. The replay instead builds axis-free
//! [`ScenarioSpec`]s with the `MachineSpec` builders and drives each one
//! through the public calls of every layer (spec decode and validate,
//! fabric build, program generation, scheduler build, simulation with a
//! timed router and driver). Before any of its timing is used, each
//! replayed point's `NetReport::metrics()` must equal what `qic::run`
//! reports for the same spec ([`check_equal`]).

use std::rc::Rc;

use qic::core::scenario::{
    ExperimentSpec, ScenarioRegistry, ScenarioReport, ScenarioScale, ScenarioSpec,
};
use qic::core::scheduler::ProgramDriver;
use qic::net::config::NetConfig;
use qic::net::report::NetReport;
use qic::net::routing::RoutingPolicy;
use qic::net::sim::NetworkSim;
use qic::net::topology::{Topology, TopologyKind};
use qic::sweep::{derive_seed, Metrics};

use crate::trace::{LayerClock, Spans, TimedDriver, TimedRouter};

/// The replayed points at `scale`: every fabric × routing pair of the
/// topology faceoff, the first point of the degraded faceoff (its fault
/// plan on mesh + dimension-order routing), and the modular faceoff's
/// machine with two modules (without the cost columns, which are not
/// simulator output).
pub fn replay_set(scale: ScenarioScale, seed: u64) -> Vec<ScenarioSpec> {
    let base = |name: &str| match ScenarioRegistry::builtin()
        .spec(name, scale)
        .map(|s| s.experiment)
    {
        Some(ExperimentSpec::Machine { machine, workload }) => (machine, workload),
        _ => panic!("registry preset {name} is a machine experiment"),
    };
    let point = |name: String, (machine, workload)| {
        ScenarioSpec::machine(name, machine, workload)
            .with_seed(seed)
            .with_workers(1)
    };
    let mut set = Vec::new();
    let (machine, workload) = base("topology_faceoff");
    for kind in TopologyKind::ALL {
        for policy in RoutingPolicy::ALL {
            let m = machine.clone().with_topology(kind).with_routing(policy);
            let name = format!("replay:{kind:?}:{}", policy.label());
            set.push(point(name, (m, workload.clone())));
        }
    }
    let (machine, workload) = base("degraded_faceoff");
    let m = machine
        .with_topology(TopologyKind::Mesh)
        .with_routing(RoutingPolicy::DimensionOrder);
    set.push(point("replay:degraded".into(), (m, workload)));
    let (machine, workload) = base("modular_faceoff");
    let modular = machine
        .modular
        .as_deref()
        .cloned()
        .expect("modular preset")
        .with_modules(2)
        .with_report_cost(false);
    let m = machine
        .with_topology(TopologyKind::Mesh)
        .with_modular(modular);
    set.push(point("replay:modular".into(), (m, workload)));
    set
}

/// Replays one axis-free machine spec (given as its JSON document) with
/// spans around every layer call; returns the simulator's report. With
/// [`crate::trace::NoSpans`] it runs the same calls without spans or
/// delegating wrappers, the baseline of the tracing overhead.
pub fn replay<S: Spans>(t: &mut S, spec_json: &str) -> Result<NetReport, String> {
    let id = t.begin("spec.decode");
    let spec = ScenarioSpec::from_json(spec_json).map_err(|e| e.to_string());
    t.end(id, spec_json.len() as u64);
    let spec = spec?;
    let id = t.begin("spec.validate");
    let valid = spec.validate().map_err(|e| e.to_string());
    t.end(id, 0);
    valid?;
    if !spec.axes.is_empty() || spec.replicates != 1 {
        return Err(format!(
            "{}: replay needs an axis-free, single-replicate spec",
            spec.name
        ));
    }
    let ExperimentSpec::Machine { machine, workload } = &spec.experiment else {
        return Err(format!("{}: replay needs a machine experiment", spec.name));
    };
    let mut net = machine.net_config();
    // The campaign engine's seed for point 0, replicate 0.
    net.seed = derive_seed(spec.seed, 0, 0);

    let id = t.begin("workload.program");
    let program = workload.program();
    t.end(id, program.as_ref().map_or(0, |p| p.len() as u64));
    let program =
        program.ok_or_else(|| format!("{}: batch workloads are not replayed", spec.name))?;

    let id = t.begin("fabric.build");
    let base = net.fabric();
    t.end(id, 0);
    let layout = machine.layout;
    match (&machine.modular, &machine.fault) {
        (Some(m), fault) => {
            if m.report_cost {
                return Err(format!("{}: cost columns are not replayed", spec.name));
            }
            let id = t.begin("fabric.build");
            let fabric = qic::modular::ModularFabric::new(base, m);
            t.end(id, 0);
            if m.modules > 1 {
                // As the scenario runner does: modules tile side by side.
                net.mesh_width *= m.modules as u16;
                net.topology = TopologyKind::Mesh;
            }
            match fault {
                Some(plan) => {
                    let id = t.begin("fabric.build");
                    let topo = plan.clone().compile(fabric);
                    t.end(id, 0);
                    drive(t, net, topo, layout, &program)
                }
                None => drive(t, net, fabric, layout, &program),
            }
        }
        (None, Some(plan)) => {
            let id = t.begin("fabric.build");
            let topo = plan.clone().compile(base);
            t.end(id, 0);
            drive(t, net, topo, layout, &program)
        }
        (None, None) => drive(t, net, base, layout, &program),
    }
}

fn drive<S: Spans, T: Topology>(
    t: &mut S,
    net: NetConfig,
    topo: T,
    layout: qic::core::Layout,
    program: &qic::workload::Program,
) -> Result<NetReport, String> {
    let id = t.begin("scheduler.build");
    let driver = ProgramDriver::new(&net, layout, program);
    t.end(id, 0);
    let mut driver = driver.map_err(|e| format!("program does not fit: {e:?}"))?;
    if !S::ON {
        let report = NetworkSim::with_topology(net, topo).run(&mut driver);
        return finished(&driver, program).map(|()| report);
    }
    let clock = Rc::new(LayerClock::default());
    let router = TimedRouter {
        inner: net.routing.router(),
        clock: Rc::clone(&clock),
    };
    let id = t.begin("sim.run");
    let report = NetworkSim::with_router(net, topo, Box::new(router)).run(&mut TimedDriver {
        inner: &mut driver,
        clock: Rc::clone(&clock),
    });
    t.end(id, report.events);
    t.group(
        "scheduler.callback",
        id,
        clock.callbacks.get(),
        clock.callback_self_ns.get(),
    );
    t.group(
        "routing.route",
        id,
        clock.route_calls.get(),
        clock.route_ns.get(),
    );
    finished(&driver, program).map(|()| report)
}

fn finished(driver: &ProgramDriver, program: &qic::workload::Program) -> Result<(), String> {
    if driver.is_finished() {
        Ok(())
    } else {
        Err(format!(
            "scheduler finished {} instructions of {}",
            driver.completed(),
            program.len()
        ))
    }
}

/// Checks that a replayed point's metrics equal the single point
/// `qic::run` reported for the same spec.
pub fn check_equal(replayed: &Metrics, reference: &ScenarioReport) -> Result<(), String> {
    let name = &reference.spec.name;
    let [point] = reference.report.points.as_slice() else {
        return Err(format!(
            "{name}: reference has {} points, not 1",
            reference.report.points.len()
        ));
    };
    let [run] = point.replicates.as_slice() else {
        return Err(format!(
            "{name}: reference has {} replicates, not 1",
            point.replicates.len()
        ));
    };
    if run == replayed {
        return Ok(());
    }
    let first_diff = run
        .iter()
        .zip(replayed.iter())
        .find(|(a, b)| a != b)
        .map(|((n, a), (m, b))| format!("qic::run {n}={a}, replay {m}={b}"))
        .unwrap_or_else(|| format!("metric count {} vs {}", run.len(), replayed.len()));
    Err(format!(
        "{name}: replay differs from qic::run: {first_diff}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NoSpans, Tracer};

    fn replay_and_reference(spec: &ScenarioSpec) -> (Metrics, ScenarioReport) {
        let mut t = Tracer::new();
        let replayed = replay(&mut t, &spec.to_json()).expect("replay runs");
        let reference = qic::run(spec).expect("reference runs");
        (replayed.metrics(), reference)
    }

    #[test]
    fn every_small_replay_point_matches_qic_run() {
        for spec in replay_set(ScenarioScale::SmallTest, 7) {
            let (replayed, reference) = replay_and_reference(&spec);
            check_equal(&replayed, &reference).unwrap();
        }
    }

    #[test]
    fn the_untraced_replay_reports_the_same() {
        for spec in replay_set(ScenarioScale::SmallTest, 7) {
            let (traced, _) = replay_and_reference(&spec);
            let plain = replay(&mut NoSpans, &spec.to_json()).expect("untraced replay runs");
            assert_eq!(plain.metrics(), traced);
        }
    }

    #[test]
    fn the_check_fails_on_a_doctored_report() {
        let spec = replay_set(ScenarioScale::SmallTest, 7).remove(0);
        let (replayed, mut reference) = replay_and_reference(&spec);
        check_equal(&replayed, &reference).unwrap();
        let run = &mut reference.report.points[0].replicates[0];
        let events = run.get("events").unwrap();
        let mut doctored = Metrics::new();
        for (name, value) in run.iter() {
            doctored.push(
                name,
                if name == "events" {
                    events + 1.0
                } else {
                    value
                },
            );
        }
        *run = doctored;
        let err = check_equal(&replayed, &reference).unwrap_err();
        assert!(err.contains("events"), "{err}");
    }
}
