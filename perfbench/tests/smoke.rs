//! Smoke tests: every workload at its tiny size, with every output check
//! on, in both the untraced and the traced run.

use llmsim_perfbench::expected::{check_recorded, DEFAULT_SEED, HELD_OUT_SEED};
use llmsim_perfbench::run::{run, Options, END_TO_END, PER_LAYER};
use llmsim_perfbench::workloads::{check_fleet, check_gemm, setup, Inputs, Size, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> llmsim_perfbench::run::Outcome {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        threads: 2,
    })
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let out = smoke(w, seed, false);
            assert!(
                out.correct(),
                "{} seed {seed}: {:?}",
                w.name(),
                out.failures
            );
            assert!(out.attempted >= 4, "{}: {} checks", w.name(), out.attempted);
            let names: Vec<_> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(names, END_TO_END);
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{} {name} = {value}", w.name());
            }
        }
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in Workload::ALL {
        let out = smoke(w, DEFAULT_SEED, true);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<_> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(names, PER_LAYER);
        let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
        match w {
            Workload::GemmEmulation => {
                assert!(get("isa.tdpbf16ps") > 0.0 && get("isa.gemm_s") > 0.0);
                assert_eq!(get("core.decode_step_calls"), 0.0);
            }
            _ => {
                assert!(get("core.decode_step_calls") > 0.0 && get("engine.events") > 0.0);
                assert!(get("router.calls") > 0.0 && get("core.share") > 0.0);
                assert!(get("core.decode_step_unique") > 0.0 && get("trace.probe_ns") > 0.0);
                assert_eq!(get("isa.tdpbf16ps"), 0.0);
            }
        }
        if w == Workload::FleetShardedTp {
            assert_eq!(get("shard.cells"), 2.0);
            assert!(get("sink.records") > 0.0);
        }
    }
}

/// A perturbed input — the held-out seed's trace checked against the
/// digest recorded for the default seed — must fail the output check.
#[test]
fn a_different_input_fails_the_recorded_check() {
    for w in Workload::ALL {
        let (inputs, _) = setup(w, Size::Smoke, HELD_OUT_SEED, 2);
        let (digest, cells) = match &inputs {
            Inputs::Fleet(fleet) => (
                check_fleet(fleet, &fleet.replay()).unwrap(),
                fleet.shards.len().max(1),
            ),
            Inputs::Gemm(gemm) => (check_gemm(&gemm.multiply(), &gemm.reference()).unwrap(), 1),
        };
        check_recorded(w, Size::Smoke, HELD_OUT_SEED, cells, digest)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            check_recorded(w, Size::Smoke, DEFAULT_SEED, cells, digest).is_err(),
            "{}: the held-out output passed as the default seed's",
            w.name()
        );
    }
}

/// The metric and workload names the benchmark prints are the ones its
/// manifest declares.
#[test]
fn manifest_lists_the_printed_names() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let workloads = &manifest[manifest.find("\"workloads\"").unwrap()..];
    let workloads = &workloads[..workloads.find(']').unwrap()];
    let listed: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for name in listed {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from the manifest"
        );
    }
    let declared = manifest.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
