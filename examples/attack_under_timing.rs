//! Attack simulation on the *timing* model: seeded fault injection into
//! the DRAM path of a full GPU simulation, showing which schemes flag
//! each corruption class while the pipeline is running — the timing-layer
//! counterpart of `attack_simulation.rs` (which attacks the functional
//! model at rest).
//!
//! ```text
//! cargo run --release --example attack_under_timing
//! ```

use gpu_secure_memory::core::{SecureBackend, SecureMemConfig, SecurityScheme};
use gpu_secure_memory::gpusim::backend::PassthroughBackend;
use gpu_secure_memory::gpusim::config::GpuConfig;
use gpu_secure_memory::gpusim::error::SimError;
use gpu_secure_memory::gpusim::fault::{FaultKind, FaultPlan, FaultSpec, FaultStats, FaultTrigger};
use gpu_secure_memory::gpusim::kernel::StreamKernel;
use gpu_secure_memory::gpusim::sim::Simulator;
use gpu_secure_memory::gpusim::types::TrafficClass;

const CYCLES: u64 = 20_000;
const SEED: u64 = 0xA77AC4;

/// Every scheme but the baseline.
const SCHEMES: &[SecurityScheme] = SecurityScheme::ALL.split_at(1).1;

fn kernel() -> StreamKernel {
    StreamKernel { alu_per_mem: 1, bytes_per_warp: 1 << 18, warps: 8 }
}

/// A plan injecting `kind` into roughly one in fifty data reads, capped
/// so runs stay comparable across schemes.
fn plan_for(kind: FaultKind) -> FaultPlan {
    FaultPlan::new(SEED)
        .with(FaultSpec::new(kind, FaultTrigger::OneIn(50)).on_class(TrafficClass::Data).limit(32))
}

fn run_secure(scheme: SecurityScheme, plan: &FaultPlan) -> FaultStats {
    let plan = plan.clone();
    let mut sim = Simulator::new(GpuConfig::small(), &kernel(), move |p, g| {
        let mut b = SecureBackend::new(SecureMemConfig::with_scheme(scheme), g);
        b.install_faults(plan.injector_for(p));
        b
    });
    sim.run(CYCLES).faults
}

fn run_baseline(plan: &FaultPlan) -> FaultStats {
    let plan = plan.clone();
    let mut sim = Simulator::new(GpuConfig::small(), &kernel(), move |p, g| {
        let mut b = PassthroughBackend::from_config(g);
        b.install_faults(plan.injector_for(p));
        b
    });
    sim.run(CYCLES).faults
}

fn verdict(f: &FaultStats) -> String {
    let (inj, det, und) = (f.total_injected(), f.total_detected(), f.total_undetected());
    let call = if inj == 0 {
        "no fault landed"
    } else if und == 0 {
        "ALL DETECTED"
    } else if det == 0 {
        "all UNDETECTED - attack succeeds silently"
    } else {
        "partially detected"
    };
    format!("{inj:>3} injected, {det:>3} detected, {und:>3} missed  ({call})")
}

fn main() {
    println!("{:=^78}", " GPU secure memory: attacks under the timing model ");

    // 1. Bit flips on the data bus: any MAC catches them; encryption
    //    alone only garbles the plaintext.
    println!("\n--- 1. data-bus bit flips (one in ~50 data reads) ---");
    let flip = plan_for(FaultKind::BitFlip);
    println!("  {:<13} -> {}", "baseline", verdict(&run_baseline(&flip)));
    for &scheme in SCHEMES {
        println!("  {:<13} -> {}", scheme.label(), verdict(&run_secure(scheme, &flip)));
    }

    // 2. Replay of stale-but-authentic lines: a bare MAC verifies the
    //    stale data happily; only tree coverage pins freshness.
    println!("\n--- 2. replay (stale-but-authentic data) ---");
    let replay = plan_for(FaultKind::Replay);
    println!("  {:<13} -> {}", "baseline", verdict(&run_baseline(&replay)));
    for &scheme in SCHEMES {
        println!("  {:<13} -> {}", scheme.label(), verdict(&run_secure(scheme, &replay)));
    }

    // 3. Denial of service: swallow every data completion. No integrity
    //    scheme can "detect" an answer that never arrives — the
    //    simulator's forward-progress watchdog turns it into a
    //    diagnosable stall instead of an infinite loop.
    println!("\n--- 3. dropped completions vs. the watchdog ---");
    let mut cfg = GpuConfig::small();
    cfg.watchdog_cycles = 2_000;
    let drop_plan = FaultPlan::new(SEED)
        .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Always).on_class(TrafficClass::Data));
    let mut sim = Simulator::new(cfg, &kernel(), move |p, g| {
        let mut b = PassthroughBackend::from_config(g);
        b.install_faults(drop_plan.injector_for(p));
        b
    });
    match sim.run_checked(1_000_000) {
        Ok(_) => println!("  unexpectedly completed (watchdog did not fire)"),
        Err(e) => match *e {
            SimError::Stalled(stall) => {
                println!(
                    "  watchdog fired at cycle {} after {} idle cycles:",
                    stall.cycle, stall.stalled_for
                );
                for line in stall.to_string().lines() {
                    println!("    {line}");
                }
            }
            other => println!("  unexpected error: {other}"),
        },
    }

    // 4. Determinism: the same seed and plan reproduce every injection.
    println!("\n--- 4. reproducibility ---");
    let a = run_secure(SecurityScheme::CtrMacBmt, &flip);
    let b = run_secure(SecurityScheme::CtrMacBmt, &flip);
    assert_eq!(a, b, "same seed + plan must reproduce identical fault stats");
    println!("  two runs with seed {SEED:#x} produced identical FaultStats — bisectable attacks");

    println!(
        "\nsummary: MACs flag in-flight corruption, tree coverage flags replay,\n\
         and drops are a liveness problem the watchdog converts into a typed\n\
         StallReport — matching the functional model's detection matrix."
    );
}
