//! Attack simulation on the *functional* secure memory: demonstrates what
//! each scheme actually defends against, with real AES/CMAC/hash-tree
//! state — the security arguments of §II-C and §VI-B made executable.
//!
//! ```text
//! cargo run --release --example attack_simulation
//! ```

use gpu_secure_memory::core::functional::{FunctionalSecureMemory, SecurityError};
use gpu_secure_memory::core::SecurityScheme;

const REGION: u64 = 4 * 1024 * 1024;
const KEY: [u8; 16] = *b"an example key!!";

fn secret() -> [u8; 128] {
    let mut p = [0u8; 128];
    for (i, b) in p.iter_mut().enumerate() {
        *b = b"TOP-SECRET-MODEL-WEIGHTS"[i % 24];
    }
    p
}

fn outcome(r: Result<[u8; 128], SecurityError>, expect_plain: &[u8; 128]) -> &'static str {
    match r {
        Err(SecurityError::MacMismatch { .. }) => "DETECTED (MAC mismatch)",
        Err(SecurityError::TreeMismatch { .. }) => "DETECTED (integrity tree)",
        Ok(data) if &data == expect_plain => "UNDETECTED - attacker rolled state back!",
        Ok(_) => "undetected, plaintext silently garbled",
    }
}

fn main() {
    println!("{:=^78}", " GPU secure memory: attack simulation ");
    let schemes = &SecurityScheme::ALL[1..]; // every scheme but the baseline

    // 1. Confidentiality: DRAM contents are ciphertext.
    println!("\n--- 1. bus snooping (read DRAM contents) ---");
    for &scheme in schemes {
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &KEY);
        m.write_line(0, &secret());
        let leaked = m.raw_ciphertext(0);
        let looks_plain = leaked.windows(6).any(|w| w == b"SECRET");
        println!(
            "  {:<13} -> attacker sees {}",
            scheme.label(),
            if looks_plain { "PLAINTEXT (broken!)" } else { "ciphertext only" }
        );
        assert!(!looks_plain);
    }

    // 2. Tampering: flip a bit of the stored ciphertext.
    println!("\n--- 2. memory tampering (flip one DRAM bit) ---");
    for &scheme in schemes {
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &KEY);
        m.write_line(0, &secret());
        m.tamper_data(0, 17, 0x04);
        println!("  {:<13} -> {}", scheme.label(), outcome(m.read_line(0), &secret()));
    }

    // 3. Counter forging: overwrite the off-chip encryption counter.
    println!("\n--- 3. counter forging (counter-mode schemes) ---");
    for scheme in [SecurityScheme::CtrOnly, SecurityScheme::CtrBmt, SecurityScheme::CtrMacBmt] {
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &KEY);
        m.write_line(0, &secret());
        m.tamper_counter(0, 0x3B);
        println!("  {:<13} -> {}", scheme.label(), outcome(m.read_line(0), &secret()));
    }

    // 4. Replay: snapshot all off-chip state, let the victim update,
    //    then restore the stale snapshot. Only the on-chip tree root is
    //    out of reach.
    println!("\n--- 4. replay attack (restore stale DRAM snapshot) ---");
    let old = secret();
    let mut new = secret();
    new[..7].copy_from_slice(b"REVOKED");
    for &scheme in schemes {
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &KEY);
        m.write_line(0, &old);
        let snapshot = m.snapshot();
        m.write_line(0, &new); // victim updates (e.g. revokes a credential)
        m.replay(&snapshot); // attacker rolls DRAM back
        println!("  {:<13} -> {}", scheme.label(), outcome(m.read_line(0), &old));
    }

    println!(
        "\nsummary: MACs catch tampering, but only the integrity tree (BMT/MT)\n\
         with its on-chip root catches replay — which is why Fig. 17 evaluates\n\
         ctr_mac_bmt and direct_mac_mt, and why direct_mac alone is weaker."
    );
}
