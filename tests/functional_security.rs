//! Randomized tests of the functional secure memory: confidentiality,
//! integrity and replay protection hold for seeded-random write sequences
//! and tampering, per scheme (offline replacement for the `proptest` suite).

use gpu_secure_memory::core::functional::FunctionalSecureMemory;
use gpu_secure_memory::core::SecurityScheme;
use gpu_secure_memory::gpusim::rng::Rng64;

const REGION: u64 = 1024 * 1024;

/// Every scheme but the baseline.
const SECURE_SCHEMES: &[SecurityScheme] = SecurityScheme::ALL.split_at(1).1;

const INTEGRITY_SCHEMES: [SecurityScheme; 3] =
    [SecurityScheme::CtrMacBmt, SecurityScheme::DirectMac, SecurityScheme::DirectMacMt];

const TREE_SCHEMES: [SecurityScheme; 3] =
    [SecurityScheme::CtrBmt, SecurityScheme::CtrMacBmt, SecurityScheme::DirectMacMt];

fn line(data: u8) -> [u8; 128] {
    let mut out = [0u8; 128];
    for (i, b) in out.iter_mut().enumerate() {
        *b = data ^ (i as u8).wrapping_mul(31);
    }
    out
}

#[test]
fn write_read_roundtrip() {
    for (case, &scheme) in
        SECURE_SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..4).map(move |k| (j * 4 + k, s)))
    {
        let mut rng = Rng64::new(0xF100 + case as u64);
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &[3u8; 16]);
        let mut shadow = std::collections::HashMap::new();
        let writes = 1 + rng.gen_range(39);
        for _ in 0..writes {
            let addr = rng.gen_range(512) * 128;
            let tag = rng.next_u64() as u8;
            m.write_line(addr, &line(tag));
            shadow.insert(addr, tag);
        }
        for (addr, tag) in shadow {
            assert_eq!(m.read_line(addr).expect("untampered"), line(tag));
        }
    }
}

#[test]
fn ciphertext_never_leaks_plaintext() {
    for (case, &scheme) in SECURE_SCHEMES.iter().enumerate() {
        let mut rng = Rng64::new(0xF200 + case as u64);
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &[9u8; 16]);
        for _ in 0..8 {
            let addr = rng.gen_range(512) * 128;
            let tag = rng.next_u64() as u8;
            m.write_line(addr, &line(tag));
            assert_ne!(m.raw_ciphertext(addr), line(tag));
        }
    }
}

#[test]
fn any_data_tamper_is_detected() {
    for (case, &scheme) in
        INTEGRITY_SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..8).map(move |k| (j * 8 + k, s)))
    {
        let mut rng = Rng64::new(0xF300 + case as u64);
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &[5u8; 16]);
        let addr = rng.gen_range(256) * 128;
        let byte = rng.gen_range(128) as usize;
        let xor = 1 + rng.gen_range(255) as u8;
        m.write_line(addr, &line(0xAA));
        m.tamper_data(addr, byte, xor);
        assert!(m.read_line(addr).is_err(), "tamper must be detected by {scheme}");
    }
}

#[test]
fn any_mac_tamper_is_detected() {
    for (case, &scheme) in
        INTEGRITY_SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..8).map(move |k| (j * 8 + k, s)))
    {
        let mut rng = Rng64::new(0xF400 + case as u64);
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &[5u8; 16]);
        let addr = rng.gen_range(256) * 128;
        let sector = rng.gen_range(4) as usize;
        let xor = 1 + rng.gen_range(u64::from(u16::MAX) - 1) as u16;
        m.write_line(addr, &line(0x55));
        m.tamper_mac(addr, sector, xor);
        assert!(m.read_line(addr).is_err());
    }
}

#[test]
fn replay_detected_by_tree_schemes() {
    for (case, &scheme) in
        TREE_SCHEMES.iter().enumerate().flat_map(|(j, s)| (0..8).map(move |k| (j * 8 + k, s)))
    {
        let mut rng = Rng64::new(0xF500 + case as u64);
        let addr = rng.gen_range(256) * 128;
        let old = rng.next_u64() as u8;
        let new = old.wrapping_add(1 + rng.gen_range(254) as u8);
        let mut m = FunctionalSecureMemory::new(scheme, REGION, &[7u8; 16]);
        m.write_line(addr, &line(old));
        let snapshot = m.snapshot();
        m.write_line(addr, &line(new));
        m.replay(&snapshot);
        assert!(m.read_line(addr).is_err(), "replay must be detected by {scheme}");
    }
}

#[test]
fn replay_fools_direct_mac() {
    for case in 0..16u64 {
        let mut rng = Rng64::new(0xF600 + case);
        let addr = rng.gen_range(256) * 128;
        let old = rng.next_u64() as u8;
        let new = old.wrapping_add(1 + rng.gen_range(254) as u8);
        let mut m = FunctionalSecureMemory::new(SecurityScheme::DirectMac, REGION, &[7u8; 16]);
        m.write_line(addr, &line(old));
        let snapshot = m.snapshot();
        m.write_line(addr, &line(new));
        m.replay(&snapshot);
        // A consistent stale snapshot passes MAC verification: the attacker
        // rolled the value back. This is the MT's raison d'etre (Fig. 17).
        assert_eq!(m.read_line(addr).expect("MAC alone cannot catch replay"), line(old));
    }
}

#[test]
fn counter_mode_rewrites_change_ciphertext() {
    for case in 0..16u64 {
        let mut rng = Rng64::new(0xF700 + case);
        let addr = rng.gen_range(256) * 128;
        let tag = rng.next_u64() as u8;
        let mut m = FunctionalSecureMemory::new(SecurityScheme::CtrMacBmt, REGION, &[1u8; 16]);
        m.write_line(addr, &line(tag));
        let c1 = m.raw_ciphertext(addr);
        m.write_line(addr, &line(tag));
        let c2 = m.raw_ciphertext(addr);
        assert_ne!(c1.to_vec(), c2.to_vec(), "counter bump must refresh the pad");
        assert_eq!(m.read_line(addr).expect("valid"), line(tag));
    }
}

#[test]
fn minor_counter_overflow_reencrypts_chunk() {
    let mut m = FunctionalSecureMemory::new(SecurityScheme::CtrMacBmt, REGION, &[2u8; 16]);
    // Two lines in the same 16 KB chunk.
    m.write_line(0, &line(1));
    m.write_line(128, &line(2));
    // Overwhelm line 0's 7-bit minor counter to force a major overflow.
    for _ in 0..200 {
        m.write_line(0, &line(1));
    }
    // Both lines must still verify and decrypt after the chunk re-encryption.
    assert_eq!(m.read_line(0).expect("verifies"), line(1));
    assert_eq!(m.read_line(128).expect("verifies"), line(2));
}
