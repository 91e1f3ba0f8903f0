//! [`Snapshot`] codecs for the simulator's plain value types.
//!
//! Structural components (caches, MSHR files, DRAM, SMs, partitions)
//! restore **in place** through their own `save_state`/`restore_state`
//! methods so geometry can be validated against the rebuilt structure,
//! each shape check one call to [`Reader::expect_count`],
//! [`Reader::get_queue`] or [`Reader::expect_presence`]. This module
//! covers the value types that flow between them: requests,
//! instructions, masks and statistics blocks.
//!
//! Each plain struct and enum names its fields once, in one
//! [`snapshot_fields!`] or [`snapshot_enum!`] list: the list is both the
//! write order and the read order, and the struct literal it builds on
//! load makes the compiler reject a missing field. Only [`SectorMask`]
//! and [`Access`], which validate what they decode, are written by hand.
//! Every enum is encoded as an explicit `u8` discriminant (never a cast
//! of the Rust layout) and every decode validates the discriminant, so a
//! corrupted payload yields a typed [`CheckpointError`] instead of a
//! nonsense value.

use secmem_checkpoint::{snapshot_enum, snapshot_fields, CheckpointError, Reader, Snapshot, Writer};

use crate::cache::CacheStats;
use crate::dram::{DramClassStats, DramStats};
use crate::fault::{FaultClassStats, FaultEvent, FaultKind, FaultStats};
use crate::mshr::MshrStats;
use crate::stats::MetadataTypeStats;
use crate::types::{
    Access, AccessKind, BackendReq, Inst, MemRequest, SectorMask, TrafficClass, WarpRef, LINE_SIZE,
};

impl Snapshot for SectorMask {
    fn save(&self, w: &mut Writer) {
        w.put_u8(self.0);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let bits = r.get_u8()?;
        if bits > 0xF {
            return Err(CheckpointError::Malformed(format!("sector mask bits {bits:#04x}")));
        }
        Ok(SectorMask(bits))
    }
}

impl Snapshot for Access {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.line_addr);
        self.sectors.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let line_addr = r.get_u64()?;
        if line_addr % LINE_SIZE != 0 {
            return Err(CheckpointError::Malformed(format!("unaligned line address {line_addr:#x}")));
        }
        let sectors = SectorMask::load(r)?;
        Ok(Access { line_addr, sectors })
    }
}

snapshot_enum!(TrafficClass, "traffic class" { 0 => Data, 1 => Counter, 2 => Mac, 3 => Tree });
snapshot_enum!(AccessKind, "access kind" { 0 => Load, 1 => Store });
snapshot_enum!(Inst, "instruction discriminant" {
    0 => Alu { stall, wait_mem },
    1 => Load { accesses, dependent },
    2 => Store { accesses },
    3 => Exit,
});
snapshot_enum!(FaultKind, "fault kind" {
    0 => BitFlip,
    1 => Drop,
    2 => Delay(cycles),
    3 => MetaCorrupt,
    4 => Replay,
});

snapshot_fields!(WarpRef { sm, warp });
snapshot_fields!(MemRequest { id, line_addr, sectors, kind, warp });
snapshot_fields!(BackendReq { id, line_addr, sectors, bank });
snapshot_fields!(CacheStats { hits, misses, fills, dirty_evictions, evictions });
snapshot_fields!(MshrStats { primary, secondary, stalls });
snapshot_fields!(MetadataTypeStats { cache, mshr, writebacks });
snapshot_fields!(DramClassStats { reads, writes, bytes_read, bytes_written });
snapshot_fields!(DramStats { per_class, busy_fp, rejected, row_hits, row_misses });
snapshot_fields!(FaultClassStats { injected, dropped, delayed, detected, undetected });
snapshot_fields!(FaultStats { per_class });
snapshot_fields!(FaultEvent { cycle, line_addr, class, kind, detected });

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + core::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(&T::load(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn value_types_roundtrip() {
        roundtrip(&SectorMask(0b1010));
        for c in TrafficClass::ALL {
            roundtrip(&c);
        }
        roundtrip(&AccessKind::Load);
        roundtrip(&AccessKind::Store);
        roundtrip(&Access { line_addr: 0x1_2380, sectors: SectorMask(0b0110) });
        roundtrip(&Inst::Alu { stall: 4, wait_mem: true });
        roundtrip(&Inst::Load {
            accesses: vec![Access { line_addr: 0, sectors: SectorMask(1) }],
            dependent: false,
        });
        roundtrip(&Inst::Store { accesses: vec![] });
        roundtrip(&Inst::Exit);
        roundtrip(&WarpRef { sm: 3, warp: 17 });
        roundtrip(&MemRequest {
            id: 99,
            line_addr: 0x80,
            sectors: SectorMask(0xF),
            kind: AccessKind::Store,
            warp: Some(WarpRef { sm: 1, warp: 2 }),
        });
        roundtrip(&BackendReq { id: 7, line_addr: 0x100, sectors: SectorMask(1), bank: 2 });
        roundtrip(&FaultKind::Delay(12));
        roundtrip(&FaultEvent {
            cycle: 1000,
            line_addr: 0x200,
            class: TrafficClass::Counter,
            kind: FaultKind::BitFlip,
            detected: true,
        });
    }

    #[test]
    fn stats_roundtrip() {
        roundtrip(&CacheStats { hits: 1, misses: 2, fills: 3, dirty_evictions: 4, evictions: 5 });
        roundtrip(&MshrStats { primary: 6, secondary: 7, stalls: 8 });
        let mut d = DramStats::default();
        d.per_class[2].bytes_written = 1024;
        d.busy_fp = 77;
        d.row_hits = 5;
        roundtrip(&d);
        let mut f = FaultStats::default();
        f.per_class[1].injected = 3;
        roundtrip(&f);
    }

    #[test]
    fn corrupt_discriminants_are_typed_errors() {
        for bytes in [[0x10u8], [0xFFu8]] {
            let mut r = Reader::new(&bytes);
            assert!(matches!(SectorMask::load(&mut r), Err(CheckpointError::Malformed(_))));
        }
        for bytes in [[0x10u8], [9u8], [0xFFu8]] {
            let mut r = Reader::new(&bytes);
            assert!(matches!(TrafficClass::load(&mut r), Err(CheckpointError::Malformed(_))));
            let mut r = Reader::new(&bytes);
            assert!(matches!(AccessKind::load(&mut r), Err(CheckpointError::Malformed(_))));
            let mut r = Reader::new(&bytes);
            assert!(matches!(<Inst as Snapshot>::load(&mut r), Err(CheckpointError::Malformed(_))));
            let mut r = Reader::new(&bytes);
            assert!(matches!(FaultKind::load(&mut r), Err(CheckpointError::Malformed(_))));
        }
        // An unaligned line address in an Access is structural corruption.
        let mut w = Writer::new();
        w.put_u64(0x1234);
        SectorMask(1).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Access::load(&mut r), Err(CheckpointError::Malformed(_))));
    }
}
