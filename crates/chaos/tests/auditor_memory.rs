//! The auditor's memory is sized by what it sees, never by the value of an
//! id it sees: a forged GSN near `u64::MAX` for the walker `u32::MAX` must
//! not make it allocate a table reaching that far.
//!
//! The test binary runs under an allocator that records the largest single
//! request and refuses any over [`REFUSE_OVER`], so a regression fails fast
//! (as an allocation error) instead of exhausting the host's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chaos::{AuditConfig, Auditor, LivenessCheck, ViolationKind};
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{SimDuration, SimTime};

/// Largest single allocation request this process has made.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Requests above this size fail.
const REFUSE_OVER: usize = 256 << 20;

struct Capped;

// SAFETY: defers every operation to `System`, or refuses with a null
// pointer, which `GlobalAlloc` permits; the counter never allocates.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_OVER {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > REFUSE_OVER {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Capped = Capped;

#[test]
fn a_forged_huge_gsn_for_the_last_walker_costs_no_table_of_its_size() {
    let (mh, group, gsn) = (Guid(u32::MAX), GroupId(u32::MAX), GlobalSeq(u64::MAX - 1));
    let (source, local_seq) = (NodeId(u32::MAX), LocalSeq(u64::MAX));
    let at = |ms| SimTime::from_millis(ms);
    let journal = [
        (
            at(1),
            ProtoEvent::Ordered {
                group,
                node: NodeId(0xFFFF_0001),
                source,
                local_seq,
                gsn,
            },
        ),
        (
            at(2),
            ProtoEvent::MhDeliver {
                group,
                mh,
                gsn,
                source,
                local_seq,
            },
        ),
        (
            at(3),
            ProtoEvent::MhSkip {
                group,
                mh,
                gsn: GlobalSeq(u64::MAX),
            },
        ),
    ];
    let mut auditor = Auditor::new(AuditConfig {
        liveness: Some(LivenessCheck {
            window: SimDuration::from_secs(1),
            walkers: vec![u32::MAX],
        }),
        ..AuditConfig::default()
    });
    auditor.observe_journal(&journal);
    let report = auditor.finish(SimTime::from_millis(500));
    assert!(report.is_clean(), "{:?}", report.first_violation);
    assert_eq!(
        (report.deliveries, report.skips, report.walkers_seen),
        (1, 1, 1)
    );

    // And a duplicate delivery there is still seen for what it is.
    let mut auditor = Auditor::new(AuditConfig::default());
    auditor.observe_journal(&journal[..2]);
    auditor.observe(at(4), &journal[1].1);
    let report = auditor.finish(SimTime::from_millis(500));
    assert_eq!(
        report.first_violation.map(|v| v.kind),
        Some(ViolationKind::DuplicateDelivery)
    );

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "largest single allocation {largest} B: some table grew toward an id's value"
    );
}
