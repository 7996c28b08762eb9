//! Collection off records nothing. The switch is process-wide and cargo
//! runs a binary's tests on parallel threads, so this check lives alone in
//! its own test binary: no other test here can turn collection on under it.

use netsim_types::profile::{self, Stage};

#[test]
fn guards_record_nothing_while_collection_is_off() {
    profile::set_enabled(false);
    {
        netsim_types::stage!(Stage::DnsWalk);
        std::hint::black_box(0u64);
    }
    profile::flush_local();
    assert!(profile::take_local().is_empty());
    assert!(profile::take_global().is_empty());

    // A guard opened while collection was off stays silent even if
    // collection turns on before it drops; one opened while on records.
    {
        netsim_types::stage!(Stage::ReuseScan);
        profile::set_enabled(true);
    }
    assert!(profile::take_local().is_empty());
    {
        netsim_types::stage!(Stage::Handshake);
    }
    assert_eq!(profile::take_local().stats(Stage::Handshake).count, 1);

    // Turning collection off again leaves the tables drainable but stops
    // both recording and flushing.
    {
        netsim_types::stage!(Stage::Handshake);
        profile::set_enabled(false);
    }
    {
        netsim_types::stage!(Stage::Classify);
    }
    profile::flush_local();
    assert!(profile::take_global().is_empty(), "flush_local is a no-op while off");
    let local = profile::take_local();
    assert_eq!(local.stats(Stage::Handshake).count, 1, "a guard opened while on still records");
    assert_eq!(local.stats(Stage::Classify).count, 0);
}
