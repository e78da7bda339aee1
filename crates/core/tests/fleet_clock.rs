//! The netscale world's clock against an engine whose wakeup is
//! overdue. A compact-idle core arms its child sweep only when it
//! adopts its first child, one interval after boot, so a core that
//! first hears a join long after boot reports a deadline far in the
//! past. The world services it at the current instant, once, and the
//! sweep cadence runs on from there.

mod common;

use cbt::CbtConfig;
use cbt_netsim::{SimDuration, SimTime};

#[test]
fn a_core_adopting_its_first_child_long_after_boot_sweeps_once_at_now() {
    let rib = common::rib();
    let mut world = common::line(&rib);
    let interval = CbtConfig::fast().child_assert_interval;
    let late = SimTime::from_secs(1_000);
    world.run_until(late);
    common::join(&mut world, 2);
    // The JOIN reaches the core 2 ms later; run on for less than one
    // sweep interval, so exactly one sweep is due in that window.
    let until = late + SimDuration::from_secs(8);
    world.run_until(until);
    assert_eq!(world.now(), until, "the clock ran forward only");
    let core = &world.node(0).router;
    assert_eq!(core.children_of(common::group()).len(), 1, "the branch came up");
    let lag = core.obs_snapshot().timer_lag_us;
    assert_eq!(lag.count(), 1, "one sweep, not one per interval since boot");
    let adopted = late + SimDuration::from_millis(2);
    assert_eq!(lag.max(), adopted.since(SimTime::ZERO + interval).micros(), "fired at adoption");
    assert_eq!(core.next_wakeup(), Some(adopted + interval), "the cadence runs from adoption");
}
